"""Sparse multivariate polynomials and factored affine products."""

import itertools
import math
import random

import pytest

from pairpack import poly
from pairpack.algebra import ZZ, ModRing
from pairpack.dyson import dyson_bruteforce
from pairpack.nullstellensatz import GridSpec, cn_coefficient
from pairpack.poly import (AffineProduct, ArityMismatch, BudgetExceeded,
                           MultiPoly, RingMismatch)


def rand_poly(rng, ring, arity, max_terms=6, max_exp=3, span=9):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(arity))
        terms.append((e, rng.randrange(-span, span + 1)))
    return MultiPoly(ring, arity, terms)


def test_constructors_and_zero_pruning():
    R = ModRing(5)
    p = MultiPoly(R, 2, [((1, 0), 3), ((1, 0), 2), ((0, 1), 7)])
    # 3 + 2 = 5 = 0 mod 5, so the x-term drops out
    assert p.coefficient((1, 0)) == 0
    assert p.coefficient((0, 1)) == 2
    assert not MultiPoly(R, 3).terms
    assert MultiPoly.one(R, 3).coefficient((0, 0, 0)) == 1
    assert MultiPoly(R, 1, {(0,): 12}).coefficient((0,)) == 2
    v = MultiPoly(R, 3, {(0, 1, 0): 1})
    assert v.coefficient((0, 1, 0)) == 1
    assert MultiPoly(R, 2, {(2, 1): 4}).total_degree() == 3


def test_bad_shapes():
    R = ModRing(5)
    with pytest.raises(ArityMismatch):
        MultiPoly(R, 2, [((1,), 1)])
    with pytest.raises(ValueError):
        MultiPoly(R, 2, [((1, -1), 1)])
    a = MultiPoly.one(R, 2)
    with pytest.raises(ArityMismatch):
        a * MultiPoly.one(R, 3)
    with pytest.raises(RingMismatch, match=r"^ModRing\(5\) vs ModRing\(7\)$"):
        a * MultiPoly.one(ModRing(7), 2)
    with pytest.raises(RingMismatch, match=r"^ZZ vs ModRing\(5\)$"):
        MultiPoly.one(ZZ, 2) * a
    # only a MultiPoly multiplies a MultiPoly, on either side
    for other in (3, "x"):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other * a
    # a ring is its modulus: equal moduli are one ring, ZZ is none of them
    assert a == MultiPoly.one(ModRing(5), 2) != MultiPoly.one(ZZ, 2)
    with pytest.raises(ArityMismatch):
        a.coefficient((1,))
    with pytest.raises(ArityMismatch):
        AffineProduct(R, 2, [(((0, 1), (2, 1)), 0)])


def test_arithmetic_matches_evaluation():
    """Multiplication and evaluation must commute."""
    rng = random.Random(5)
    for _ in range(60):
        ring = ModRing(rng.choice((5, 7, 9, 13)))
        arity = rng.randrange(1, 4)
        a = rand_poly(rng, ring, arity)
        b = rand_poly(rng, ring, arity)
        pt = tuple(rng.randrange(ring.n) for _ in range(arity))
        n = ring.n
        av, bv = a.evaluate(pt), b.evaluate(pt)
        assert (a * b).evaluate(pt) == av * bv % n
        assert (a * a * a).evaluate(pt) == av * av * av % n


def test_arithmetic_over_integers():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_poly(rng, ZZ, 2)
        b = rand_poly(rng, ZZ, 2)
        pt = (rng.randrange(-5, 6), rng.randrange(-5, 6))
        assert a * b == b * a
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_sum_with_cancelling_terms_is_termwise():
    """A term list that names an exponent twice sums its coefficients and
    drops every exponent where they cancel, over Z and over Z/(35), and
    keeps the rest reduced."""
    rng = random.Random(8)
    for ring in (ZZ, ModRing(35)):
        for _ in range(30):
            a = rand_poly(rng, ring, 2)
            b = MultiPoly(ring, 2, [*rand_poly(rng, ring, 2).terms.items(),
                                    *((e, -c) for e, c in a.terms.items()),
                                    *rand_poly(rng, ring, 2).terms.items()])
            want = {}
            for e in {*a.terms, *b.terms}:
                c = a.coefficient(e) + b.coefficient(e)
                c = c % ring.n if ring.n else c
                if c:
                    want[e] = c
            assert MultiPoly(ring, 2, [*a.terms.items(),
                                       *b.terms.items()]).terms == want
        x = [((1,), 34), ((0,), 2)]
        y = [((1,), -34), ((2,), 1)]
        assert MultiPoly(ring, 1, x + y).terms == {(0,): 2, (2,): 1}
        assert not MultiPoly(ring, 1, x + [(e, -c) for e, c in x]).terms


def test_total_degree():
    R = ModRing(7)
    assert MultiPoly(R, 2).total_degree() == 0
    assert MultiPoly.one(R, 2).total_degree() == 0
    p = MultiPoly(R, 2, [((3, 1), 2), ((0, 2), 1)])
    assert p.total_degree() == 4


def test_binomial_identity():
    R = ModRing(13)
    s = MultiPoly(R, 2, {(1, 0): 1, (0, 1): 1})    # x + y
    p = s * s * s * s
    import math
    for k in range(5):
        assert p.coefficient((4 - k, k)) == math.comb(4, k) % 13


def test_json_round_trip():
    rng = random.Random(7)
    for ring in (ZZ, ModRing(11)):
        for _ in range(20):
            p = rand_poly(rng, ring, 3)
            doc = p.to_json()
            assert doc["arity"] == 3
            for term in doc["terms"]:
                assert isinstance(term["c"], str)
            q = MultiPoly.from_json(ring, doc)
            assert p == q


def test_from_json_coefficients_are_ints_or_decimal_strings():
    doc = {"arity": 2, "terms": [{"e": [1, 0], "c": "-12"},
                                 {"e": [0, 1], "c": 5}]}
    assert MultiPoly.from_json(ZZ, doc) == MultiPoly(
        ZZ, 2, {(1, 0): -12, (0, 1): 5})
    for term, error in (({"e": [1, 1], "c": 2.7}, "coefficient 2.7"),
                        ({"e": [1, 1], "c": "2.7"}, "coefficient '2.7'"),
                        ({"e": [1, 1], "c": True}, "coefficient True"),
                        ({"e": [1.0, 1], "c": 2}, "exponent 1.0")):
        with pytest.raises(ValueError, match=rf"^{error} is not an int$"):
            MultiPoly.from_json(ZZ, {"arity": 2, "terms": [term]})
    with pytest.raises(ValueError, match=r"^arity 2\.0 is not an int >= 0$"):
        MultiPoly.from_json(ZZ, {"arity": 2.0, "terms": []})


def test_sorted_terms_deterministic():
    R = ModRing(5)
    terms = [((0, 1), 1), ((2, 0), 3), ((1, 1), 4)]
    p = MultiPoly(R, 2, terms)
    q = MultiPoly(R, 2, list(reversed(terms)))
    assert [e for e, _ in p.sorted_terms()] == sorted(e for e, _ in terms)
    assert p.to_json() == q.to_json()


def test_affine_product_evaluate_and_expand():
    rng = random.Random(8)
    for _ in range(40):
        ring = ModRing(rng.choice((5, 7, 11)))
        arity = rng.randrange(1, 4)
        factors = []
        for _ in range(rng.randrange(1, 5)):
            lin = tuple((i, rng.randrange(ring.n))
                        for i in range(arity) if rng.random() < 0.7)
            factors.append((lin, rng.randrange(ring.n)))
        prod = AffineProduct(ring, arity, factors)
        poly = prod.expand()
        for _ in range(5):
            pt = tuple(rng.randrange(ring.n) for _ in range(arity))
            assert prod.evaluate(pt) == poly.evaluate(pt)


def test_affine_product_merges_repeated_variables():
    """A variable named twice in one factor is one term with the summed
    coefficient, and is dropped when they cancel, so total_degree is the
    degree of the expansion over an integral domain."""
    cancelled = AffineProduct(ZZ, 1, [(((0, 1), (0, -1)), 3)])
    assert cancelled.factors == (((), 3),)
    assert cancelled.total_degree() == 0 == cancelled.expand().total_degree()
    assert cancelled.evaluate((5,)) == 3
    assert cn_coefficient(cancelled, GridSpec(((0,),))) == 3   # degree 0
    summed = AffineProduct(ZZ, 2, [(((1, 2), (0, 1), (1, 3)), -4)])
    assert summed.factors == ((((0, 1), (1, 5)), -4),)
    assert summed.evaluate((2, 3)) == 2 + 15 - 4
    mod7 = AffineProduct(ModRing(7), 2, [(((0, 3), (1, 2), (0, 4)), 1),
                                          (((1, 1), (1, 6)), 5)])
    assert mod7.factors == ((((1, 2),), 1), ((), 5))
    assert mod7.total_degree() == 1 == mod7.expand().total_degree()


def test_affine_evaluate_early_zero():
    R = ModRing(7)
    # first factor vanishes at x=3; the big tail must not matter
    factors = [(((0, 1),), 4)] + [(((0, 1),), 1)] * 50
    prod = AffineProduct(R, 1, factors)
    assert prod.evaluate((3,)) == 0



def test_nonzero_points_order_and_arity():
    prod = AffineProduct(ModRing(5), 2, [(((0, 1), (1, -1)), 0)])  # x0 - x1
    want = [((3, 1), 2), ((3, 0), 3), ((1, 3), 3), ((1, 0), 1)]
    for f in (prod, prod.expand()):
        assert list(f.nonzero_points((3, 1), (1, 3, 0))) == want
        with pytest.raises(ArityMismatch):
            list(f.nonzero_points((3, 1)))
    # a modulus past is_prime's exact range walks as a composite one
    big = AffineProduct(ModRing(10 ** 25), 1, [(((0, 1),), -1)])   # x0 - 1
    assert list(big.nonzero_points((0, 1, 2))) == [((0,), 10 ** 25 - 1),
                                                   ((2,), 1)]
    # and finds the roots of a non-unit top coefficient there: 2 * x0 + 2
    n = 10 ** 25
    two = AffineProduct(ModRing(n), 1, [(((0, 2),), 2)])
    assert list(two.nonzero_points((0, n // 2 - 1, n - 1, -1, 2 * n - 1, 3))) \
        == [((0,), 2), ((3,), 8)]


def test_walks_have_no_arity_limit():
    """x_0 x_1 ... x_2999 as a MultiPoly and as an AffineProduct, walked
    with (1, 2) on axes 0, 1499 and 2999 and (1,) on every other axis."""
    arity, axes = 3000, (0, 1499, 2999)
    mono = MultiPoly(ZZ, arity, {(1,) * arity: 1})
    prod = AffineProduct(ZZ, arity, [(((i, 1),), 0) for i in range(arity)])
    sets = [(1, 2) if i in axes else (1,) for i in range(arity)]
    want = []
    for xs in itertools.product((1, 2), repeat=3):
        point = [1] * arity
        for i, x in zip(axes, xs):
            point[i] = x
        want.append((tuple(point), math.prod(xs)))
    assert sorted(v for _, v in want) == [1, 2, 2, 2, 4, 4, 4, 8]
    for f in (mono, prod):
        assert list(f.nonzero_points(*sets)) == want
        assert f.evaluate((2,) * arity) == 2 ** arity


def test_expansion_budget(monkeypatch):
    # the brute-force constant term reads the budget at call time
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        dyson_bruteforce((2, 2, 2, 2))
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 50)
    assert dyson_bruteforce((2, 2, 2, 2)) == 2520
    # (x0+1)(x1+1)...(x9+1) has 2^10 terms
    factors = [(((i, 1),), 1) for i in range(10)]
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        AffineProduct(ZZ, 10, factors).expand()
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 2000)
    assert len(AffineProduct(ZZ, 10, factors).expand().terms) == 1024
    # the prediction is expand's one check: wherever it lets a product
    # through, every partial product has at most the budget's terms
    rng, refused, kept = random.Random(44), 0, 0
    rings = (ZZ, ModRing(2), ModRing(6), ModRing(7))
    for _ in range(800):
        ring, arity = rng.choice(rings), rng.randrange(1, 6)
        factors = [(tuple((i, rng.randrange(-3, 4)) for i in range(arity)
                          if rng.random() < 0.6), rng.randrange(-3, 4))
                   for _ in range(rng.randrange(8))]
        if factors and rng.random() < 0.1:      # a factor with no terms
            factors[rng.randrange(len(factors))] = ((), 0)
        prod = AffineProduct(ring, arity, factors)
        for budget in (5, 20, 60, 200):
            monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", budget)
            try:
                want = prod.expand()
            except BudgetExceeded:
                refused += 1
                continue
            kept, partial = kept + 1, MultiPoly.one(ring, arity)
            for lin, const in prod.factors:
                partial = partial * MultiPoly(ring, arity, [((0,) * arity, const)] + [
                    (tuple(int(j == i) for j in range(arity)), c) for i, c in lin])
                assert len(partial.terms) <= budget, (prod.factors, budget)
            assert partial == want
    assert refused > 500 and kept > 2000, (refused, kept)

