"""Equal-constant-term checks for the product of scaled differences."""

import math
import random

import pytest

from pairpack import poly
from pairpack.algebra import ZZ, multinomial
from pairpack.dyson import (DysonInstance, dyson_bruteforce, dyson_formula,
                            dyson_via_evaluation, packing_coefficient)
from pairpack.nullstellensatz import GridSpec, cn_coefficient
from pairpack.poly import BudgetExceeded, MultiPoly


def _difference_power(m, i, j, e):
    """(x_i - x_j)^e in m variables, through the binomial theorem."""
    terms = []
    for t in range(e + 1):
        exps = [0] * m
        exps[i], exps[j] = e - t, t
        terms.append((exps, (-1) ** t * math.comb(e, t)))
    return MultiPoly(ZZ, m, terms)


def _full_expansion(a):
    """prod_{i<j} (x_i - x_j)^(a_i + a_j), every term multiplied out."""
    m = len(a)
    f = MultiPoly.one(ZZ, m)
    for i in range(m):
        for j in range(i + 1, m):
            f = f * _difference_power(m, i, j, a[i] + a[j])
    return f


def test_instance_validation():
    with pytest.raises(ValueError):
        DysonInstance(())
    with pytest.raises(ValueError):
        DysonInstance((1, 0))
    inst = DysonInstance((2, 1, 3))
    assert inst.total == 6


def test_instance_refuses_exponents_that_are_not_ints():
    """No silent truncation: (1.5, 2) once gave the answer for (1, 2)."""
    for bad in (1.5, 2.0, True, "3", None):
        for route in (DysonInstance, dyson_formula, dyson_bruteforce,
                      dyson_via_evaluation):
            with pytest.raises(ValueError, match=f"^exponent {bad!r} is not an int$"):
                route((2, bad))


def test_known_small_values():
    table = {
        (1,): 1,
        (1, 1): 2,
        (2, 1): 3,
        (2, 2): 6,
        (1, 1, 1): 6,
        (1, 2, 3): 60,
    }
    for a, want in table.items():
        assert dyson_formula(a) == want
        assert dyson_bruteforce(a) == want
        assert dyson_via_evaluation(a) == want


def test_multinomial_is_a_product_of_binomials():
    """(a + b + ...)! / (a! b! ...) = C(a, a) C(a + b, b) ..., with the empty
    product 1 and zero parts contributing C(s, 0) = 1."""
    rng = random.Random(17)
    cases = [(), (0,), (0, 0), (7,), (3, 0, 2)]
    cases += [tuple(rng.randrange(6) for _ in range(rng.randrange(1, 7)))
              for _ in range(60)]
    for parts in cases:
        want = math.prod(math.comb(sum(parts[:i + 1]), x)
                         for i, x in enumerate(parts))
        assert multinomial(parts) == want
        assert multinomial(iter(parts)) == want


def test_three_routes_agree_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 5)
        while True:
            a = tuple(rng.randrange(1, 5) for _ in range(n))
            if sum(a[i] + a[j] for i in range(n)
                   for j in range(i + 1, n)) <= 24:
                break
        assert dyson_formula(a) == dyson_via_evaluation(a)
        assert dyson_formula(a) == dyson_bruteforce(a)


def test_bruteforce_matches_the_full_expansion():
    """The bounded expansion drops only terms that cannot reach the target:
    on seeded vectors of 3 or 4 entries and degree <= 18, its coefficient
    is the one read off the product multiplied out in full."""
    rng = random.Random(37)
    for n, total in ((3, 9), (3, 7), (4, 6), (4, 5)) * 4:
        cuts = sorted(rng.sample(range(1, total), n - 1))
        a = tuple(y - x for x, y in zip([0] + cuts, cuts + [total]))
        sign = (-1) ** sum(x * (n - 1 - i) for i, x in enumerate(a))
        target = tuple(total - x for x in a)
        assert dyson_bruteforce(a, max_degree=18) == \
            sign * _full_expansion(a).coefficient(target), a


def test_bruteforce_at_degree_60(monkeypatch):
    """Past the default degree budget, within a term budget that only the
    two-sided bound meets: (2,) * 6 keeps at most 1,397 terms at once,
    where bounding exponents from above alone keeps 17,533."""
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 1500)
    for a in ((2,) * 6, (3,) * 5):
        assert dyson_bruteforce(a, max_degree=60) == dyson_formula(a)


def test_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        dyson_bruteforce((5, 5, 5), max_degree=24)
    assert dyson_bruteforce((5, 5, 5), max_degree=30) == math.comb(15, 5) * math.comb(10, 5)


def test_evaluation_handles_large_exponents():
    # far past anything the expander could touch
    a = (9, 7, 5, 3, 1)
    assert dyson_via_evaluation(a) == dyson_formula(a)


def test_packing_coefficient_small():
    assert packing_coefficient(1, 3) == 1
    assert packing_coefficient(2, 1) == -2
    assert packing_coefficient(2, 2) == 6
    assert packing_coefficient(3, 2) == 90
    with pytest.raises(ValueError):
        packing_coefficient(0, 1)
    with pytest.raises(ValueError):
        packing_coefficient(2, 0)


@pytest.mark.parametrize("m", [True, 2.0, -1, 0, "2"])
def test_packing_coefficient_refuses_an_m_that_is_not_a_positive_int(m):
    """True used to give 1 (m = 1), 2.0 a bare TypeError from (d,) * m,
    and -1 "need at least one exponent"."""
    with pytest.raises(ValueError, match=f"^m {m!r} is not an int >= 1$"):
        packing_coefficient(m, 2)


def test_packing_coefficient_against_expansion():
    """Read the same coefficient straight out of prod (x_i - x_j)^(2d)."""
    for m, d in ((2, 1), (2, 2), (3, 1)):
        f = _full_expansion((d,) * m)
        target = ((m - 1) * d,) * m
        assert f.coefficient(target) == packing_coefficient(m, d)


def test_packing_coefficient_against_grid_sum():
    # independent cross-check through the interpolation route
    m, d = 2, 2
    f = _difference_power(2, 0, 1, 4)
    grid = GridSpec((tuple(range((m - 1) * d + 1)),) * m)
    assert cn_coefficient(f, grid) == packing_coefficient(m, d)
