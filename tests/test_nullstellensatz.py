"""Grid coefficient extraction and the pairing polynomials."""

import itertools
import math
import random

import pytest

from pairpack.algebra import ZZ, ModRing
from pairpack.nullstellensatz import (DegreeTooHigh, GridSpec,
                                      NonInvertibleDenominator,
                                      cn_coefficient, cn_coefficient_scaled,
                                      cn_witness, integral_over_field,
                                      odd_residue_polynomial, partition_grid,
                                      partition_polynomial)
from pairpack.poly import AffineProduct, ArityMismatch, MultiPoly


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(((),))
    with pytest.raises(ValueError):
        GridSpec(((0, 1, 0),))
    g = GridSpec(((0, 1), (2, 3, 4)))
    assert g.arity == 2
    assert g.target_exponents == (1, 2)
    assert g.sets == ((0, 1), (2, 3, 4))


def test_coefficient_formula_random():
    """The grid sum recovers the top coefficient for any admissible poly."""
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice((5, 7, 11))
        ring = ModRing(p)
        arity = rng.randrange(1, 4)
        sizes = [rng.randrange(2, p + 1) for _ in range(arity)]
        grid = GridSpec(tuple(tuple(sorted(rng.sample(range(p), s)))
                              for s in sizes))
        c = grid.target_exponents
        terms = []
        for _ in range(rng.randrange(1, 8)):
            e = tuple(rng.randrange(ci + 1) for ci in c)
            terms.append((e, rng.randrange(p)))
        f = MultiPoly(ring, arity, terms)
        want = f.coefficient(c)
        assert cn_coefficient(f, grid) == want
        num, den = cn_coefficient_scaled(f, grid)
        assert num == want * den % p


def test_coefficient_formula_reduces_high_individual_degree():
    # x0^2 has total degree 2 <= 1 + 1 but no x0*x1 term
    ring = ModRing(7)
    f = MultiPoly(ring, 2, {(2, 0): 1})
    grid = GridSpec(((0, 1), (0, 1)))
    assert cn_coefficient(f, grid) == 0


def test_degree_guard_and_arity_guard():
    ring = ModRing(5)
    f = MultiPoly(ring, 1, {(3,): 1})
    with pytest.raises(DegreeTooHigh):
        cn_coefficient(f, GridSpec(((0, 1),)))
    with pytest.raises(ArityMismatch):
        cn_coefficient(MultiPoly.one(ring, 2), GridSpec(((0, 1),)))


def test_integer_coefficients_divide_exactly():
    rng = random.Random(12)
    for _ in range(25):
        arity = rng.randrange(1, 3)
        grid = GridSpec(tuple(tuple(sorted(rng.sample(range(-4, 5),
                                                      rng.randrange(2, 5))))
                              for _ in range(arity)))
        c = grid.target_exponents
        terms = [(tuple(rng.randrange(ci + 1) for ci in c),
                  rng.randrange(-9, 10)) for _ in range(4)]
        f = MultiPoly(ZZ, arity, terms)
        assert cn_coefficient(f, grid) == f.coefficient(c)


def test_composite_ring_denominators():
    ring = ModRing(9)
    f = MultiPoly(ring, 1, {(1,): 1})
    ok = GridSpec(((0, 1),))
    assert cn_coefficient(f, ok) == 1
    bad = GridSpec(((0, 3),))          # difference 3 kills invertibility mod 9
    with pytest.raises(NonInvertibleDenominator):
        cn_coefficient(f, bad)


def test_grid_collapse_detected():
    ring = ModRing(5)
    f = MultiPoly(ring, 1, {(1,): 1})
    with pytest.raises(ValueError):
        cn_coefficient(f, GridSpec(((1, 6),)))   # 6 = 1 mod 5


def test_witness():
    ring = ModRing(5)
    x = MultiPoly(ring, 1, {(1,): 1})
    vanishing = x * MultiPoly(ring, 1, {(1,): 1, (0,): -1})      # x (x - 1)
    assert cn_witness(vanishing, GridSpec(((0, 1),))) is None
    assert cn_witness(vanishing, GridSpec(((0, 1, 2),))) == (2,)
    # lexicographically first over the sets as given
    assert cn_witness(x, GridSpec(((3, 1, 0),))) == (3,)


def test_full_field_power_sums():
    """sum over F_p of x^k is -1 when (p-1) | k, k > 0, and 0 otherwise."""
    for p in (3, 5, 7):
        ring = ModRing(p)
        for k in range(2 * p):
            f = MultiPoly(ring, 1, {(k,): 1})
            want = p - 1 if k > 0 and k % (p - 1) == 0 else (p if k == 0 else 0)
            # k = 0 sums p copies of 1, which is 0 mod p
            assert integral_over_field(f) == want % p
    with pytest.raises(ValueError):
        integral_over_field(MultiPoly.one(ZZ, 1))
    with pytest.raises(ValueError):
        integral_over_field(MultiPoly.one(ModRing(9), 1))


def _pairs_partition_units(p, d, point):
    vals = []
    for ci, di in zip(point, d):
        vals.extend(((ci) % p, (ci + di) % p))
    return 0 not in vals and len(set(vals)) == len(vals)


def test_partition_polynomial_support():
    p, d = 5, (1, 2)
    f = partition_polynomial(p, d)
    for point in ((0, 0), (1, 1), (2, 4), (4, 1), (3, 3)):
        assert (f.evaluate(point) != 0) == _pairs_partition_units(p, d, point)
    # exhaustively: support is exactly the good placements
    good = {pt for pt in itertools.product(range(p), repeat=2)
            if _pairs_partition_units(p, d, pt)}
    hits = {pt for pt in itertools.product(range(p), repeat=2)
            if f.evaluate(pt) != 0}
    assert hits == good
    assert (2, 4) in hits


def test_partition_polynomial_without_unit_factors():
    p, d = 5, (1, 2)
    f = partition_polynomial(p, d, include_nonzero_factors=False)
    # (0, 2): pairs {0,1} and {2,4} are disjoint but touch zero
    assert f.evaluate((0, 2)) != 0
    assert partition_polynomial(p, d).evaluate((0, 2)) == 0


def test_odd_residue_polynomial_support():
    p = 5
    g = odd_residue_polynomial(p)
    hits = {pt for pt in itertools.product(range(p), repeat=2)
            if g.evaluate(pt) != 0}
    assert hits == {(1, 3), (3, 1)}


def test_degrees_match():
    for p, d in ((5, (1, 2)), (7, (1, 1, 3))):
        m = len(d)
        f = partition_polynomial(p, d)
        g = odd_residue_polynomial(p)
        assert f.total_degree() == g.total_degree() == 2 * m * m


def test_partition_grid_shape():
    grid = partition_grid(7, (1, 2, 3))
    assert grid.target_exponents == (4, 4, 4)
    for s, di in zip(grid.sets, (1, 2, 3)):
        assert 0 not in s and (-di) % 7 not in s
        assert len(s) == 5


def test_partition_polynomial_refuses_a_zero_difference():
    """A difference that is 0 mod p pairs nothing: refused, not summed."""
    for d in ((0, 1, 2), (3, 14, 2), (1, 2, -7)):
        bad = next(x for x in d if x % 7 == 0)
        for units in (True, False):
            with pytest.raises(ValueError, match=f"^difference {bad} is 0 mod 7"):
                partition_polynomial(7, d, units)
    assert integral_over_field(partition_polynomial(7, (3, 1, 2))) == 1


def test_partition_grid_refuses_a_zero_difference():
    for d in ((0, 1, 2), (3, 14, 2), (1, 2, -7)):
        bad = next(x for x in d if x % 7 == 0)
        with pytest.raises(ValueError, match=f"^difference {bad} is 0 mod 7"):
            partition_grid(7, d)
    assert [len(s) for s in partition_grid(7, (8, 1, 2)).sets] == [5, 5, 5]


def test_partition_polynomial_refuses_a_difference_that_is_not_an_int():
    """(1.5, 2, 3) once summed to the float 2.0 over F_7."""
    for bad in (1.5, 2.0, True, "3"):
        for units in (True, False):
            with pytest.raises(ValueError, match=f"^difference {bad!r} is not an int$"):
                partition_polynomial(7, (3, bad, 2), units)


def test_partition_grid_refuses_a_difference_that_is_not_an_int():
    """(1.5, 2, 3) once gave a first set of 6, banning 5.5, not in F_7."""
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match=f"^difference {bad!r} is not an int$"):
            partition_grid(7, (3, bad, 2))


def test_full_field_sums_agree():
    """Both pairing polynomials have the same nonzero full-field sum."""
    p, d = 5, (1, 2)
    sf = integral_over_field(partition_polynomial(p, d))
    sg = integral_over_field(odd_residue_polynomial(p))
    assert sf == sg
    # g is supported on (1,3) and (3,1), each evaluating to 3; 3 + 3 = 6 = 1
    assert sg == 1


def test_full_field_sums_at_p11_and_p13():
    """The two pairing polynomials have the same nonzero full-field sum at
    sizes (11^5 and 13^6 points) that a point-by-point sum made slow; the
    values are pinned from such a sum."""
    rng = random.Random(1013)
    for p, want in ((11, 10), (13, 1)):
        d = tuple(rng.randrange(1, p) for _ in range((p - 1) // 2))
        assert integral_over_field(odd_residue_polynomial(p)) == want
        assert integral_over_field(partition_polynomial(p, d)) == want, d


# ---------------------------------------------------------------------------
# The pruned walk of AffineProduct against a point-by-point reference.

def _value(f, point):
    """f at one point, factor by factor (term by term for a MultiPoly)."""
    if isinstance(f, MultiPoly):
        return _term_value(f, point)
    n = f.ring.n
    acc = 1
    for lin, const in f.factors:
        v = const
        for i, c in lin:
            v += c * point[i]
        acc *= v
        if n:
            acc %= n
        if acc == 0:
            break
    return acc


def _reference_points(f, sets):
    for point in itertools.product(*sets):
        value = _value(f, point)
        if value:
            yield point, value


def _reference_scaled(f, grid):
    """(N, D) of the interpolation sum, one point and one weight at a time."""
    n = f.ring.n
    sets, complements, denom = [], [], 1
    for given in grid.sets:
        s = tuple(a % n for a in given) if n else given
        if len(set(s)) != len(s):
            return None
        phi = [math.prod(a - b for b in s if b != a) for a in s]
        complements.append([math.prod(phi[:t] + phi[t + 1:])
                            for t in range(len(s))])
        denom *= math.prod(phi)
        sets.append(s)
    total = sum(_value(f, point) * math.prod(weights)
                for point, weights in zip(itertools.product(*sets),
                                          itertools.product(*complements)))
    return (total % n, denom % n) if n else (total, denom)


def _reference_witness(f, grid):
    n = f.ring.n
    for point in itertools.product(*grid.sets):
        point = tuple(a % n for a in point) if n else point
        if _value(f, point):
            return point
    return None


def _random_product(rng, ring, arity):
    factors = []
    for _ in range(rng.randrange(1, 7)):
        lin = tuple((i, rng.randrange(-4, 5)) for i in range(arity)
                    if rng.random() < 0.6)
        factors.append((lin, rng.randrange(-6, 7)))
    return AffineProduct(ring, arity, factors)


def _random_grid(rng, f, span):
    """Sets big enough for deg f, with elements past [0, n) so that some
    collapse mod n."""
    size = -(-f.total_degree() // max(f.arity, 1)) + 1
    return GridSpec(tuple(tuple(rng.sample(range(-span, 2 * span), size))
                          for _ in range(f.arity)))


def _agree(f, grid):
    sets = grid.sets
    assert list(f.nonzero_points(*sets)) == \
        list(_reference_points(f, sets))
    for point in itertools.islice(itertools.product(*sets), 1000):
        assert f.evaluate(point) == _value(f, point)
    assert cn_witness(f, grid) == _reference_witness(f, grid)
    want = _reference_scaled(f, grid)
    if want is None:                                # a set collapses mod n
        with pytest.raises(ValueError):
            cn_coefficient_scaled(f, grid)
        return
    assert cn_coefficient_scaled(f, grid) == want
    num, den = want
    n = f.ring.n
    if n and math.gcd(den, n) == 1:
        assert cn_coefficient(f, grid) == num * pow(den, -1, n) % n
    elif not n and den and num % den == 0:
        assert cn_coefficient(f, grid) == num // den
    else:
        with pytest.raises(NonInvertibleDenominator):
            cn_coefficient(f, grid)


@pytest.mark.parametrize("ring", [ZZ, ModRing(5), ModRing(7), ModRing(35)],
                         ids=repr)
def test_pruned_walk_matches_point_by_point(ring):
    rng = random.Random(ring.n or 0)
    span = ring.n or 7
    fixed = [
        AffineProduct(ring, 0, []),
        AffineProduct(ring, 0, [((), 3), ((), 4)]),
        AffineProduct(ring, 1, [((), 2)]),                 # no linear part
        AffineProduct(ring, 2, [(((0, 1),), 1), ((), 0),   # a zero factor
                                (((1, 1),), 2)]),
        AffineProduct(ring, 2, [(((0, 5),), 0), (((1, 7),), 0)]),
    ]
    randoms = [_random_product(rng, ring, arity)
               for arity in (0, 1, 1, 2, 2, 3, 3, 4) for _ in range(12)]
    for f in fixed + randoms:
        for _ in range(2):
            _agree(f, _random_grid(rng, f, span))
        if ring.n and ring.is_field:
            assert integral_over_field(f) == sum(
                v for _, v in _reference_points(
                    f, [range(ring.n)] * f.arity)) % ring.n


def _raw_value(n, factors, point):
    """The product of the factors as given, repeated variables and all."""
    return math.prod(const + sum(c * point[i] for i, c in lin)
                     for lin, const in factors) % n


@pytest.mark.parametrize("n", [12, 36])
def test_root_walk_with_non_unit_coefficients(n):
    """Top coefficients from all of Z/(n): a non-unit one has no root or
    a whole residue class mod n / gcd per prefix, and products of zero
    divisors vanish at points where no factor does."""
    ring = ModRing(n)
    rng = random.Random(n)
    fixed = [
        [(((0, 1), (1, 6), (0, n - 1)), 3)],           # x0 cancels
        [(((0, 4),), 0), (((1, 3),), 0)],               # 4x * 3y, 0 mod 12
        [(((0, 2),), 1), ((), 0), (((1, 5),), 2)],      # a zero factor
        [(((0, n // 2), (2, n // 3)), n // 6), (((1, 6), (2, 9)), 3),
         (((0, 1), (1, 1)), 0)],
    ]
    randoms = []
    for _ in range(60):
        arity = rng.randrange(1, 4)
        randoms.append(
            [([(rng.randrange(arity), rng.randrange(n))
               for _ in range(rng.randrange(4))], rng.randrange(-n, 2 * n))
             for _ in range(rng.randrange(1, 6))])
    for factors in fixed + randoms:
        arity = 1 + max((i for lin, _ in factors for i, _ in lin), default=0)
        f = AffineProduct(ring, arity, factors)
        for _ in range(2):
            grid = _random_grid(rng, f, n)      # elements past [0, n)
            _agree(f, grid)
            for point in itertools.islice(itertools.product(*grid.sets), 200):
                assert f.evaluate(point) == _raw_value(n, factors, point)
    # a top coefficient with gcd 2^39: one residue class mod 2, at once
    big = AffineProduct(ModRing(2 ** 40), 1, [(((0, 2 ** 39),), 2 ** 39)])
    assert [big.evaluate((x,)) for x in (1, 2, -3, 4)] == [0, 2 ** 39, 0, 2 ** 39]


@pytest.mark.parametrize("n", [12, 36])
def test_walk_past_prefixes_that_zero_divisors_make_0(n):
    """Coefficients and constants that share a divisor with n, so that a
    prefix's factors often multiply to 0 mod n though none of them is 0:
    the walk yields what point-by-point evaluate and a factor-by-factor
    product give."""
    ring = ModRing(n)
    rng = random.Random(3 * n)
    divisors = [g for g in range(2, n) if n % g == 0]
    for _ in range(40):
        arity = rng.randrange(1, 4)
        factors = []
        for _ in range(rng.randrange(1, 6)):
            g = rng.choice(divisors)
            factors.append((tuple((i, g * rng.randrange(1, n))
                                  for i in range(arity) if rng.random() < 0.6),
                            g * rng.randrange(n)))
        f = AffineProduct(ring, arity, factors)
        sets = [rng.sample(range(-n, 2 * n), rng.randrange(1, 9))
                for _ in range(arity)]
        want = [(point, f.evaluate(point))
                for point in itertools.product(*sets) if f.evaluate(point)]
        assert list(f.nonzero_points(*sets)) == want
        assert want == list(_reference_points(f, sets))


def test_walk_visits_no_point_below_a_prefix_that_is_0():
    """Over Z/(36), (6 x0 + 6)(6 x1 + 6) is 0 at every x0 and x1, though
    neither factor is 0 once its roots are struck: no x2 is reached."""
    class Counted(int):
        products = 0

        def __rmul__(self, other):
            Counted.products += 1
            return int(other) * int(self)

    f = AffineProduct(ModRing(36), 3, [(((0, 6),), 6), (((1, 6),), 6),
                                       (((2, 1),), 1)])
    last = [Counted(x) for x in range(36)]
    assert list(f.nonzero_points(range(36), range(36), last)) == []
    assert Counted.products == 0


def test_pruned_walk_on_pairing_polynomials():
    rng = random.Random(11)
    for p in (5, 7, 11):
        m = (p - 1) // 2
        d = tuple(rng.randrange(1, p) for _ in range(m))
        f = partition_polynomial(p, d, include_nonzero_factors=False)
        _agree(f, partition_grid(p, d))
        full = partition_polynomial(p, d)
        assert integral_over_field(full) == sum(
            v for _, v in _reference_points(full, [range(p)] * m)) % p
        if p < 11:
            _agree(full, GridSpec((tuple(range(p)),) * m))


def _walks_agree(f, sets):
    assert list(f.nonzero_points(*sets)) == list(_reference_points(f, sets))


@pytest.mark.parametrize("n", [12, 36])
def test_root_masks_where_rest_values_recur(n):
    """Non-unit top coefficients c, g = gcd(c, n), under a rest that comes
    back from other prefixes as s, s +- n/g, s +- n and -s: the roots
    cached for one rest value mod n are those of every prefix with that
    value, and of no other."""
    ring = ModRing(n)
    for c in (c for c in range(2, n) if math.gcd(c, n) > 1):
        g = math.gcd(c, n)
        step = n // g
        for s in (1, step - 1, 5):
            firsts = [s, s + step, s - step, s + n, s - n, -s, s + 2 * step - n, 0]
            factors = [(((0, 1), (1, c)), e) for e in (0, g, 1, n - g, step)]
            factors += [(((1, 1),), 1), (((0, 2), (1, 1), (2, c)), 3)]
            f = AffineProduct(ring, 3, factors)
            _walks_agree(f, [firsts, range(2 * n - 1, -n, -7), (7, -1, 2 * n, 3, n // 2)])


def test_root_masks_over_zz_with_a_rest_over_two_variables():
    """Over ZZ the rest x0 - 2 x1 takes each value from several prefixes."""
    f = AffineProduct(ZZ, 3, [(((0, 1), (1, -2), (2, 3)), e) for e in (0, 3, -6, 1)]
                      + [(((2, -2),), 4), (((0, 1), (1, 1)), 0), (((1, 3),), -3)])
    _walks_agree(f, [(3, -1, 1, 5, 7), (2, 0, -1, 4, 1, 3),
                     tuple(range(6, -7, -1)) + (0, 2)])


def test_root_masks_keep_each_position():
    """A set that lists an element twice, or lists elements out of order
    and past [0, n), is walked position by position, as given."""
    rng = random.Random(36)
    for n in (7, 12, 36):
        f = AffineProduct(ModRing(n), 2, [(((0, 1), (1, 1)), e) for e in (0, 2)]
                          + [(((0, 3), (1, 2)), 1), (((1, n // 2 or 1),), 1)])
        twice = [(3, 5, 3, 1), (2, n + 2, 4, 2, -1)]
        unsorted = [rng.sample(range(-n, 2 * n), 6), rng.sample(range(-n, 2 * n), 9)]
        for sets in (twice, unsorted):
            _walks_agree(f, sets)


def test_root_masks_last_one_walk():
    """One product walked over different sets in turn: a mask found for
    one walk means nothing for the next."""
    f = partition_polynomial(7, (3, 2, 4), False)
    g = AffineProduct(ModRing(12), 2, [(((0, 1), (1, 4)), 0), (((0, 5), (1, 6)), 6)])
    for h, first, second in (
            (f, [range(7)] * 3, [(6, 5, 4, 3, 2, 1, 0, 7), (13, 1, -2, 3, 3), (-7, 12, 4, 0, 2)]),
            (g, [range(12)] * 2, [range(11, -13, -1), (9, 1, 5, 21, 3, 0, 2)])):
        for sets in (first, second, first):
            _walks_agree(h, sets)


def test_root_walk_on_sets_of_more_than_64():
    """More than 64 points left at a prefix: they are read off in one
    pass over the set instead of one bit at a time."""
    rng = random.Random(101)
    for ring in (ModRing(101), ModRing(100), ZZ):
        f = AffineProduct(ring, 2, [(((0, 1), (1, 3)), e) for e in (0, 5)]
                          + [(((1, 10),), 20), (((0, 2),), 7)])
        _walks_agree(f, [rng.sample(range(-101, 202), 5),
                         rng.sample(range(-101, 202), 150) + [4, 4, -2]])


# ---------------------------------------------------------------------------
# The prefix fold of MultiPoly against a term-by-term reference.

def _term_value(f, point):
    """f at one point, term by term."""
    n = f.ring.n
    total = sum(c * math.prod(x ** k for x, k in zip(point, e))
                for e, c in f.terms.items())
    return total % n if n else total


@pytest.mark.parametrize("ring", [ZZ, ModRing(5), ModRing(35)], ids=repr)
def test_prefix_fold_matches_term_by_term(ring):
    """Points, values, evaluate, witness and the grid sums of a MultiPoly
    agree with term-by-term evaluation, on sets given unsorted, with
    negatives and elements past [0, n)."""
    rng = random.Random(ring.n or 0)
    span = ring.n or 7

    # (7 x0 + 14)(x1 + 1)(x2 + x3): every coefficient is 0 once x0 = 3
    # mod 5 (Z/(35), Z/(5)) or -2 (ZZ), or x1 = -1 mod n
    vanishing = (MultiPoly(ring, 4, [((1, 0, 0, 0), 7), ((0, 0, 0, 0), 14)])
                 * MultiPoly(ring, 4, [((0, 1, 0, 0), 1), ((0, 0, 0, 0), 1)])
                 * MultiPoly(ring, 4, [((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)]))
    fixed = [MultiPoly(ring, arity) for arity in range(5)] + [
        MultiPoly(ring, 0, [((), 3)]),
        MultiPoly(ring, 2, [((1, 0), 1), ((0, 1), -1)]),
        vanishing,
    ]
    randoms = []
    for arity in (0, 1, 1, 2, 2, 3, 3, 4, 4):
        for _ in range(10):
            terms = [(tuple(rng.randrange(4) for _ in range(arity)),
                      rng.randrange(-9, 10)) for _ in range(rng.randrange(1, 7))]
            randoms.append(MultiPoly(ring, arity, terms))
    for f in fixed + randoms:
        for _ in range(2):
            _agree(f, _random_grid(rng, f, span))
        if ring.n == 5:
            assert integral_over_field(f) == sum(
                v for _, v in _reference_points(f, [range(5)] * f.arity)) % 5
        if f.arity:
            sets = [(2, -1, 9)] * f.arity
            for k in range(f.arity):
                assert list(f.nonzero_points(*sets[:k], (), *sets[k + 1:])) == []
            with pytest.raises(ArityMismatch):
                list(f.nonzero_points(*sets[1:]))
        with pytest.raises(ArityMismatch):
            list(f.nonzero_points(*[(0,)] * (f.arity + 1)))
        with pytest.raises(ArityMismatch):
            f.evaluate((0,) * (f.arity + 1))
    _agree(vanishing, GridSpec(((3, -2, 8, 1, 33), (4, -1, 2, 34), (0, 1, 2),
                                (6, -7))))


def test_fold_visits_no_point_below_a_prefix_that_is_0():
    """Over Z/(35), 7 x0 x1 x2 folds to 0 at every x0 = 0 mod 5: no x1
    or x2 power is taken below it."""
    class Counted(int):
        powers = 0

        def __pow__(self, e, n=None):
            Counted.powers += 1
            return pow(int(self), e, n)

    f = MultiPoly(ModRing(35), 3, [((1, 1, 1), 7)])
    rest = [Counted(x) for x in range(35)]
    assert list(f.nonzero_points(range(0, 70, 5), rest, rest)) == []
    assert Counted.powers == 0
    assert len(list(f.nonzero_points((1,), rest, (Counted(1),)))) == 28
    assert Counted.powers == 35 + 28
