"""Ring handles, vector helpers and cyclotomic integers."""

import math
import random

import pytest

from pairpack.algebra import (ZZ, CycloInt, DimensionMismatch, ModRing,
                              OrderMismatch, cyclotomic_poly, is_basis,
                              is_prime, poly_divmod_monic, rank_mod_p,
                              vec_add, vec_sub)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_prime_is_miller_rabin_below_its_limit():
    """Every n up to 10^5 against a sieve (uncached, so the memo does not
    keep them all), strong pseudoprimes to the first few prime bases, two
    large primes, and a ValueError past 3.3 * 10^24 instead of a hang."""
    limit = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit + 1, k)))
    assert [is_prime.__wrapped__(k) for k in range(limit + 1)] == \
        [bool(x) for x in sieve]
    for composite in (561, 2047, 1373653, 25326001, 3215031751,
                      2152302898747, 3474749660383, 341550071728321,
                      3825123056546413051):
        assert not is_prime(composite), composite
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    assert ModRing(10 ** 18 + 3).is_field
    # the limit itself is a strong pseudoprime to all 13 bases
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too big"):
            is_prime(n)


def test_modring_basics():
    R = ModRing(7)
    assert R.n == 7
    assert R.is_field
    assert ModRing(9).is_field is False
    assert ModRing(7) == ModRing(7)
    assert ModRing(7) != ModRing(5)
    assert len({ModRing(7), ModRing(7), ModRing(5)}) == 2
    assert repr(R) == "ModRing(7)"
    for bad in (1, 0, -3, 7.0):
        with pytest.raises(ValueError):
            ModRing(bad)


def test_integer_ring():
    assert ZZ.n is None
    assert ZZ.is_field is False
    assert ZZ == ZZ
    assert ZZ != ModRing(7) and ModRing(7) != ZZ
    assert repr(ZZ) == "ZZ"


def test_vec_ops():
    assert vec_add((1, 2), (2, 2), 3) == (0, 1)
    assert vec_sub((0, 1), (2, 2), 3) == (1, 2)
    with pytest.raises(DimensionMismatch):
        vec_add((1,), (1, 2), 3)


def test_rank_and_basis():
    assert rank_mod_p(((1, 0), (0, 1)), 3) == 2
    assert rank_mod_p(((1, 2), (2, 4)), 5) == 1
    assert rank_mod_p(((1, 2), (2, 4)), 3) == 1
    assert is_basis(((1, 0), (0, 1)), 3, 2)
    assert is_basis(((1, 1), (1, 2)), 3, 2)
    assert not is_basis(((1, 1), (2, 2)), 3, 2)
    assert not is_basis(((1, 0),), 3, 2)
    # (1,2) and (2,4) are dependent mod 3 and mod 5 alike
    assert not is_basis(((1, 2), (2, 4)), 5, 2)


def test_cyclotomic_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    for p in (3, 5, 7, 11):
        assert cyclotomic_poly(p) == (1,) * p


def test_cyclotomic_degree_and_product():
    import math

    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == phi(n)
        # x^n - 1 = prod_{d | n} Phi_d: dividing by every factor leaves 1
        rest = [-1] + [0] * (n - 1) + [1]
        for d in range(n, 0, -1):
            if n % d == 0:
                rest, rem = poly_divmod_monic(rest, cyclotomic_poly(d))
                assert rem == []
        assert rest == [1]


def test_cyclotomic_value_at_one():
    # prime powers give p, everything else (n > 1) gives 1
    assert sum(cyclotomic_poly(9)) == 3
    assert sum(cyclotomic_poly(8)) == 2
    assert sum(cyclotomic_poly(25)) == 5
    for n in (6, 10, 12, 15, 24):
        assert sum(cyclotomic_poly(n)) == 1


def test_cycloint_construction_folds():
    z = CycloInt(5, (1, 2, 0, 0, 0, 3))     # exponent 5 wraps to 0
    assert z.coeffs == (4, 2, 0, 0, 0)
    assert CycloInt.from_int(5, 7).coeffs == (7, 0, 0, 0, 0)
    assert CycloInt.root_power(5, 7).coeffs == (0, 0, 1, 0, 0)


def test_cycloint_arithmetic():
    w = CycloInt.root_power(7, 1)
    assert math.prod([w] * 7).coeffs == CycloInt.from_int(7, 1).coeffs
    assert ((w + 1) * (w - 1) - (w * w - 1)).is_zero()
    assert (3 * w - w - w - w).is_zero()
    assert (2 - w).coeffs == (2, -1, 0, 0, 0, 0, 0)
    with pytest.raises(OrderMismatch):
        CycloInt.root_power(5, 1) + CycloInt.root_power(7, 1)


def test_cycloint_zero_detection():
    # the full sum of n-th roots vanishes for prime n
    for n in (3, 5, 7, 11):
        s = CycloInt(n, (1,) * n)
        assert s.is_zero()
        assert not CycloInt(n, (1,) * (n - 1)).is_zero()
    # the cyclotomic polynomial itself evaluates to zero at w
    for n in (4, 6, 9, 12):
        assert CycloInt(n, cyclotomic_poly(n)).is_zero()
    assert not CycloInt.root_power(9, 3).is_zero()
    assert CycloInt(1, (0,)).is_zero()
    assert not CycloInt(1, (2,)).is_zero()


def test_cycloint_equality_is_semantic():
    # 1 + w + w^2 + w^3 + w^4 == 0 in Z[w] for a primitive 5th root
    assert CycloInt(5, (1, 1, 1, 1, 1)) == CycloInt(5, (0, 0, 0, 0, 0))
    assert CycloInt(5, (1, 1, 1, 1, 1)) == 0
    assert CycloInt(6, (1, 0, 0, 0, 0, 0)) == 1
    # w^3 = -1 for a 6th root: w^3 + 1 == 0
    assert CycloInt.root_power(6, 3) == CycloInt.from_int(6, -1)
    assert CycloInt.root_power(8, 1) != CycloInt.root_power(8, 3)


def test_cycloint_eval_at_one():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 13)
        coeffs = [rng.randrange(-5, 6) for _ in range(2 * n)]
        z = CycloInt(n, coeffs)
        assert z.eval_at_one() == sum(coeffs)


def test_cycloint_mul_matches_convolution():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 10)
        a = [rng.randrange(-4, 5) for _ in range(n)]
        b = [rng.randrange(-4, 5) for _ in range(n)]
        prod = CycloInt(n, a) * CycloInt(n, b)
        expect = [0] * n
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                expect[(i + j) % n] += ai * bj
        assert prod.coeffs == tuple(expect)


# ---------------------------------------------------------------------------
# the one integer rule at every public entry point

def _entry_points():
    """(id, call of one bad value x, the error its module raises)."""
    from pairpack import conjectures, dyson, nullstellensatz, poly, solvers, sumsets
    bad = solvers.InvalidInstance
    basis = (((1,),),)
    return [
        ("cycloint.n", lambda x: CycloInt(x), ValueError),
        ("cycloint.coeffs", lambda x: CycloInt(5, (x, 2)), ValueError),
        ("cyclotomic.n", lambda x: cyclotomic_poly(x), ValueError),
        ("partition.n", lambda x: solvers.PartitionInstance(x, (1, 2)), bad),
        # x = 1.5: PartitionInstance(5, (1.5, 2)) used to be solved as d = (1, 2)
        ("partition.d", lambda x: solvers.PartitionInstance(5, (x, 2)), bad),
        ("vector.p", lambda x: solvers.VectorPartitionInstance(x, 1, basis), bad),
        ("vector.k", lambda x: solvers.VectorPartitionInstance(3, x, basis), bad),
        ("vector.bases", lambda x: solvers.VectorPartitionInstance(
            3, 1, (((x,),),)), bad),
        ("packing.n", lambda x: solvers.PackingInstance(
            x, ((0,),), ((0,),), 1), bad),
        ("packing.X", lambda x: solvers.PackingInstance(
            7, ((0, x),), ((0,),), 1), bad),
        ("packing.T", lambda x: solvers.PackingInstance(
            7, ((0,),), ((x,),), 1), bad),
        ("packing.d", lambda x: solvers.PackingInstance(
            7, ((0,),), ((0,),), x), bad),
        ("grid", lambda x: nullstellensatz.GridSpec(((0, x),)), ValueError),
        ("multipoly.arity", lambda x: poly.MultiPoly(ZZ, x), ValueError),
        ("multipoly.e", lambda x: poly.MultiPoly(ZZ, 1, [((x,), 1)]),
         ValueError),
        ("multipoly.c", lambda x: poly.MultiPoly(ModRing(7), 1, [((1,), x)]),
         ValueError),
        ("affine.arity", lambda x: poly.AffineProduct(ZZ, x, []), ValueError),
        ("affine.var", lambda x: poly.AffineProduct(
            ZZ, 1, [(((x, 1),), 0)]), ValueError),
        ("affine.coeff", lambda x: poly.AffineProduct(
            ModRing(7), 1, [(((0, x),), 0)]), ValueError),
        ("affine.const", lambda x: poly.AffineProduct(
            ZZ, 1, [(((0, 1),), x)]), ValueError),
        ("pair.p", lambda x: sumsets.check_pair(x, 1, [1], [1]), ValueError),
        ("pair.alpha", lambda x: sumsets.check_pair(5, x, [1], [1]),
         ValueError),
        ("pair.A", lambda x: sumsets.check_pair(5, 1, [x], [1]), ValueError),
        ("pair.B", lambda x: sumsets.check_pair(5, 1, [1], [0, x]),
         ValueError),
        ("roots.p", lambda x: sumsets.coefficient_divisibility_check(
            x, 1, (0,)), ValueError),
        ("roots.alpha", lambda x: sumsets.coefficient_divisibility_check(
            3, x, (0,)), ValueError),
        ("roots.e", lambda x: sumsets.coefficient_divisibility_check(
            3, 1, (0, x)), ValueError),
        ("sweep.p", lambda x: sumsets.verify_cd_bound(x, 2), ValueError),
        ("sweep.alpha", lambda x: sumsets.verify_cd_bound(2, x), ValueError),
        ("sweep.sample", lambda x: sumsets.verify_cd_bound(
            2, 2, sample=x, seed=1), ValueError),
        ("sweep.tight_cap", lambda x: sumsets.verify_cd_bound(
            2, 2, tight_cap=x), ValueError),
        ("sweep.seed", lambda x: sumsets.verify_cd_bound(
            2, 2, sample=1, seed=x), ValueError),
        ("scan.n", lambda x: conjectures.scan_conjecture(x), bad),
        ("scan.seed", lambda x: conjectures.scan_conjecture(
            7, sample=1, seed=x), bad),
        ("scan.sample", lambda x: conjectures.scan_conjecture(
            7, sample=x, seed=1), bad),
        ("perm.n", lambda x: conjectures.permanent_coefficient(x, (1,)), bad),
        ("perm.d", lambda x: conjectures.permanent2_coefficient(5, (x, 1)),
         bad),
        ("cert.p", lambda x: conjectures.prime_nonzero_certificate(x, (1,)),
         bad),
        ("cert.d", lambda x: conjectures.prime_nonzero_certificate(
            5, (1, x)), bad),
        ("dyson.a", lambda x: dyson.DysonInstance((2, x)), ValueError),
        ("dyson.max_degree", lambda x: dyson.dyson_bruteforce((2, 2), x),
         ValueError),
        ("pairing.d", lambda x: nullstellensatz.partition_polynomial(
            7, (3, x, 2)), ValueError),
        ("grid.p", lambda x: nullstellensatz.partition_grid(x, (1,)),
         ValueError),
        ("grid.d", lambda x: nullstellensatz.partition_grid(7, (3, x)),
         ValueError),
    ]


@pytest.mark.parametrize("x", [1.5, 2.0, True, "3"])
@pytest.mark.parametrize("call, error", [
    pytest.param(call, error, id=name) for name, call, error in _entry_points()])
def test_every_integer_argument_refuses_what_is_not_an_int(call, error, x):
    """A float, a bool or a str in an integer argument raises one error
    naming it: never converted (1.5 read as 1, True as 1) and never a bare
    TypeError from deeper down."""
    with pytest.raises(ValueError) as exc:
        call(x)
    assert type(exc.value) is error
    assert f"{x!r} is not an int" in str(exc.value)
