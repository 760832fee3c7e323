"""Equal-constant-term checks for the product of scaled differences."""

import math
import random

import pytest

from pairpack.algebra import ZZ, multinomial
from pairpack.dyson import (DysonInstance, dyson_bruteforce, dyson_formula,
                            dyson_via_evaluation, packing_coefficient)
from pairpack.nullstellensatz import GridSpec, cn_coefficient
from pairpack.poly import BudgetExceeded, MultiPoly, _difference_power


def test_instance_validation():
    with pytest.raises(ValueError):
        DysonInstance(())
    with pytest.raises(ValueError):
        DysonInstance((1, 0))
    inst = DysonInstance((2, 1, 3))
    assert inst.total == 6


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


def test_packing_coefficient_against_expansion():
    """Read the same coefficient straight out of prod (x_i - x_j)^(2d)."""
    for m, d in ((2, 1), (2, 2), (3, 1)):
        f = MultiPoly.one(ZZ, m)
        for i in range(m):
            for j in range(i + 1, m):
                f = f * _difference_power(ZZ, m, i, j, 2 * d)
        target = ((m - 1) * d,) * m
        assert f.coefficient(target) == packing_coefficient(m, d)


def test_packing_coefficient_against_grid_sum():
    # independent cross-check through the interpolation route
    m, d = 2, 2
    f = _difference_power(ZZ, 2, 0, 1, 4)
    grid = GridSpec((tuple(range((m - 1) * d + 1)),) * m)
    assert cn_coefficient(f, grid) == packing_coefficient(m, d)
