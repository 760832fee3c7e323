"""Coefficient extraction by grid interpolation, and full-field sums.

For a polynomial f of total degree at most c_1 + ... + c_n and finite grids
A_1, ..., A_n with |A_i| = c_i + 1, the coefficient of x_1^c_1 ... x_n^c_n
equals

    sum over (a_1 .. a_n) in A_1 x ... x A_n of
        f(a_1 .. a_n) / (phi_1'(a_1) ... phi_n'(a_n)),

where phi_i(x) = prod_{b in A_i} (x - b).  The sum is always taken in
cleared-denominator form, N = C * D with D the product of every phi_i'(a),
and divided by D once at the end: exactly over the integers, by an inverse
mod n over Z/(n).  Over a field D is invertible because grid elements are
distinct.
A nonzero coefficient forces a grid point where f itself is nonzero, which
is what the witness search exhumes.

Every grid routine here reads f only through ``f.nonzero_points``, which
lists the points of a product of sets where f is nonzero, in
lexicographic order; one reader checks a grid's arity and reduces its
sets mod n.  Both polynomial types walk the grid by prefixes.  For a
MultiPoly, each prefix groups its terms by exponent tail once and folds
every group into a polynomial in the coordinates still free, the last
coordinate being one more fold; a prefix whose fold has no nonzero
coefficient (mod n) skips every point below it.  For an AffineProduct the
walk is by roots: each factor strikes its zeros from the next
coordinate's set, through a bit mask over the set's positions cached for
the walk per linear part and value of the factor's other terms mod n, and
values are taken only at the points left, where a product of zero
divisors that is 0 is dropped.  For the pairing polynomials nearly every
prefix in F_p^m has no next coordinate left after two or three, as two
pairs collide.

Also here: the helpers specific to pairing the nonzero residues of a prime
field with prescribed differences, built as unexpanded affine products.
"""

from __future__ import annotations

import math

from .algebra import ModRing, Value, checked_int, int_entries
from .poly import AffineProduct, ArityMismatch


class DegreeTooHigh(ValueError):
    """deg f exceeds the sum of the grid degrees c_i."""


class NonInvertibleDenominator(ArithmeticError):
    """The cleared denominator is not invertible in the coefficient ring."""


class GridSpec(Value):
    """Evaluation grid A_1 x ... x A_n; set sizes fix the target exponents
    c_i = |A_i| - 1."""

    __slots__ = ("sets",)

    def __init__(self, sets):
        norm = tuple(int_entries(s, "grid element") for s in sets)
        for s in norm:
            if not s:
                raise ValueError("grid sets must be nonempty")
            if len(set(s)) != len(s):
                raise ValueError(f"grid set {s} has repeated elements")
        object.__setattr__(self, "sets", norm)

    @property
    def arity(self) -> int:
        return len(self.sets)

    @property
    def target_exponents(self) -> tuple[int, ...]:
        return tuple(len(s) - 1 for s in self.sets)


def _grid_sets(f, grid: GridSpec) -> list:
    """grid's sets as f's walk reads them, each reduced mod n; raises
    ArityMismatch unless the grid has f's arity."""
    if grid.arity != f.arity:
        raise ArityMismatch(f"grid arity {grid.arity} vs polynomial {f.arity}")
    n = f.ring.n
    return [tuple(a % n for a in s) if n else s for s in grid.sets]


def integral_over_field(f) -> int:
    """Sum of f over all points of F_p^m, reduced mod p.

    f may be a MultiPoly or an AffineProduct; its ring must be a prime
    residue ring.  Only the points where f is nonzero are summed.
    """
    ring = f.ring
    if not isinstance(ring, ModRing) or not ring.is_field:
        raise ValueError("full-field sums need a prime residue ring")
    p = ring.n
    values = f.nonzero_points(*[range(p)] * f.arity)
    return sum(value for _, value in values) % p


def cn_coefficient_scaled(f, grid: GridSpec):
    """The cleared-denominator interpolation sum.

    Returns (N, D) with N = C * D, where C is the coefficient of
    x_1^c_1 ... x_n^c_n in f and D is the product of all phi_i'(a) over
    every axis i and every a in A_i.  Works over ZZ and over every residue
    ring, where N and D come reduced mod n; no division is performed.
    Distinctness within each A_i is re-checked mod n, since reducing can
    collapse elements.  The sum runs over the points where f is nonzero,
    each value times the complement weight of each of its coordinates,
    looked up in one table per axis.
    """
    sets, n = _grid_sets(f, grid), f.ring.n
    limit = sum(grid.target_exponents)
    if (deg := f.total_degree()) > limit:
        raise DegreeTooHigh(f"deg {deg} > sum of grid degrees {limit}")
    weights, denom = [], 1
    for given, s in zip(grid.sets, sets):
        if len(set(s)) != len(s):
            raise ValueError(f"grid set {given} collapses in {f.ring!r}")
        phi = [math.prod(a - b for b in s if b != a) for a in s]
        # the product of phi_i' over A_i without its t-th factor, per t
        whole = math.prod(phi)
        comp = [whole // c for c in phi]
        denom *= whole
        if n:
            comp = [c % n for c in comp]
            denom %= n
        weights.append(dict(zip(s, comp)))
    total = 0
    for point, v in f.nonzero_points(*sets):
        for w, a in zip(weights, point):
            v *= w[a]
        total += v % n if n else v
    return (total % n if n else total), denom


def cn_coefficient(f, grid: GridSpec):
    """The coefficient of x_1^c_1 ... x_n^c_n in f, via the grid sum.

    The cleared-denominator sum N = C * D is divided at the end: exactly
    over the integers, and as N * D^-1 mod n over a residue ring.  When
    that division is not uniquely possible (D does not divide N, or
    gcd(D, n) > 1), NonInvertibleDenominator is raised.
    """
    num, den = cn_coefficient_scaled(f, grid)
    n = f.ring.n
    if n:
        if math.gcd(den, n) != 1:
            raise NonInvertibleDenominator(
                f"denominator {den} is not invertible mod {n}")
        return num * pow(den, -1, n) % n
    if den == 0 or num % den:
        raise NonInvertibleDenominator(
            f"{num} is not an exact multiple of {den}")
    return num // den


def cn_witness(f, grid: GridSpec):
    """First grid point (lexicographic over the sets as given, each
    reduced mod n) where f is nonzero, or None when f vanishes on the
    whole grid.  The walk stops at that point."""
    for point, _ in f.nonzero_points(*_grid_sets(f, grid)):
        return point
    return None


# ---------------------------------------------------------------------------
# The prescribed-difference pairing polynomials over F_p.

def partition_polynomial(p: int, d, include_nonzero_factors: bool = True) -> AffineProduct:
    """Affine product that is nonzero at (c_1 .. c_m) exactly when the pairs
    {c_i, c_i + d_i} are disjoint (and, with the optional unit factors, also
    avoid zero), i.e. when they partition the nonzero residues.

    Factors: optionally x_i and x_i + d_i for each i, and for i < j the four
    differences (x_i - x_j), (x_i + d_i - x_j), (x_i - x_j - d_j),
    (x_i + d_i - x_j - d_j).
    """
    ring, d, factors = ModRing(p), _reduced_differences(p, d), []
    m = len(d)
    if include_nonzero_factors:
        for i in range(m):
            factors.append((((i, 1),), 0))
            factors.append((((i, 1),), d[i]))
    for i in range(m):
        for j in range(i + 1, m):
            pair = ((i, 1), (j, -1))
            factors.append((pair, 0))
            factors.append((pair, d[i]))
            factors.append((pair, -d[j]))
            factors.append((pair, d[i] - d[j]))
    return AffineProduct(ring, m, factors)


def odd_residue_polynomial(p: int) -> AffineProduct:
    """The pairing polynomial at d = (1, ..., 1), m = (p-1)/2: nonzero at
    (c_1 .. c_m) exactly when the pairs {c_i, c_i + 1} partition the
    nonzero residues, i.e. when the coordinates are the odd residues
    1, 3, ..., p-2 in some order.

    Same top-degree homogeneous part as the pairing polynomial for any d,
    which is what makes the two full-field sums match.
    """
    return partition_polynomial(p, (1,) * ((p - 1) // 2))


def partition_grid(p: int, d) -> GridSpec:
    """Grids A_i = F_p^* minus {-d_i}, matching the pairing polynomial
    without its unit factors (each c_i = p - 3)."""
    return GridSpec(tuple(tuple(a for a in range(1, p) if a != p - di)
                          for di in _reduced_differences(p, d)))


def _reduced_differences(p: int, d) -> list[int]:
    """Each difference mod p.  Raises ValueError for one that is not an
    int (algebra.int_entries) or is 0 mod p, which pairs nothing."""
    checked_int(p, "p", 2)
    for x in int_entries(d, "difference"):
        if not x % p:
            raise ValueError(f"difference {x} is 0 mod {p}: it pairs nothing")
    return [x % p for x in d]
