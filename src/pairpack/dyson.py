"""The constant term of prod_{i != j} (1 - x_i/x_j)^{a_i}, three ways.

Equivalently: the coefficient of prod x_i^(a - a_i), a = sum a_i, in

    f = prod_{i < j} (-1)^{a_j} (x_j - x_i)^{a_i + a_j}.

The closed form is the multinomial a! / (a_1! ... a_n!), computed by
algebra.multinomial: the packing coefficient (md)! / (d!)^m is its value
at a = (d, ..., d), and a scan weighs each sorted difference multiset by
the multinomial of its multiplicities.
The brute-force route multiplies f out one factor at a time; as a factor
adds 0 up to its degree to each exponent, dropping each term past the
target, or too far short of it, is exact.  It shares nothing with the other
two routes and serves as the independent oracle.
The evaluation route reproduces the constant through grid interpolation
with consecutive-segment grids, where the sum collapses to a single point
with factorial closed forms.
"""

from __future__ import annotations

import math

from . import poly
from .algebra import Value, checked_int, int_entries, multinomial
from .poly import BudgetExceeded

DEFAULT_DEGREE_BUDGET = 24


class DysonInstance(Value):
    """A vector of positive integer exponents a_1 .. a_n."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = int_entries(a, "exponent")
        if not a:
            raise ValueError("need at least one exponent")
        if any(x < 1 for x in a):
            raise ValueError("exponents must be positive")
        object.__setattr__(self, "a", a)

    @property
    def total(self) -> int:
        return sum(self.a)


def _as_instance(inst) -> DysonInstance:
    return inst if isinstance(inst, DysonInstance) else DysonInstance(inst)


def dyson_formula(inst) -> int:
    """The multinomial closed form a! / (a_1! ... a_n!)."""
    return multinomial(_as_instance(inst).a)


def dyson_bruteforce(inst, max_degree: int = DEFAULT_DEGREE_BUDGET) -> int:
    """Expand f within the target and extract the target coefficient.

    Each factor (-1)^{a_j} (x_j - x_i)^{a_i + a_j} of f is
    (-1)^{a_i} (x_i - x_j)^{a_i + a_j}, so f is (-1)^(sum_i a_i * (n-1-i))
    times prod_{i<j} (x_i - x_j)^{a_i + a_j}, multiplied out here one
    factor at a time.  A factor adds between 0 and its degree to each
    exponent, so a term past the target in some x_k, or short of it by more
    than the factors left hold in x_k, never reaches it: not forming it is
    exact.  The degree sum_{i<j} (a_i + a_j) is capped by max_degree and
    the kept terms by poly's DEFAULT_TERM_BUDGET: BudgetExceeded past either.
    """
    inst = _as_instance(inst)
    a = inst.a
    n = len(a)
    total_degree = (n - 1) * inst.total
    if total_degree > checked_int(max_degree, "max_degree"):
        raise BudgetExceeded(
            f"expansion degree {total_degree} exceeds budget {max_degree}")
    target = tuple(inst.total - x for x in a)
    room = [(n - 2) * x + inst.total for x in a]   # degree in x_k to come
    terms = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            e = a[i] + a[j]
            room[i] -= e
            room[j] -= e
            row = [(-1) ** t * math.comb(e, t) for t in range(e + 1)]
            kept: dict = {}
            for exps, c in terms.items():
                gap_i, gap_j = target[i] - exps[i], target[j] - exps[j]
                for t in range(max(0, e - gap_i, gap_j - room[j]),
                               min(e, gap_j, e + room[i] - gap_i) + 1):
                    key = list(exps)
                    key[i] += e - t
                    key[j] += t
                    key = tuple(key)
                    kept[key] = kept.get(key, 0) + c * row[t]
            terms = {k: c for k, c in kept.items() if c}
            if len(terms) > poly.DEFAULT_TERM_BUDGET:
                raise BudgetExceeded(
                    f"expansion passed {poly.DEFAULT_TERM_BUDGET} terms")
    sign = (-1) ** sum(x * (n - 1 - i) for i, x in enumerate(a))
    return sign * terms.get(target, 0)


def dyson_via_evaluation(inst) -> int:
    """The constant via the collapsed interpolation sum.

    With grids {0, 1, ..., a - a_i} and the shifted pair factors
    prod_s (x_j - x_i + s), s = -a_i+1 .. a_j, the only nonvanishing grid
    point is x_i = a_1 + ... + a_{i-1}, where both the factors and the
    derivative products have factorial closed forms:

        pair (i, j):   (a_i + ... + a_j)! / (a_{i+1} + ... + a_{j-1})!
        axis i:        (-1)^(a_{i+1}+...+a_n) * (a_1+...+a_{i-1})! * (a_{i+1}+...+a_n)!

    The signed quotient of the two products is exact.
    """
    inst = _as_instance(inst)
    a = inst.a
    n = len(a)
    prefix = [0] * (n + 1)
    for i, x in enumerate(a):
        prefix[i + 1] = prefix[i] + x

    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (-1) ** a[j]
            # inclusive segment sums: a_i + ... + a_j and a_{i+1} + ... + a_{j-1}
            num *= math.factorial(prefix[j + 1] - prefix[i])
            num //= math.factorial(prefix[j] - prefix[i + 1])
    den = 1
    for i in range(n):
        tail = prefix[n] - prefix[i + 1]
        den *= (-1) ** tail
        den *= math.factorial(prefix[i]) * math.factorial(tail)
    if num % den:
        raise ArithmeticError(f"collapsed sum {num} not divisible by {den}")
    return num // den


def packing_coefficient(m: int, d: int) -> int:
    """Coefficient of (x_1 ... x_m)^((m-1)d) in prod_{i<j} (x_i - x_j)^(2d).

    The constant term for a = (d, ..., d) times the sign (-1)^d of each
    of f's m(m-1)/2 factors: (-1)^(d*m*(m-1)/2) * (md)! / (d!)^m.  Raises
    ValueError unless m and d are positive ints.
    """
    checked_int(m, "m", 1)
    sign = (-1) ** (d * (m * (m - 1) // 2))
    return sign * dyson_formula((d,) * m)
