"""Sparse exact multivariate polynomials over Z or a residue ring Z/(n).

Two representations are used side by side:

* ``MultiPoly`` keeps a sparse map from exponent vectors to nonzero
  coefficients, for paths that need to read individual coefficients.
* ``AffineProduct`` keeps a product of degree-1 factors unexpanded, for
  evaluation-heavy paths where the expansion would have astronomically many
  terms but a point value is cheap.

Conversion from factored to expanded form is explicit and guarded by a term
budget.  The coefficient ring (ZZ or a ModRing) is fixed at construction;
mixing rings is an error, never a coercion.  Coefficients are plain ints:
over ModRing(n) they are kept reduced into [0, n) with % n, over ZZ
(whose n is None) they are left exact.
"""

from __future__ import annotations

import itertools
import math

from .algebra import json_errors, json_value


class ArityMismatch(ValueError):
    """Polynomials or points with different variable counts were combined."""


class RingMismatch(ValueError):
    """Polynomials over different coefficient rings were combined."""


class BudgetExceeded(RuntimeError):
    """An expansion would exceed the configured term budget."""


DEFAULT_TERM_BUDGET = 10_000_000


def _check_pair(a, b):
    if a.ring.n != b.ring.n:
        raise RingMismatch(f"{a.ring!r} vs {b.ring!r}")
    if a.arity != b.arity:
        raise ArityMismatch(f"arity {a.arity} vs {b.arity}")


class MultiPoly:
    """Sparse polynomial: exponent tuples mapped to nonzero int coefficients."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring, arity: int, terms=None):
        self.ring = ring
        self.arity = int(arity)
        n = ring.n
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                e = tuple(int(x) for x in e)
                if len(e) != self.arity:
                    raise ArityMismatch(f"exponent {e} in arity-{self.arity} polynomial")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = int(c) + clean.get(e, 0)
                if n:
                    c %= n
                if c:
                    clean[e] = c
                else:
                    clean.pop(e, None)
        self.terms = clean

    @classmethod
    def constant(cls, ring, arity: int, value) -> MultiPoly:
        return cls(ring, arity, {(0,) * arity: value})

    @classmethod
    def one(cls, ring, arity: int) -> MultiPoly:
        return cls.constant(ring, arity, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.ring, self.arity, other)
        _check_pair(self, other)
        return MultiPoly(self.ring, self.arity,
                         [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.ring, self.arity,
                             [(e, c * other) for e, c in self.terms.items()])
        _check_pair(self, other)
        n = self.ring.n
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if n:
                    s %= n
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = MultiPoly(self.ring, self.arity)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring.n == other.ring.n and self.arity == other.arity
                and self.terms == other.terms)

    __hash__ = None

    def coefficient(self, exponents):
        """The stored coefficient at the given exponent vector, or 0."""
        e = tuple(exponents)
        if len(e) != self.arity:
            raise ArityMismatch(f"exponent {e} in arity-{self.arity} polynomial")
        return self.terms.get(e, 0)

    def total_degree(self) -> int:
        """Largest exponent sum over the stored terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point):
        if len(point) != self.arity:
            raise ArityMismatch(f"point of length {len(point)} for arity {self.arity}")
        n = self.ring.n
        total = 0
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                if k:
                    c *= pow(x, k, n)      # x ** k when n is None
            total += c
        return total % n if n else total

    def nonzero_points(self, *sets):
        """(point, value) for each point of sets[0] x ... x sets[m-1] where
        the polynomial is nonzero, in lexicographic order over the sets as
        given; every point is evaluated on its own."""
        if len(sets) != self.arity:
            raise ArityMismatch(f"{len(sets)} sets for arity {self.arity}")
        for point in itertools.product(*sets):
            value = self.evaluate(point)
            if value:
                yield point, value

    def sorted_terms(self):
        """Terms as (exponents, coeff) pairs in lexicographic exponent order."""
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        """Stable JSON form; coefficients are decimal strings."""
        return {
            "arity": self.arity,
            "terms": [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    @json_errors("polynomial", ValueError)
    def from_json(cls, ring, doc: dict) -> MultiPoly:
        # a coefficient is a JSON int or, as to_json writes, a string
        terms = [([json_value(x, "e") for x in t["e"]],
                  json_value(int(c) if type(c := t["c"]) is str and
                             c.removeprefix("-").isdecimal() else c, "c"))
                 for t in doc["terms"]]
        return cls(ring, json_value(doc["arity"], "arity"), terms)

    def __repr__(self):
        shown = ", ".join(f"{e}:{c}" for e, c in self.sorted_terms()[:4])
        more = "" if len(self.terms) <= 4 else f", ... {len(self.terms)} terms"
        return f"MultiPoly(arity={self.arity}, {{{shown}{more}}})"


class AffineProduct:
    """A product of affine factors, kept unexpanded.

    Each factor is ``((var, coeff), ...), const`` and stands for
    sum(coeff * x_var) + const.  ``nonzero_points`` walks a product of
    sets and skips every point below a prefix where the product already
    vanishes, so no expansion is needed; ``evaluate`` is its one-point case.
    """

    __slots__ = ("ring", "arity", "factors")

    def __init__(self, ring, arity: int, factors):
        self.ring = ring
        self.arity = int(arity)
        n = ring.n
        canon = (lambda c: c % n) if n else int
        clean = []
        for linear, const in factors:
            lin = tuple((int(i), canon(c)) for i, c in linear if canon(c))
            for i, _ in lin:
                if not 0 <= i < self.arity:
                    raise ArityMismatch(f"variable {i} in arity-{self.arity} product")
            clean.append((lin, canon(const)))
        self.factors = tuple(clean)

    def total_degree(self) -> int:
        """Number of factors with a nonzero linear part (an upper bound that
        is exact over an integral domain)."""
        return sum(1 for lin, _ in self.factors if lin)

    def evaluate(self, point):
        if len(point) != self.arity:
            raise ArityMismatch(f"point of length {len(point)} for arity {self.arity}")
        for _, value in self.nonzero_points(*((x,) for x in point)):
            return value
        return 0

    def nonzero_points(self, *sets):
        """(point, value) for each point of sets[0] x ... x sets[m-1] where
        the product is nonzero, in lexicographic order over the sets as
        given.

        A factor is evaluated as soon as the largest variable it uses is
        set, once per prefix, and the partial product is carried down an
        explicit stack; a prefix where it is 0 (over Z/(n), possibly from
        zero divisors) skips every point below it.
        """
        if len(sets) != self.arity:
            raise ArityMismatch(f"{len(sets)} sets for arity {self.arity}")
        n = self.ring.n
        # Level 0 is a one-value axis that carries the constant factors;
        # x_i is set at level i + 1.
        axes = ((0,),) + tuple(tuple(s) for s in sets)
        levels = [[] for _ in axes]
        for lin, const in self.factors:
            lin = tuple((i + 1, c) for i, c in lin)
            levels[max((i for i, _ in lin), default=0)].append((lin, const))
        last = len(axes) - 1
        point = [0] * len(axes)
        partial = [1] * len(axes)   # partial[k]: product of levels < k
        pending = [iter(axes[0])] + [None] * last
        k = 0
        while k >= 0:
            for x in pending[k]:
                point[k] = x
                acc = partial[k]
                for lin, const in levels[k]:
                    v = const
                    for i, c in lin:
                        v += c * point[i]
                    acc *= v
                    if n:
                        acc %= n
                    if acc == 0:
                        break
                if acc == 0:
                    continue
                if k == last:
                    yield tuple(point[1:]), acc
                else:
                    k += 1
                    partial[k] = acc
                    pending[k] = iter(axes[k])
                    break
            else:
                k -= 1

    def expand(self, budget: int = DEFAULT_TERM_BUDGET) -> MultiPoly:
        """Multiply the factors out into a MultiPoly.

        Raises BudgetExceeded if the predicted or actual term count passes
        the budget.
        """
        predicted = _predict_terms(self, budget)
        if predicted > budget:
            raise BudgetExceeded(
                f"predicted {predicted} terms exceeds budget {budget}")
        ring = self.ring
        result = MultiPoly.one(ring, self.arity)
        for lin, const in self.factors:
            terms = [((0,) * self.arity, const)] if const else []
            for i, c in lin:
                e = [0] * self.arity
                e[i] = 1
                terms.append((tuple(e), c))
            result = result * MultiPoly(ring, self.arity, terms)
            if len(result.terms) > budget:
                raise BudgetExceeded(
                    f"intermediate expansion passed {budget} terms")
        return result


def _predict_terms(prod: AffineProduct, budget: int) -> int:
    """Cheap a-priori bound on the expanded term count."""
    per_factor = 1
    for lin, const in prod.factors:
        per_factor *= len(lin) + (1 if const else 0)
        if per_factor > budget:
            break
    # monomial-count bound: all monomials of total degree <= deg in `arity` vars
    deg = prod.total_degree()
    dense = math.comb(deg + prod.arity, prod.arity)
    return min(per_factor, dense)


def _difference_power(ring, arity: int, i: int, j: int, e: int) -> MultiPoly:
    """(x_i - x_j)^e expanded through the binomial theorem."""
    terms = []
    for t in range(e + 1):
        exps = [0] * arity
        exps[i] = e - t
        exps[j] = t
        c = math.comb(e, t) * (-1) ** t
        terms.append((tuple(exps), c))
    return MultiPoly(ring, arity, terms)


def difference_product(ring, arity: int, exponents,
                       budget: int = DEFAULT_TERM_BUDGET) -> MultiPoly:
    """Exact expansion of prod_{i<j} (x_i - x_j)^{e_ij}.

    ``exponents`` is either a mapping from (i, j) pairs with i < j to
    non-negative exponents, or a single int applied to every pair.
    """
    if isinstance(exponents, int):
        exponents = {(i, j): exponents
                     for i in range(arity) for j in range(i + 1, arity)}
    result = MultiPoly.one(ring, arity)
    for (i, j), e in sorted(exponents.items()):
        if not 0 <= i < j < arity:
            raise ArityMismatch(f"pair ({i}, {j}) out of range for arity {arity}")
        if e < 0:
            raise ValueError("exponents must be non-negative")
        if e == 0:
            continue
        result = result * _difference_power(ring, arity, i, j, e)
        if len(result.terms) > budget:
            raise BudgetExceeded(f"expansion passed {budget} terms")
    return result
