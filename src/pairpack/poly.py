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
    sum(coeff * x_var) + const, a variable named twice taken once with the
    sum of its coefficients.  ``nonzero_points`` walks a product of sets by
    the factors' roots, so no expansion is needed; ``evaluate`` is its
    one-point case.
    """

    __slots__ = ("ring", "arity", "factors", "_const", "_levels", "_divisors")

    def __init__(self, ring, arity: int, factors):
        self.ring = ring
        self.arity = int(arity)
        n = ring.n
        clean, groups = [], {}
        for linear, const in factors:
            merged = {}
            for i, c in linear:
                i = int(i)
                merged[i] = (merged.get(i, 0) + c) % n if n else merged.get(i, 0) + int(c)
            lin = tuple(sorted([t for t in merged.items() if t[1]]))
            const = const % n if n else int(const)
            if lin and not 0 <= lin[0][0] <= lin[-1][0] < self.arity:
                raise ArityMismatch(
                    f"variables {[i for i, _ in lin]} in arity-{self.arity} product")
            clean.append((lin, const))
            groups.setdefault(lin, []).append(const)
        self.factors = tuple(clean)
        const = math.prod(groups.pop((), ()))
        self._const = const % n if n else const
        # _levels[i]: (rest, c, consts, g, n / g, u) per linear part c * x_i
        # + rest; c * x + r = 0 mod n when g = gcd(c, n) divides r and x =
        # r / g * u mod n / g, u = -(c / g)^-1.  Over ZZ, g = c and u = -1.
        self._levels = [[] for _ in range(self.arity)]
        for lin, consts in groups.items():
            top, c = lin[-1]
            g = math.gcd(c, n) if n else c
            step = n // g if n else 0
            u = -pow(c // g, -1, step) % step if n else -1
            self._levels[top].append((lin[:-1], c, consts, g, step, u))
        try:
            field = ring.is_field
        except ValueError:          # a modulus past the exact primality test
            field = False
        # only over a composite n can nonzero factors multiply to 0
        self._divisors = bool(n) and not field

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

        With x_0 .. x_(i-1) set, each factor c * x_i + r whose largest
        variable is x_i strikes its roots from the set of x_i (compared
        mod n), and a prefix with no x_i left skips every point below it.
        The product is taken only at the points that avoid every root,
        and dropped there if zero divisors make it 0.  Over a composite n,
        the walk also carries the product of the factors up to x_i and
        skips every point below a prefix where it is 0.
        """
        if len(sets) != self.arity:
            raise ArityMismatch(f"{len(sets)} sets for arity {self.arity}")
        n, const, levels, last = self.ring.n, self._const, self._levels, self.arity - 1
        divisors = self._divisors
        sets, point = [tuple(s) for s in sets], [0] * self.arity
        # vals[i]: (c, s, consts) per linear part c * x_i + rest, s = rest;
        # prefix[i]: over a composite n, const times the factors up to x_(i-1)
        vals, pending, prefix = [()] * self.arity, [None] * self.arity, [const] * self.arity
        k = 0 if const and sets else -1
        while k >= 0:
            if pending[k] is None:
                zeros, here = {}, []   # zeros[n / g]: roots mod n / g; ZZ: zeros[0]
                for rest, c, consts, g, step, u in levels[k]:
                    s = 0
                    for i, a in rest:
                        s += a * point[i]
                    here.append((c, s, consts))
                    z = zeros.setdefault(step, set())
                    for r in consts:
                        r += s
                        if r % g == 0:
                            z.add(r // g * u % step if step else r // g * u)
                vals[k] = here
                left = sets[k]
                for step, z in zeros.items():
                    left = [x for x in left if (x % step if step else x) not in z]
                pending[k] = iter(left)
            for x in pending[k]:
                point[k] = x
                if k < last:
                    if divisors:
                        acc = math.prod((c * x + s + e for c, s, consts in vals[k]
                                         for e in consts), start=prefix[k]) % n
                        if not acc:
                            continue
                        prefix[k + 1] = acc
                    k += 1
                    break
                acc = math.prod((c * y + s + e for y, here in zip(point, vals)
                                 for c, s, consts in here for e in consts), start=const)
                if n:
                    acc %= n
                if acc:
                    yield tuple(point), acc
            else:
                pending[k] = None
                k -= 1
        if const and not sets:
            yield (), const

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
