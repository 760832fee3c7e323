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

import math

from .algebra import checked_int, depth_first, int_entries, json_errors


class ArityMismatch(ValueError):
    """Polynomials or points with different variable counts were combined."""


class RingMismatch(ValueError):
    """Polynomials over different coefficient rings were combined."""


class BudgetExceeded(RuntimeError):
    """An expansion would exceed the configured term budget."""


DEFAULT_TERM_BUDGET = 10_000_000


class MultiPoly:
    """Sparse polynomial: exponent tuples mapped to nonzero int coefficients."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring, arity: int, terms=None):
        self.ring = ring
        self.arity = checked_int(arity, "arity", 0)
        n, summed = ring.n, {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                e = int_entries(e, "exponent")
                if len(e) != self.arity:
                    raise ArityMismatch(f"exponent {e} in arity-{self.arity} polynomial")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                summed[e] = summed.get(e, 0) + checked_int(c, "coefficient")
        self.terms = {e: v for e, c in summed.items() if (v := c % n if n else c)}

    @classmethod
    def one(cls, ring, arity: int) -> MultiPoly:
        return cls(ring, arity, {(0,) * arity: 1})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring.n != other.ring.n:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
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
        for _, value in self.nonzero_points(*((x,) for x in point)):
            return value
        return 0

    def nonzero_points(self, *sets):
        """(point, value) for each point of sets[0] x ... x sets[m-1] where
        the polynomial is nonzero, in lexicographic order over the sets as
        given.

        With x_0 .. x_(k-1) set, the terms are a polynomial in x_k ..
        x_(m-1), a map from exponent tails to coefficients (reduced mod
        n).  The prefix groups them once by tail, as tail -> [(e_k, c),
        ...], and each x_k folds every group into one coefficient; a
        prefix whose fold is 0 skips every point below it.  The last
        coordinate is one more fold, whose one tail () holds the value.
        Each prefix's walk is a generator that algebra.depth_first walks,
        so arity has no limit.
        """
        if len(sets) != self.arity:
            raise ArityMismatch(f"{len(sets)} sets for arity {self.arity}")
        n, last = self.ring.n, self.arity - 1
        sets, point = [tuple(s) for s in sets], [0] * self.arity

        def walk(k, terms):
            # terms: the polynomial in x_k .. x_last, tails -> coefficients
            groups = {}
            for e, c in terms.items():
                groups.setdefault(e[1:], []).append((e[0], c))
            for x in sets[k]:
                folded = {}
                for tail, pairs in groups.items():
                    v = 0
                    for e, c in pairs:
                        v += c * pow(x, e, n)      # x ** e when n is None
                    if n:
                        v %= n
                    if v:
                        folded[tail] = v
                if folded:
                    point[k] = x
                    yield walk(k + 1, folded) if k < last else (tuple(point), folded[()])

        if not self.arity:
            yield from self.terms.items()       # ((), c) unless f = 0
        elif self.terms:
            yield from depth_first(walk(0, self.terms))

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
        """arity and terms as __init__ takes them; "c" may be a decimal str."""
        terms = [(t["e"], int(c) if type(c := t["c"]) is str
                  and c.removeprefix("-").isdecimal() else c)
                 for t in doc["terms"]]
        return cls(ring, doc["arity"], terms)

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
        self.arity = checked_int(arity, "arity", 0)
        n = ring.n
        clean, groups = [], {}
        for linear, const in factors:
            merged = {}
            for i, c in linear:
                c = checked_int(c, "coefficient") + merged.get(i, 0)
                merged[checked_int(i, "variable")] = c % n if n else c
            lin = tuple(sorted([t for t in merged.items() if t[1]]))
            const = checked_int(const, "constant")
            const = const % n if n else const
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

    evaluate = MultiPoly.evaluate      # nonzero_points' one-point case

    def nonzero_points(self, *sets):
        """(point, value) for each point of sets[0] x ... x sets[m-1] where
        the product is nonzero, in lexicographic order over the sets as
        given.

        With x_0 .. x_(i-1) set, each factor c * x_i + r whose largest
        variable is x_i strikes its roots from the set of x_i (compared
        mod n), and a prefix with no x_i left skips every point below it.
        A part's roots depend only on r mod n, so for the call each linear
        part keeps them per value of r mod n as a bit mask over the
        positions of the set; a prefix ORs the masks of its parts and
        walks the positions left in order.  The product is taken only at
        the points that avoid every root, and dropped there if zero
        divisors make it 0.  Over a composite n, the walk also carries
        the product of the factors up to x_i and skips every point below
        a prefix where it is 0.
        """
        if len(sets) != self.arity:
            raise ArityMismatch(f"{len(sets)} sets for arity {self.arity}")
        n, const, levels, last = self.ring.n, self._const, self._levels, self.arity - 1
        divisors = self._divisors
        sets, point = [tuple(s) for s in sets], [0] * self.arity
        # vals[i]: (c, s, consts) per linear part c * x_i + rest, s = rest;
        # prefix[i]: over a composite n, const times the factors up to x_(i-1)
        vals, pending, prefix = [()] * self.arity, [None] * self.arity, [const] * self.arity
        # masks[k][j]: rest mod n -> part j's roots as positions in sets[k],
        # one bit each; tables[k][n / g]: x mod n / g -> positions of x
        masks, tables = [[{} for _ in parts] for parts in levels], [{} for _ in levels]
        k = 0 if const and sets else -1
        while k >= 0:
            if pending[k] is None:
                here, struck, level = [], 0, sets[k]
                for (rest, c, consts, g, step, u), memo in zip(levels[k], masks[k]):
                    s = 0
                    for i, a in rest:
                        s += a * point[i]
                    here.append((c, s, consts))
                    if (mask := memo.get(key := s % n if n else s)) is None:
                        if (table := tables[k].get(step)) is None:
                            table = tables[k][step] = {}
                            for t, x in enumerate(level):
                                table.setdefault(x % step if step else x, []).append(t)
                        mask = 0
                        for r in consts:
                            r += key
                            if r % g == 0:
                                z = r // g * u
                                for t in table.get(z % step if step else z, ()):
                                    mask |= 1 << t
                        memo[key] = mask
                    struck |= mask
                vals[k] = here
                left, out = ~struck & (1 << len(level)) - 1, []
                if left.bit_count() > 64:   # each pop costs O(|level|): read all
                    out, left = [x for x, b in zip(level, bin(left)[:1:-1]) if b == "1"], 0
                while left:                 # the positions left, lowest first
                    out.append(level[(left & -left).bit_length() - 1])
                    left &= left - 1
                pending[k] = iter(out)
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

    def expand(self) -> MultiPoly:
        """Multiply the factors out into a MultiPoly.

        Raises BudgetExceeded if the predicted term count passes
        DEFAULT_TERM_BUDGET.  The prediction is the one check: it bounds
        every partial product too (see _predict_terms).
        """
        budget = DEFAULT_TERM_BUDGET
        predicted = _predict_terms(self, budget)
        if predicted > budget:
            raise BudgetExceeded(
                f"predicted {predicted} terms exceeds budget {budget}")
        arity = self.arity
        result = MultiPoly.one(self.ring, arity)
        for lin, const in self.factors:
            terms = [((0,) * arity, const)] + [
                (tuple(int(j == i) for j in range(arity)), c) for i, c in lin]
            result = result * MultiPoly(self.ring, arity, terms)
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

