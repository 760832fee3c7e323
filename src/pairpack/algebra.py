"""Exact arithmetic substrates: primality, residue rings, F_p linear
algebra, and cyclotomic integers.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  A ring is only a modulus (ModRing) or its absence
(ZZ); ring elements are plain ints, and the code doing the arithmetic
reduces them into [0, n) when there is a modulus.
Cyclotomic integers are integer coefficient vectors modulo x^n - 1, which
is deliberately not a canonical form: zero is decided by exact divisibility
by the n-th cyclotomic polynomial.  The package's one multinomial is here,
so scans and packing reports need not load dyson; the permanents live in
conjectures.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from operator import attrgetter


class DimensionMismatch(ValueError):
    """Vector lengths disagree with the declared dimension."""


class OrderMismatch(ValueError):
    """Cyclotomic integers over different root orders were combined."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def multinomial(parts) -> int:
    """(sum parts)! / prod(part!) for nonnegative integer parts: the number
    of orderings of a multiset with these multiplicities (1 for no parts)."""
    parts = tuple(parts)
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


def json_value(value, name: str, kind: type = int):
    """value if its type is exactly kind (so a bool is not a JSON int)."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return value


class Value:
    """A frozen plain value whose fields are its class's __slots__: they
    alone decide equality (within one class), the hash and the repr
    Class(field=value, ...).  Assigning or deleting an attribute raises
    AttributeError.  The generic __init__ takes every field by position or
    keyword.  Classes that validate or are built per solve write their own
    and store through _fill, or object.__setattr__ where a single field or
    a build per solve would make the extra call show."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)    # self._key(self): the fields

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        args += tuple(kwargs.pop(f) for f in names[len(args):] if f in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        self._fill(*args)

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):      # copy and pickle: (None, slots)
        self._fill(*map(state[1].get, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


@contextmanager
def json_errors(what: str, error: type):
    """Report a missing key or a mistyped value in a JSON document as
    error("malformed <what> JSON (...)") instead of a KeyError or
    TypeError.  A with block or, like any context manager, a decorator."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise error(
            f"malformed {what} JSON ({type(exc).__name__}: {exc})") from None


class ModRing(Value):
    """The residue ring Z/(n), a value named by its modulus.  Elements are
    plain ints; MultiPoly and AffineProduct reduce them with % n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError("modulus must be an integer >= 2")
        object.__setattr__(self, "n", n)

    @property
    def is_field(self) -> bool:
        return is_prime(self.n)

    def __repr__(self):
        return f"ModRing({self.n})"


class IntegerRing:
    """The exact integers: the ring with no modulus (n is None)."""

    n = None
    is_field = False

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# Vectors over F_p.  Vectors are plain int tuples; the prime travels
# alongside as an argument.

def vec_add(u, v, p):
    if len(u) != len(v):
        raise DimensionMismatch(f"length {len(u)} vs {len(v)}")
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u, v, p):
    if len(u) != len(v):
        raise DimensionMismatch(f"length {len(u)} vs {len(v)}")
    return tuple((a - b) % p for a, b in zip(u, v))


def rank_mod_p(vectors, p: int) -> int:
    """Row rank of the given int-tuple vectors over F_p."""
    rows = [[c % p for c in v] for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)      # p prime, pivot nonzero
        rows[rank] = [c * inv % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(c - f * d) % p for c, d in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def is_basis(vectors, p: int, k: int) -> bool:
    """True iff the vectors form a basis of (F_p)^k: k of them, independent.

    A wrong count is simply not a basis; a vector of the wrong length is a
    caller bug and raises DimensionMismatch.
    """
    vectors = list(vectors)
    for v in vectors:
        if len(v) != k:
            raise DimensionMismatch(f"vector {v!r} does not have length {k}")
    return len(vectors) == k and rank_mod_p(vectors, p) == k


# ---------------------------------------------------------------------------
# Univariate integer polynomials (coefficient lists, ascending degree) --
# just enough machinery for cyclotomic polynomials.

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_divmod_monic(num, den):
    """Quotient and remainder of integer polynomials; den must be monic."""
    den = _poly_trim(list(den))
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    _poly_trim(rem)
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return [], rem
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                rem[i - dd + j] -= c * dj
    return _poly_trim(quot), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by dividing x^n - 1 exactly by the cyclotomic polynomials of
    the proper divisors of n; results are memoized, so the recursion reuses
    sub-results.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod_monic(num, cyclotomic_poly(d))
            if rem:
                raise ArithmeticError(
                    f"non-exact cyclotomic division at n={n}, d={d}")
    return tuple(num)


class CycloInt:
    """An element of Z[w] for w a primitive n-th root of unity.

    Stored as n integer coefficients of powers w^0 .. w^(n-1); products are
    convolutions with exponents wrapped mod n.  The representation is not
    canonical: is_zero() divides by the n-th cyclotomic polynomial, and
    equality compares differences through that test.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=()):
        if not isinstance(n, int) or n < 1:
            raise ValueError("root order must be a positive integer")
        c = [0] * n
        for i, v in enumerate(coeffs):
            if v:
                c[i % n] += v
        self.n = n
        self.coeffs = tuple(c)

    @classmethod
    def from_int(cls, n: int, value: int) -> CycloInt:
        return cls(n, (value,))

    @classmethod
    def root_power(cls, n: int, k: int) -> CycloInt:
        """w^k as a cyclotomic integer of order n."""
        c = [0] * n
        c[k % n] = 1
        return cls(n, c)

    def _coerce(self, other) -> CycloInt:
        """other as a cyclotomic integer of this order: an int is a
        constant, another order raises OrderMismatch."""
        if isinstance(other, int):
            return CycloInt.from_int(self.n, other)
        if self.n != other.n:
            raise OrderMismatch(f"root orders {self.n} and {other.n} differ")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return CycloInt(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloInt(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        return CycloInt(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        n = self.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        if k >= n:
                            k -= n
                        out[k] += a * b
        return CycloInt(n, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """True iff this element equals zero in Z[w], i.e. the coefficient
        polynomial is divisible by the n-th cyclotomic polynomial."""
        if not any(self.coeffs):
            return True
        _, rem = poly_divmod_monic(list(self.coeffs), cyclotomic_poly(self.n))
        return not rem

    def eval_at_one(self) -> int:
        """Value of the representing polynomial at w = 1 (coefficient sum)."""
        return sum(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int) or (isinstance(other, CycloInt)
                                      and other.n == self.n):
            return (self - other).is_zero()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        parts = [f"{c}*w^{i}" for i, c in enumerate(self.coeffs) if c]
        return f"CycloInt({self.n}, {' + '.join(parts) or '0'})"
