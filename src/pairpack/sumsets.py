"""Sumset cardinality bounds in Z/(p^alpha).

beta(p, r, s) is the smallest n such that p divides C(n, k) for every
integer k strictly between n-r and s; |A+B| >= beta(p, |A|, |B|) for
nonempty A, B inside Z/(p^alpha).  verify_cd_bound brute-forces that
inequality over all (or sampled) pairs of nonempty subsets, with subsets
as bitmasks so a sumset is a union of cyclic shifts.  The exhaustive
sweep runs every B against one A per orbit of the affine maps
x -> u*x + t (u a unit), which keep |A|, |B| and |A+B| up to a
permutation of the B's, and gets each sumset from a smaller one with a
single shift-OR.

The closing check mirrors the argument the bound rests on: writing the
coefficients of prod_i (x - c_i) for p^alpha-th roots of unity c_i as
signed elementary symmetric sums, a coefficient that vanishes in Z[w]
has its value at 1 divisible by p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from random import Random

from .algebra import CycloInt, is_prime


DEFAULT_TIGHT_CAP = 32     # tight pairs a sweep report lists


def beta(p: int, r: int, s: int) -> int:
    """Smallest n with p | C(n, k) for every k with n-r < k < s.

    Exact binomials reduced mod p; the scan starts at n = 1 and is done
    by n = r+s-1 at the latest, where the k-range is empty.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or s < 1:
        raise ValueError("set sizes must be positive")
    for n in range(1, r + s):
        lo = max(0, n - r + 1)
        if all(math.comb(n, k) % p == 0 for k in range(lo, s)):
            return n
    raise AssertionError("unreachable: the range at n = r+s-1 is empty")


def sumset(A, B, modulus: int) -> tuple[int, ...]:
    """Sorted distinct pairwise sums mod the modulus."""
    return tuple(sorted({(a + b) % modulus for a in A for b in B}))


@dataclass(frozen=True)
class SumsetInstance:
    """A pair of nonempty subsets of Z/(p^alpha)."""

    p: int
    alpha: int
    A: tuple[int, ...]
    B: tuple[int, ...]

    def __post_init__(self):
        p, alpha = int(self.p), int(self.alpha)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if alpha < 1:
            raise ValueError("alpha must be at least 1")
        mod = p ** alpha
        A = tuple(sorted({int(a) % mod for a in self.A}))
        B = tuple(sorted({int(b) % mod for b in self.B}))
        if not A or not B:
            raise ValueError("subsets must be nonempty")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def modulus(self) -> int:
        return self.p ** self.alpha


def check_bound(inst: SumsetInstance) -> tuple[int, int, bool, bool]:
    """(|A+B|, beta value, bound holds, bound tight) for one pair."""
    card = len(sumset(inst.A, inst.B, inst.modulus))
    bound = beta(inst.p, len(inst.A), len(inst.B))
    return card, bound, card >= bound, card == bound


# ---------------------------------------------------------------------------
# brute-force verification over all subset pairs


@dataclass(frozen=True)
class CDReport:
    """Outcome of a bound sweep, a plain value: two identical sweeps give
    equal reports.

    violations lists every failing (A, B) pair (expected empty).  Tight
    pairs are counted exactly but only the first tight_cap of them, in
    (A, B) order, are kept.
    """

    p: int
    alpha: int
    pairs: int
    violations: tuple
    tight_count: int
    tight: tuple

    def to_json(self) -> dict:
        return {"p": self.p, "alpha": self.alpha, "pairs": self.pairs,
                "violations": [[list(a), list(b)] for a, b in self.violations],
                "tight_count": self.tight_count,
                "tight": [[list(a), list(b)] for a, b in self.tight]}


def _mask_to_set(mask: int, size: int) -> tuple[int, ...]:
    return tuple(a for a in range(size) if mask >> a & 1)


def _beta_table(p: int, size: int):
    return [[0] * (size + 1)] + \
        [[0] + [beta(p, r, s) for s in range(1, size + 1)]
         for r in range(1, size + 1)]


def _b_pass(A: int, row, steps, sums, size: int, cap: int):
    """One literal pass of every B against the fixed mask A.

    S[B] = S[B without its low bit] | rot(A, that bit) fills `sums` with
    every sumset A+B, B ascending.  Returns the violating B masks, the
    number of tight B and the first `cap` tight B masks, in order.
    """
    full = (1 << size) - 1
    rots = [((A << b) | (A >> (size - b))) & full for b in range(size)]
    bad = []
    tight = []
    tight_count = 0
    for B, rest, low, s in steps:
        acc = sums[B] = sums[rest] | rots[low]
        card = acc.bit_count()
        bound = row[s]
        if card < bound:
            bad.append(B)
        elif card == bound:
            tight_count += 1
            if len(tight) < cap:
                tight.append(B)
    return bad, tight_count, tight


def _affine_orbit(A: int, size: int, units) -> set:
    """Masks of u*A + t for every unit u and every residue t."""
    full = (1 << size) - 1
    bits = _mask_to_set(A, size)
    orbit = set()
    for u in units:
        m = sum(1 << (u * a % size) for a in bits)
        orbit.update(((m << t) | (m >> (size - t))) & full
                     for t in range(size))
    return orbit


def _sweep(p: int, alpha: int, tight_cap: int):
    """Every (A, B) mask pair, with violations and tight pairs in (A, B)
    order, from one B pass per affine orbit of A.

    |(uA + t) + B| = |A + u^-1 (B - t)|, and B -> u^-1 (B - t) permutes
    the nonempty B keeping |B|, so every A in an orbit has as many tight
    B as its representative (the smallest mask of the orbit).  An orbit
    whose representative has a violation is expanded one A at a time.
    The tight list comes from literal passes over A = 1, 2, ... until
    tight_cap pairs are found; A = {0} alone makes every B tight.
    """
    size = p ** alpha
    full = (1 << size) - 1
    table = _beta_table(p, size)
    steps = [(B, B & (B - 1), (B & -B).bit_length() - 1, B.bit_count())
             for B in range(1, full + 1)]
    sums = [0] * (full + 1)
    units = [u for u in range(1, size) if u % p]
    seen = bytearray(full + 1)
    violations = []
    tight_count = 0
    for A in range(1, full + 1):
        if seen[A]:
            continue
        orbit = _affine_orbit(A, size, units)
        for image in orbit:
            seen[image] = 1
        row = table[A.bit_count()]
        bad, count, _ = _b_pass(A, row, steps, sums, size, 0)
        tight_count += count * len(orbit)
        if bad:
            for image in orbit:
                bad, _, _ = _b_pass(image, row, steps, sums, size, 0)
                violations.extend((image, B) for B in bad)
    violations.sort()
    tight = []
    A = 0
    while len(tight) < tight_cap and A < full:
        A += 1
        _, _, found = _b_pass(A, table[A.bit_count()], steps, sums, size,
                              tight_cap - len(tight))
        tight.extend((A, B) for B in found)
    return full * full, violations, tight_count, tight


def verify_cd_bound(p: int, alpha: int, sample: "int | None" = None,
                    seed: "int | None" = None, jobs: "int | None" = None,
                    tight_cap: int = DEFAULT_TIGHT_CAP) -> CDReport:
    """Check |A+B| >= beta(p, |A|, |B|) over nonempty subsets of Z/(p^alpha).

    Exhaustive by default: every one of (2^(p^alpha) - 1)^2 ordered pairs,
    counted from one B pass per affine orbit of A (see _sweep).  With
    sample, that many (at least 1) seeded-uniform pairs instead; a seed
    without a sample is an error.  The sweep does not time itself; `jobs`
    is accepted for older callers and ignored.
    """
    if not is_prime(p) or alpha < 1:
        raise ValueError("need a prime p and alpha >= 1")
    if tight_cap < 0:
        raise ValueError("tight_cap must be nonnegative")
    if sample is None and seed is not None:
        raise ValueError("a seed needs sample mode")
    size = p ** alpha
    full = (1 << size) - 1

    if sample is None:
        pairs, violations, tight_count, tight = _sweep(p, alpha, tight_cap)
    else:
        if sample < 1:
            raise ValueError(f"sample size {sample} is not positive")
        if seed is None:
            raise ValueError("sample mode needs a seed")
        rng = Random(seed)
        table = _beta_table(p, size)
        pairs = int(sample)
        violations = []
        all_tight = []
        for _ in range(pairs):
            A = rng.randrange(1, full + 1)
            B = rng.randrange(1, full + 1)
            bits = _mask_to_set(A, size)
            rots = [((B << a) | (B >> (size - a))) & full for a in bits]
            acc = 0
            for r in rots:
                acc |= r
            bound = table[len(bits)][B.bit_count()]
            card = acc.bit_count()
            if card < bound:
                violations.append((A, B))
            elif card == bound:
                all_tight.append((A, B))
        tight_count = len(all_tight)
        all_tight.sort()
        violations.sort()
        tight = all_tight[:tight_cap]

    unpack = lambda prs: tuple((_mask_to_set(a, size), _mask_to_set(b, size))
                               for a, b in prs)
    return CDReport(p, alpha, pairs, unpack(violations), tight_count,
                    unpack(tight))


# ---------------------------------------------------------------------------
# coefficients of prod (x - c_i) for roots of unity c_i


def root_product_coefficients(order: int, exponents) -> list[CycloInt]:
    """Ascending x-coefficients of prod_i (x - w^(e_i)) over Z[w]."""
    coeffs = [CycloInt.from_int(order, 1)]
    for e in exponents:
        root = CycloInt.root_power(order, e)
        nxt = [CycloInt(order)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        coeffs = nxt
    return coeffs


def elementary_symmetric_roots(order: int, exponents, j: int) -> CycloInt:
    """sigma_j of the roots w^(e_i): a sum over j-element subsets."""
    total = CycloInt(order)
    for combo in combinations(tuple(exponents), j):
        total = total + CycloInt.root_power(order, sum(combo))
    return total


def coefficient_divisibility_check(p: int, alpha: int, exponents) -> bool:
    """Both halves of the symmetric-function argument, on one root list.

    The x^k coefficient of prod (x - w^(e_i)) must match the signed
    elementary symmetric sum (-1)^(n-k) sigma_(n-k), and whenever that
    coefficient vanishes in Z[w] its value at 1 must be divisible by p.
    """
    order = p ** alpha
    exps = tuple(int(e) for e in exponents)
    n = len(exps)
    coeffs = root_product_coefficients(order, exps)
    for k in range(n + 1):
        sig = elementary_symmetric_roots(order, exps, n - k)
        if (n - k) % 2:
            sig = -sig
        if not (coeffs[k] - sig).is_zero():
            return False
        if coeffs[k].is_zero() and coeffs[k].eval_at_one() % p != 0:
            return False
    return True
