"""Sumset cardinality bounds in Z/(p^alpha).

beta(p, r, s) is the smallest n such that p divides C(n, k) for every
integer k strictly between n-r and s; by Eliahou and Kervaire it is the
least (ceil(r/q) + ceil(s/q) - 1) q over the powers q of p, and |A+B| >=
beta(p, |A|, |B|) for nonempty A, B inside Z/(p^alpha).  verify_cd_bound
brute-forces that inequality over all (or sampled) pairs of nonempty
subsets, with subsets as bitmasks so a sumset is a union of cyclic
shifts.  The exhaustive sweep runs the B that contain 0 against one A
per orbit of the affine maps x -> u*x + t (u a unit) with 2|A| <=
p^alpha, and gets the rest from translating B, swapping A and B, and the
pairs with A+B the whole group.  Each sumset comes from a smaller one
with a single shift-OR, all of a pass at once in one packed integer;
that integer caps the group at MAX_SWEEP_SIZE elements.  Listed and
sampled pairs go PAIR_CHUNK at a time into one packed integer too, with
one shift-OR per bit position for all of them; its cost, quadratic in
the mask, caps sampled sweeps at MAX_SAMPLE_SIZE elements.  check_pair
takes a single pair to the report the CLI prints; its group stays below
2^MAX_MODULUS_BITS elements, checked before p^alpha is built, once.

The closing check mirrors the argument the bound rests on: writing the
coefficients of prod_i (x - c_i) for p^alpha-th roots of unity c_i as
signed elementary symmetric sums, a coefficient that vanishes in Z[w]
has its value at 1 divisible by p.  Both sides are summed as lists of
coefficients at the powers of w, a factor w^e rotating a list by e, and
match list for list, being one sum in Z[x]/(x^(p^alpha) - 1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, compress, islice
from operator import itemgetter
from random import Random
from struct import pack, unpack

from .algebra import CycloInt, Value, checked_int, int_entries, is_prime


DEFAULT_TIGHT_CAP = 32     # tight pairs a sweep report lists
MAX_SWEEP_SIZE = 19        # exhaustive sweeps: Z/(19) takes seconds, Z/(23)
                           # 8,290+ passes of 0.15 s each (about 20 min)
MAX_SAMPLE_SIZE = 1 << 14  # sampled sweeps: a Z/(2^14) pair takes about
                           # 0.1 s, nearly all of it in _check's shift-OR
MAX_MODULUS_BITS = 1 << 20  # one pair: 3^(2^20 - 1), the biggest group
                            # let in, builds in about 0.14 s
PAIR_CHUNK = 2048          # sampled or listed pairs per pass of _check

_POP = bytes(map(int.bit_count, range(256)))    # bits set, by byte value
_ZERO = b"\1" + bytes(255)                      # 1 for a zero byte
_NONZERO = b"\0" + b"\xff" * 255                # 255 for a nonzero byte
_BELOW = b"\1" * 128 + bytes(128)               # 1 below 128
_DIGIT = bytes.maketrans(b"01", b"\0\1")        # binary digit to its bit


@lru_cache(maxsize=None)
def beta(p: int, r: int, s: int) -> int:
    """Smallest n with p | C(n, k) for every k with n-r < k < s: by
    Eliahou and Kervaire (J. Number Theory 71, 1998), the least
    (ceil(r/q) + ceil(s/q) - 1) q over q = 1, p, p^2, ..., where no q at
    or above the least value so far gives less.  Memoised: every sweep
    reads a whole table of it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or s < 1:
        raise ValueError("set sizes must be positive")
    least, q = r + s - 1, p
    while q < least:
        least = min(least, (-(-r // q) - (-s // q) - 1) * q)
        q *= p
    return least


def sumset(A, B, modulus: int) -> tuple[int, ...]:
    """Sorted distinct pairwise sums mod the modulus."""
    return tuple(sorted({(a + b) % modulus for a in A for b in B}))


def check_pair(p: int, alpha: int, A, B) -> dict:
    """|A+B| against beta(p, |A|, |B|) for one pair in Z/(p^alpha), as
    the report the CLI prints: A, B and A+B reduced and sorted, the
    cardinality, the bound, and whether it holds and is tight."""
    if not is_prime(checked_int(p, "p")):
        raise ValueError(f"{p} is not prime")
    if checked_int(alpha, "alpha") < 1:
        raise ValueError("alpha must be at least 1")
    # p^alpha >= 2^(alpha (bits of p - 1)), refused before it is built
    if alpha * (p.bit_length() - 1) >= MAX_MODULUS_BITS:
        raise ValueError(f"Z/({p}^{alpha}) is too big (it must have "
                         f"fewer than 2^{MAX_MODULUS_BITS} elements)")
    mod = p ** alpha
    A = sorted({a % mod for a in int_entries(A, "element")})
    B = sorted({b % mod for b in int_entries(B, "element")})
    if not A or not B:
        raise ValueError("subsets must be nonempty")
    sums = list(sumset(A, B, mod))
    card, bound = len(sums), beta(p, len(A), len(B))
    return {"p": p, "alpha": alpha, "A": A, "B": B, "sum": sums,
            "cardinality": card, "beta": bound, "holds": card >= bound,
            "tight": card == bound}


# ---------------------------------------------------------------------------
# brute-force verification over all subset pairs


class CDReport(Value):
    """Outcome of a bound sweep, a plain value: two identical sweeps give
    equal reports.

    violations lists every failing (A, B) pair (expected empty).  Tight
    pairs are counted exactly but only the first tight_cap of them, in
    (A, B) order, are kept.
    """

    __slots__ = ("p", "alpha", "pairs", "violations", "tight_count", "tight")

    def to_json(self) -> dict:
        return {"p": self.p, "alpha": self.alpha, "pairs": self.pairs,
                "violations": [[list(a), list(b)] for a, b in self.violations],
                "tight_count": self.tight_count,
                "tight": [[list(a), list(b)] for a, b in self.tight]}


def _mask_to_set(mask: int, size: int) -> tuple[int, ...]:
    return tuple(compress(range(size), bin(mask)[:1:-1].encode().translate(
        _DIGIT)))


def _beta_table(p: int, size: int):
    return [[beta(p, r, s) if r and s else 0 for s in range(size + 1)]
            for r in range(size + 1)]


class _Subsets:
    """Every B in Z/(size) that contains 0, B = 1 + 2k at index k, with
    |A+B| for all of them in one go.

    S(B + {j}) = S(B) | rot(A, j) for j above every element of B.  The
    sums are packed into one integer, a field of ceil(size/8) bytes per
    B, so adding j to the first 2^(j-1) sets is one OR and one shift.
    Cardinalities come out one byte per B, below 128 as size is.  Only
    the sweep's counts come from here; listed pairs use _check.
    """

    def __init__(self, size: int):
        self.size = size
        self.nb = (size + 7) // 8                  # bytes per field
        # (j, 2^(j-1) fields holding 1, the bits of 2^(j-1) fields)
        self.steps = [(1, 1, 8 * self.nb)]
        for j in range(2, size):
            _, ones, shift = self.steps[-1]
            self.steps.append((j, ones | ones << shift, shift << 1))
        sizes = b"\1"                              # |B|, a byte per B
        inc = bytes(range(1, 256)) + b"\0"
        for _ in range(1, size):
            sizes += sizes.translate(inc)
        self.sizes = sizes
        self.packed_sizes = int.from_bytes(sizes, "little")
        self.high = int.from_bytes(b"\x80" * len(sizes), "little")
        self.tight_only = bytes(255 * (e == 128) for e in range(256))
        self.not_below = bytes(range(128, 256))

    def bounds(self, row) -> int:
        """row[|B|] for every B, a byte each."""
        table = bytes(row).ljust(256, b"\0")
        return int.from_bytes(self.sizes.translate(table), "little")

    def excess(self, A: int, bounds: int) -> bytes:
        """128 + |A+B| - bound for every B, a byte each: 128 marks a tight
        pair and anything less a violation."""
        size, nb, n = self.size, self.nb, len(self.sizes)
        full = (1 << size) - 1
        packed = A
        for j, ones, shift in self.steps:
            rot = ((A << j) | (A >> (size - j))) & full
            packed |= (packed | rot * ones) << shift
        pops = packed.to_bytes(nb * n, "little").translate(_POP)
        cards = sum(int.from_bytes(pops[i::nb], "little") for i in range(nb))
        return ((cards | self.high) - bounds).to_bytes(n, "little")

    def tight_sizes(self, excess: bytes) -> bytes:
        """|B| for every tight B, a byte each."""
        tight = int.from_bytes(excess.translate(self.tight_only), "little")
        tight &= self.packed_sizes
        return tight.to_bytes(len(self.sizes), "little").translate(None, b"\0")


def _draws(seed, pairs: int, size: int):
    """pairs (A, B) as randrange(1, 2^size) draws them from Random(seed),
    A then B, PAIR_CHUNK pairs per bytes object, ceil(size/8) bytes per
    mask.  A draw takes k = ceil(size/32) 32-bit words, least significant
    first, keeps the top size - 32(k-1) bits of the last, adds 1, and is
    redrawn while all size bits are set; getrandbits(32 k c) gives c
    draws' words in order."""
    bits, k, nb = Random(seed).getrandbits, -(-size // 32), (size + 7) // 8
    width, split = 4 * k, 32 * k - size
    full = ((1 << size) - 1).to_bytes(width, "little")
    for done in range(0, pairs, PAIR_CHUNK):
        count = left = 2 * min(PAIR_CHUNK, pairs - done)
        kept = []
        while left:
            words = bits(32 * k * left)
            low = int.from_bytes((b"\xff" * (width - 4) + bytes(4)) * left,
                                 "little")
            high = int.from_bytes(full * left, "little") ^ low
            values = (words & low | words >> split & high).to_bytes(
                width * left, "little")
            start, at, left = 0, values.find(full), 0
            while at >= 0:
                if not at % width:                 # a redraw: cut it out
                    kept.append(values[start:at])
                    start, left = at + width, left + 1
                at = values.find(full, at + 1)
            kept.append(values[start:])
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
        drawn = (int.from_bytes(b"".join(kept), "little") + ones).to_bytes(
            width * count, "little")
        masks = bytearray(nb * count)
        for i in range(nb):
            masks[i::nb] = drawn[i::width]
        yield bytes(masks)


def _check(packs, p: int, size: int, tight_cap: int, stop: bool):
    """The tight count, every violating (A, B) and the tight_cap smallest
    tight ones, sorted, for the pairs of Z/(size) in packs: bytes of
    fields of two ceil(size/8)-byte masks, A low and B high.  B << j goes
    into every field whose A has bit j, all fields in one shift-OR, and
    one fold takes the sums mod size.  |A+B| and |A| (size+1) + |B| fill
    32-bit lanes, beta is asked once per index drawn, and a lane of 2^31
    + |A+B| - bound has its low half 0 if the pair is tight and its top
    bit clear if it violates.  A key is cut only for a tight pair whose
    A's top byte is at most the least that keeps tight_cap of them and
    that of the tight_cap-th key kept (keys order by A first); kept keys
    are cut back to tight_cap at twice that.  With stop, packs are read
    until tight_cap tight pairs."""
    nb = (size + 7) // 8                           # bytes per mask
    w, h, full = 2 * nb, 8 * nb, (1 << size) - 1   # bytes, bits per field

    def bits_set(data, at):
        """Bits set in bytes at .. at + nb of each field of data, a 32-bit
        lane each."""
        pops, total = data.translate(_POP), 0
        lanes = bytearray(len(data) // w * 4)
        for i in range(at, at + nb):
            lanes[::4] = pops[i::w]
            total += int.from_bytes(lanes, "little")
        return total

    bounds = {}                                    # by |A| (size+1) + |B|
    count, violations, kept, cut = 0, [], [], 255
    for raw in packs:
        n, packed = len(raw) // w, int.from_bytes(raw, "little")
        ones = int.from_bytes((b"\1" + bytes(w - 1)) * n, "little")
        low = ones * ((1 << h) - 1)
        B, acc = packed >> h & low, 0
        for j in range(size):
            t = packed >> j & ones
            acc |= B << j & (t << 2 * h) - t
        sums = (acc | acc >> size) & ones * full
        index = bits_set(raw, 0) * (size + 1) + bits_set(raw, nb)
        index = unpack(f"<{n}I", index.to_bytes(4 * n, "little"))
        for i in set(index).difference(bounds):
            bounds[i] = beta(p, *divmod(i, size + 1))
        drawn = itemgetter(*index)(bounds)         # an int when n is 1
        drawn = pack(f"<{n}I", *drawn) if n > 1 else pack("<I", drawn)
        guard = int.from_bytes(b"\0\0\0\x80" * n, "little")
        excess = (bits_set(sums.to_bytes(len(raw), "little"), 0) | guard) - \
            int.from_bytes(drawn, "little")
        loose = (excess | excess >> 8).to_bytes(4 * n, "little")[::4]
        tight = loose.count(0)                     # 0 marks a tight pair
        count += tight
        # fields as A << h | B, big-endian: their bytes sort as (A, B)
        order = ((packed & low) << h | B).to_bytes(len(raw), "big")
        starts = range(len(raw) - w, -1, -w)       # field 0 comes last
        if excess & guard != guard:
            below = excess.to_bytes(4 * n, "little")[3::4].translate(_BELOW)
            violations += [order[i:i + w] for i in compress(starts, below)]
        if tight and tight_cap:
            # A's top byte in each tight field, 255 in the rest
            top = int.from_bytes(raw[nb - 1::w], "little") | int.from_bytes(
                loose.translate(_NONZERO), "little")
            top = top.to_bytes(n, "little")
            t0, seen = 0, top.count(0)
            while seen < min(tight, tight_cap) and t0 < cut:
                t0 += 1
                seen += top.count(t0)
            pick = loose.translate(_ZERO) if t0 == 255 else top.translate(
                b"\1" * (t0 + 1) + bytes(255 - t0))
            kept += [order[i:i + w] for i in compress(starts, pick)]
            if len(kept) >= 2 * tight_cap:
                kept = sorted(kept)[:tight_cap]
                cut = kept[-1][0]
        if stop and len(kept) >= tight_cap:
            break
    split = lambda keys: [divmod(int.from_bytes(k, "big"), 1 << h)
                          for k in keys]
    return count, split(sorted(violations)), split(sorted(kept)[:tight_cap])


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


def _sweep(p: int, size: int, tight_cap: int):
    """Every (A, B) mask pair in Z/(size), size a power of p, with
    violations and tight pairs in (A, B) order, from one pass over the B
    that contain 0 per affine orbit of A with 2|A| <= size.

    |(uA + t) + B| = |A + u^-1 (B - t)|, and B -> u^-1 (B - t) permutes
    the nonempty B keeping |B|, so every A in an orbit has as many tight
    B as its representative (the smallest mask of the orbit).  A
    translation orbit of B has |orbit| * |B| / size members that contain
    0, so the tight B of size s number size/s times the tight B that
    contain 0.  The tight count T(r, s) over |A| = r, |B| = s is then:

    * from the passes, for 2r <= size;
    * C(size, r) * C(size, s) or 0 for r, s both above size/2, where
      A + B is all of Z/(size): tight exactly when the bound is size;
    * T(s, r) for the rest: (A, B) -> (B, A) keeps A + B, and beta is
      symmetric (in its definition k -> n - k maps n - r < k < s onto
      n - s < k < r, and C(n, k) = C(n, n - k)), so the swap maps the
      tight pairs of sizes (r, s) onto those of sizes (s, r).  An
      asymmetric table raises ArithmeticError.

    Every violation has a translate with B containing 0, or a swap that
    has, so none goes unseen.  The listed pairs come from one walk over
    (A, B) in ascending order, chunk by chunk through _check: it stops at
    tight_cap tight pairs (A = {0} alone makes every B tight), unless a
    violation was seen, when it runs to the end to list every one.
    """
    full = (1 << size) - 1
    table = _beta_table(p, size)
    if any(table[r][s] != table[s][r] for r in range(size + 1)
           for s in range(r)):
        raise ArithmeticError(f"beta is not symmetric mod {size}")
    big = [2 * r > size for r in range(size + 1)]
    with_zero = _Subsets(size)
    bounds = [with_zero.bounds(row) for row in table[:size // 2 + 1]]
    counts = [[0] * (size + 1) for _ in range(size + 1)]
    units = [u for u in range(1, size) if u % p]
    seen = bytearray(full + 1)
    bad = False
    for A in range(1, full + 1):
        r = A.bit_count()
        if seen[A] or big[r]:
            continue
        orbit = _affine_orbit(A, size, units)
        for image in orbit:
            seen[image] = 1
        excess = with_zero.excess(A, bounds[r])
        bad = bad or bool(excess.translate(None, with_zero.not_below))
        tight = with_zero.tight_sizes(excess)
        for s in range(1, size + 1):
            counts[r][s] += len(orbit) * tight.count(s)

    tight_count = 0
    for r in range(1, size + 1):
        for s in range(1, size + 1):
            if big[r] and big[s]:
                bad = bad or table[r][s] > size
                if table[r][s] == size:
                    tight_count += math.comb(size, r) * math.comb(size, s)
            elif big[r]:
                tight_count += counts[s][r] * size // r
            else:
                tight_count += counts[r][s] * size // s

    nb = (size + 7) // 8                           # bytes per mask
    fields = ((B << 8 * nb | A).to_bytes(2 * nb, "little")
              for A in range(1, full + 1) for B in range(1, full + 1))
    step = PAIR_CHUNK if bad else min(PAIR_CHUNK, tight_cap)
    _, violations, tight = _check(iter(lambda: b"".join(islice(fields, step)),
                                       b""), p, size, tight_cap, not bad)
    return full * full, violations, tight_count, tight


def verify_cd_bound(p: int, alpha: int, sample: "int | None" = None,
                    seed: "int | None" = None, jobs: "int | None" = None,
                    tight_cap: int = DEFAULT_TIGHT_CAP) -> CDReport:
    """Check |A+B| >= beta(p, |A|, |B|) over nonempty subsets of Z/(p^alpha).

    Exhaustive by default: every one of (2^(p^alpha) - 1)^2 ordered pairs,
    counted from one pass over the B that contain 0 per affine orbit of a
    small A (see _sweep), for p^alpha <= MAX_SWEEP_SIZE.  With sample,
    that many (at least 1) pairs instead, for p^alpha <= MAX_SAMPLE_SIZE,
    drawn as Random(seed).randrange(1, 2^size) draws them and checked
    PAIR_CHUNK at a time (see _check), each bound read once per drawn
    (|A|, |B|); only the tight_cap smallest tight pairs are kept.  A seed
    without a sample is an error, and so is a group above its mode's
    limit, found before p^alpha is built or p is tested for primality.
    The sweep does not time itself; `jobs` is accepted for older callers
    and ignored.
    """
    checked_int(p, "p", 2)
    checked_int(alpha, "alpha", 1)
    checked_int(tight_cap, "tight_cap", 0)
    if sample is None:
        if seed is not None:
            raise ValueError("a seed needs sample mode")
        limit, kind, tip = MAX_SWEEP_SIZE, "an exhaustive", "; use sample mode"
    else:
        checked_int(sample, "sample size", 1)
        if seed is None:
            raise ValueError("sample mode needs a seed")
        checked_int(seed, "seed")
        limit, kind, tip = MAX_SAMPLE_SIZE, "a sampled", ""
    # p^alpha >= 2^alpha, so a large alpha is refused before the power is
    # built (or printed: Python will not print an int of 4300+ digits)
    if alpha >= limit.bit_length() or (size := p ** alpha) > limit:
        group = f"Z/({p})" if alpha == 1 else f"Z/({p}^{alpha})"
        raise ValueError(f"{group} is too big for {kind} sweep "
                         f"(at most {limit}){tip}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    if sample is None:
        pairs, violations, tight_count, tight = _sweep(p, size, tight_cap)
    else:
        pairs, (tight_count, violations, tight) = sample, _check(
            _draws(seed, sample, size), p, size, tight_cap, False)

    unpack = lambda prs: tuple((_mask_to_set(a, size), _mask_to_set(b, size))
                               for a, b in prs)
    return CDReport(p, alpha, pairs, unpack(violations), tight_count,
                    unpack(tight))


# ---------------------------------------------------------------------------
# coefficients of prod (x - c_i) for roots of unity c_i


def root_product_coefficients(order: int, exponents) -> list[CycloInt]:
    """Ascending x-coefficients of prod_i (x - w^(e_i)) over Z[w], each
    a list of its coefficients at w^0 .. w^(order-1) until the end: a
    factor moves every x-coefficient up a degree and subtracts it times
    w^(e_i), which rotates its list by e_i."""
    coeffs = [[1] + [0] * (order - 1)]
    for e in exponents:
        e %= order
        nxt = [[0] * order] + coeffs
        for i, c in enumerate(coeffs):
            nxt[i] = [a - b for a, b in zip(nxt[i], c[-e:] + c[:-e])]
        coeffs = nxt
    return [CycloInt(order, c) for c in coeffs]


def elementary_symmetric_roots(order: int, exponents, j: int) -> CycloInt:
    """sigma_j of the roots w^(e_i): each j-element subset adds 1 at the
    sum of its exponents mod the order."""
    coeffs = [0] * order
    for combo in combinations(tuple(exponents), j):
        coeffs[sum(combo) % order] += 1
    return CycloInt(order, coeffs)


def coefficient_divisibility_check(p: int, alpha: int, exponents) -> bool:
    """Both halves of the symmetric-function argument, on one root list.

    The x^k coefficient of prod (x - w^(e_i)) must have exactly the list
    of the signed elementary symmetric sum (-1)^(n-k) sigma_(n-k), both
    being one sum in Z[x]/(x^order - 1), and whenever that coefficient
    vanishes in Z[w] its value at 1 must be divisible by p (a prime).
    """
    order = checked_int(p, "p", 2) ** checked_int(alpha, "alpha", 1)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    exps = int_entries(exponents, "exponent")
    n = len(exps)
    for k, coeff in enumerate(root_product_coefficients(order, exps)):
        sig = elementary_symmetric_roots(order, exps, n - k).coeffs
        if coeff.coeffs != tuple((-1) ** (n - k) * c for c in sig):
            return False
        if coeff.is_zero() and coeff.eval_at_one() % p:
            return False
    return True
