"""Feasibility scans over unit difference vectors, and the root-of-unity
coefficient behind the odd-prime case.

A scan enumerates (or samples) d-vectors with every entry a unit mod n
and aggregates their feasibility into a ScanReport.  Feasibility only
depends on the multiset of differences, and a pair {x, x+d} is also a
pair with difference -d, so the verdict belongs to the folded multiset
of entries min(d_i, n - d_i); totals still count ordered vectors.  A
unit u keeps the verdict as well: x -> u*x maps a partition for d onto
one for u*d.  So find_pair_partition, the fewest-live-partners search,
runs once per unit orbit of folded multisets, and the partition it finds
is carried to every folded multiset in the orbit and re-checked there
with the independent verifier; the CLI's partition keeps the canonical
search and its first solution.  Exhaustive scans walk the folded
multisets themselves and report failures as the sorted keys that fold
to them.

The coefficient machinery evaluates two bijection sums over Z[w], w a
primitive n-th root of unity and w_i = w^(d_i):

    perm sum   (pairing form):    sum over pi of prod_i (w_i^pi(i) - w_i^(2m-1-pi(i)))
    perm2 sum  (geometric form):  sum over pi of prod_i (w_i^pi(i) + ... + w_i^(2m-2-pi(i)))

with pi ranging over bijections [m] -> {0..m-1}.  The first equals the
second times prod_i (1 - w_i).  Substituting w_i -> 1 in the second gives
m! (2m-1)!! whatever d is, which for odd prime n = 2m+1 is not divisible
by n; a value not divisible by n certifies the sum is nonzero in Z[w].
All three are permanents of matrices whose entries are coefficient
lists, each taken by one Glynn walk over packed integers: x -> 2^b maps
Z[x]/(x^n - 1) into Z/(2^(nb) - 1), and with b large enough for the
coefficient bound the b-bit digits of the result are its exact
coefficients; the value at 1 is the case n = 1.  Row i depends only on
d_i, so a bijection sum hands the permanent one row per distinct d_i
with its multiplicity, and the certificate its one row with m; the
permanent bounds and packs each group's row once and walks row
multiplicities, not sign vectors: groups of r_g equal rows take about
prod_g (r_g + 1)/2 products, the certificate (m + 1)/2 or m + 1.  Only
a bijection sum's result is made a CycloInt.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from itertools import chain, combinations_with_replacement, cycle, product
from operator import add, sub
from random import Random

from .algebra import (CycloInt, Value, checked_int, int_entries, is_prime,
                      multinomial)
from .solvers import (Infeasible, InvalidInstance, PartitionInstance,
                      find_pair_partition, universe_of, verify_solution)

MAX_SCAN_MODULUS = 2048       # n = 2039's unit-fold table takes 0.8 s
MAX_SCAN_MULTISETS = 10 ** 6  # exhaustive: n = 23's 352,716 take about 30 s


def units_mod(n: int) -> tuple[int, ...]:
    """Residues in 1..n-1 coprime to n, ascending."""
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


# ---------------------------------------------------------------------------
# scanning


class ScanReport(Value):
    """Aggregate of one scan, a plain value: two identical scans give
    equal reports.

    instances_total counts ordered d-vectors (units^m for exhaustive runs,
    the draw count for sampled ones).  failures holds one sorted
    representative per infeasible multiset, in ascending order; all
    orderings of a multiset stand or fall together, so the list is empty
    exactly when every scanned vector was feasible.
    """

    __slots__ = ("n", "universe", "instances_total", "instances_feasible",
                 "failures")

    def to_json(self) -> dict:
        return {"n": self.n, "universe": self.universe,
                "total": self.instances_total,
                "feasible": self.instances_feasible,
                "failures": [list(f) for f in self.failures]}


def _orbit_verdicts(n: int):
    """Feasibility of folded difference multisets mod n, one solve per orbit.

    A folded multiset F has entries min(k, n - k): a pair with difference
    d is also one with difference -d, so every sorted key that folds to F
    has the same pairs to find.  Scaling all differences by one unit u
    keeps the verdict too, so F is solved through its orbit
    representative, the least sorted vector of min(u*h, -u*h) mod n over
    h in F.  find_pair_partition runs once per representative; its
    partition, scaled by u^-1 and each pair oriented to F's own entry,
    must pass the verifier against F's own instance each time F is asked
    for, which scans do once per F.
    """
    folds = [(pow(u, -1, n), [min(u * k % n, -u * k % n) for k in range(n)])
             for u in units_mod(n) if 2 * u < n]
    solved: dict = {}

    def feasible(folded) -> bool:
        rep, inv, fold = min((tuple(sorted(map(f.__getitem__, folded))),
                              inv, f) for inv, f in folds)
        if rep not in solved:
            solved[rep] = find_pair_partition(PartitionInstance(n, rep))
        res = solved[rep]
        if isinstance(res, Infeasible):
            return False
        dealt = []
        for h, (x, y) in zip(sorted(folded, key=fold.__getitem__), res.pairs):
            x, y = x * inv % n, y * inv % n
            dealt.append((h, x, y) if (y - x) % n == h else (h, y, x))
        dealt.sort()
        if not verify_solution(PartitionInstance(n, folded),
                               [(x, y) for _, x, y in dealt]):
            raise ArithmeticError(
                f"unverified partition for {list(folded)} mod {n}")
        return True

    return feasible


def _unit_draws(rng: Random, units, count: int):
    """count draws of rng.choice(units), made as Random.choice makes them:
    each keeps the top k = len(units).bit_length() bits of one 32-bit word
    of rng.getrandbits and is drawn again while those are >= len(units).
    Chunks of at most 2^16 words, each shifted down k bits and masked to
    the low k bits of every word, keep memory flat."""
    k = len(units).bit_length()
    while count:
        words = min(count, 1 << 16)
        low = ((1 << k) - 1) * (((1 << 32 * words) - 1) // 0xFFFFFFFF)
        tops = rng.getrandbits(32 * words) >> 32 - k & low
        drawn = [units[r] for r in struct.unpack(
            f"<{words}I", tops.to_bytes(4 * words, "little")) if r < len(units)]
        count -= len(drawn)
        yield from drawn


def _sign_variants(folded, n: int) -> list[tuple[int, ...]]:
    """The sorted keys that fold to this multiset: a class h with c copies
    becomes c - j copies of h and j of n - h, for each j in 0..c."""
    runs = [[(h,) * (c - j) + (n - h,) * j for j in range(c + 1)]
            for h, c in Counter(folded).items()]
    return [tuple(sorted(chain(*parts))) for parts in product(*runs)]


def _shard(n: int, units, u: int, failures) -> dict:
    """The record of shard u of the scan mod n: its total is
    a^m - (a-1)^m with a = #{units >= u}, and its feasible count is the
    total minus the orderings of its failing sorted keys."""
    m = n // 2
    a = len(units) - units.index(u)
    total = a ** m - (a - 1) ** m
    return {"n": n, "universe": universe_of(n), "shard": u, "total": total,
            "feasible": total - sum(multinomial(Counter(key).values())
                                    for key in failures),
            "failures": failures}


def _well_formed(rec, n: int, units) -> bool:
    """Could the scan mod n have written this record?

    Its fields are ints by the checked_int rule and lists of int keys;
    its shard u is a unit; its failures are distinct keys of m units,
    each sorted with smallest entry u, listed in order; and it is _shard
    of u and those failures, universe_of(n) included.
    """
    try:
        shard, total, feasible = (checked_int(rec[k], k)
                                  for k in ("shard", "total", "feasible"))
        keys = [int_entries(key, "failure") for key in rec["failures"]]
    except (KeyError, TypeError, ValueError):
        return False
    unit_set = set(units)
    return (shard in unit_set and keys == sorted(set(keys))
            and all(len(key) == n // 2 and key[0] == shard
                    and key == tuple(sorted(key)) and unit_set.issuperset(key)
                    for key in keys)
            and rec == _shard(n, units, shard, rec["failures"]))


def _load_checkpoint(path, n):
    """Finished shards of this scan from a checkpoint file.

    Each record is appended together with its newline, so a crash in the
    middle of an append leaves a last line without one, and only that
    line is torn.  It is dropped and cut off the file, so its shard runs
    again and the new record starts on a line of its own.  Every other
    line must parse (else json.JSONDecodeError, the file unchanged) to
    an object with an int "n" and a str "universe"; a record with this
    n must be one this scan could have written: its universe, fields,
    counts and failures agree with n and its shard.  Otherwise
    InvalidInstance names the line.  Records of other moduli are skipped.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return {}
    torn = bool(lines) and not lines[-1].endswith(b"\n")
    if torn:
        lines.pop()
    units = units_mod(n)
    done = {}
    for number, line in enumerate(lines, 1):
        if line.strip():
            rec = json.loads(line)
            if not (isinstance(rec, dict) and type(rec.get("n")) is int
                    and isinstance(rec.get("universe"), str)):
                raise InvalidInstance(
                    f"checkpoint line {number} is not a scan record")
            if rec["n"] == n:
                if not _well_formed(rec, n, units):
                    raise InvalidInstance(
                        f"checkpoint line {number} is a malformed scan record")
                done[rec["shard"]] = rec
    if torn:
        os.truncate(path, sum(map(len, lines)))
    return done


def scan_conjecture(n: int, sample: "int | None" = None,
                    seed: "int | None" = None, jobs: "int | None" = None,
                    checkpoint: "str | None" = None) -> ScanReport:
    """Scan all (or sample many) unit d-vectors mod n for feasibility.

    Odd n pairs the nonzero residues and even n pairs everything, with
    m = n // 2 differences either way.  Verdicts belong to folded
    multisets (see _orbit_verdicts): the solver runs once per unit orbit
    and the verifier once per folded multiset.

    Exhaustive mode walks the folded multisets F over the units <= n/2;
    F stands for 2^m * multinomial(Counter(F).values()) ordered vectors,
    and these weights must sum to phi(n)^m.  Results are reported in
    shards, one per unit u, covering the sorted keys whose smallest entry
    is u: a shard's total is a^m - (a-1)^m with a = #{units >= u}, and an
    infeasible F is expanded into its sign-variant sorted keys, which
    fail in the shards of their smallest entries.  With a checkpoint
    path, every shard the file lacks is appended as one JSON line after
    the single pass over F, which only solves the F that reach a missing
    shard; a file holding every shard costs no solve.

    Sample mode draws `sample` >= 1 vectors uniformly (seed mandatory, no
    checkpoint) and is deterministic for a fixed seed: entry after entry
    is Random(seed).choice(units), cut out of getrandbits words in chunks
    (see _unit_draws).  Each distinct sorted key is folded once and takes
    the verdict of the multiset it folds to.  A seed without a
    sample is an error.  The scan runs serially and does not time itself;
    `jobs` is accepted for older callers and ignored.  n > MAX_SCAN_MODULUS,
    or more than MAX_SCAN_MULTISETS folded multisets to walk, is refused.
    """
    if checked_int(n, "modulus", 3, InvalidInstance) > MAX_SCAN_MODULUS:
        raise InvalidInstance(
            f"modulus {n} is too big to scan (at most {MAX_SCAN_MODULUS})")
    if sample is None and seed is not None:
        raise InvalidInstance("a seed needs sample mode")
    m = n // 2
    units = units_mod(n)
    if sample is None and math.comb(len(units) // 2 + m - 1, m) \
            > MAX_SCAN_MULTISETS:
        raise InvalidInstance(
            f"an exhaustive scan mod {n} has more than {MAX_SCAN_MULTISETS:,} "
            "folded multisets; use sample mode (--sample)")
    verdict = _orbit_verdicts(n)

    if sample is not None:
        checked_int(sample, "sample size", 1, InvalidInstance)
        if seed is None:
            raise InvalidInstance("sample mode needs a seed")
        if checkpoint:
            raise InvalidInstance("checkpoints are for exhaustive scans only")
        rng = Random(checked_int(seed, "seed", error=InvalidInstance))
        drawn = _unit_draws(rng, units, sample * m)
        draws = Counter(map(tuple, map(sorted, zip(*[drawn] * m))))
        folds = {key: tuple(sorted(min(k, n - k) for k in key))
                 for key in draws}
        bad = {folded for folded in set(folds.values()) if not verdict(folded)}
        failures = sorted(key for key in draws if folds[key] in bad)
        feasible = sample - sum(draws[key] for key in failures)
        return ScanReport(n, universe_of(n), sample, feasible, tuple(failures))

    done = _load_checkpoint(checkpoint, n) if checkpoint else {}
    missing = {u: [] for u in units if u not in done}
    if missing:
        weights = 0
        for folded in combinations_with_replacement(units[:len(units) // 2],
                                                    m):
            weights += multinomial(Counter(folded).values())
            # a sign variant's smallest entry is a class of F, or n minus
            # the largest class when every entry is flipped
            reach = set(folded) | {n - folded[-1]}
            if not reach.isdisjoint(missing) and not verdict(folded):
                for key in _sign_variants(folded, n):
                    if key[0] in missing:
                        missing[key[0]].append(key)
        if weights << m != len(units) ** m:
            raise ArithmeticError("folded multiset weights do not add up")
        lines = []
        for u in missing:
            done[u] = _shard(n, units, u, sorted(missing[u]))
            lines.append(json.dumps(done[u], sort_keys=True) + "\n")
        if checkpoint:
            with open(checkpoint, "a", encoding="utf-8") as fh:
                fh.write("".join(lines))

    total = feasible = 0
    failures: list[tuple[int, ...]] = []
    for u in units:
        rec = done[u]
        total += rec["total"]
        feasible += rec["feasible"]
        failures.extend(map(tuple, rec["failures"]))
    if total != len(units) ** m:
        raise ArithmeticError("shard totals do not add up")
    return ScanReport(n, universe_of(n), total, feasible, tuple(failures))


# ---------------------------------------------------------------------------
# bijection sums over Z[w]


def _validated_units(n, d) -> tuple[int, ...]:
    """d reduced mod n, each entry checked to be a unit; n and d by the
    algebra.checked_int rule."""
    checked_int(n, "root order", 2, InvalidInstance)
    d = int_entries(d, "difference", InvalidInstance)
    for x in d:
        if math.gcd(x, n) != 1:
            raise InvalidInstance(f"difference {x} is not a unit mod {n}")
    return tuple(x % n for x in d)


def _glynn(groups, bits: int) -> int:
    """2^(m-1) times the permanent of a nonempty square integer matrix,
    given as a list of (row, multiplicity) groups, mod 2^bits - 1 (a
    representative, not reduced), by Glynn's formula

        2^(m-1) * perm M = sum_s s_1 ... s_m * prod_j sum_i s_i * M[i][j]

    over the sign vectors s in {1, -1}^m with s_1 = 1, summed by row
    multiplicities (exact for any split of equal rows into groups).  A
    group of r rows R with j of its signs at -1 adds (r - 2j) R to every
    column sum, with sign (-1)^j and weight C(r, j).  The classes
    (j_1, ..., j_t) are walked in reflected mixed-radix Gray-code order
    (Knuth, TAOCP 4A, 7.2.1.1, Algorithm H), so each step moves one j_g
    by one and the column sums by 2 R_g.  As s and -s give the same term,
    the first group of odd r takes only j <= (r - 1)/2; if every r is
    even, all classes are walked and the total is halved.  That is
    prod_g (r_g + 1)/2 products (twice that when every r is even), 2^(m-1)
    for groups of one row.  Each product is folded at bit `bits` after
    every factor, as 2^bits = 1 mod 2^bits - 1, so it stays near `bits`
    bits long whatever m is."""
    mask = (1 << bits) - 1
    odd = next((g for g, (_, r) in enumerate(groups) if r % 2), None)
    moves = []
    sums = [0] * len(groups[0][0])
    for g, (row, r) in enumerate(groups):
        sums = [s + r * a for s, a in zip(sums, row)]
        top = r // 2 if g == odd else r
        if top:
            c = [math.comb(r, j) for j in range(top + 1)]
            twice = [2 * a for a in row]
            # j climbs to top and comes back, turning at either end
            moves.append(cycle(
                [(sub, twice, c[j + 1], c[j], j + 1 == top)
                 for j in range(top)]
                + [(add, twice, c[j - 1], c[j], j == 1)
                   for j in range(top, 0, -1)]))
    t = len(moves)
    focus = list(range(t + 1))
    total, weight = 0, 1
    while True:
        acc = weight
        for s in sums:
            acc *= s
            acc = (acc & mask) + (acc >> bits)
        total += acc
        g = focus[0]
        if g == t:
            break
        focus[0] = 0
        op, delta, num, den, turn = next(moves[g])
        sums = list(map(op, sums, delta))
        weight = -weight * num // den
        if turn:
            focus[g] = focus[g + 1]
            focus[g + 1] = g + 1
    return total if odd is not None else (total + (total & 1) * mask) >> 1


def _permanent(groups, n: int) -> list[int]:
    """The n coefficients of the permanent of a square matrix over
    Z[x]/(x^n - 1), given as (row, multiplicity) groups, each row m
    entries and each entry its n coefficients (n = 1: an integer matrix);
    an empty matrix gives the coefficients of 1.

    Each coefficient is at most B = m! * prod_g max_j |R_g[j]|_1 ** r_g
    in size, over the groups of r_g rows R_g; with b bits per digit,
    2^(b-1) > 2B, x -> 2^b takes Z[x]/(x^n - 1) into Z/M, M = 2^(nb) - 1,
    as 2^(nb) = 1 there.  Each group's row is packed once for one Glynn
    walk over the groups (see _glynn), and the n balanced b-bit digits of
    the result mod M, over 2^(m-1), are the exact coefficients."""
    m = sum(r for _, r in groups)
    if not m:
        return [1] + [0] * (n - 1)
    bound = math.factorial(m) * math.prod(
        max(sum(map(abs, coeffs)) for coeffs in row) ** r
        for row, r in groups)
    b = bound.bit_length() + 2
    big = (1 << n * b) - 1
    packed = [([sum(c << b * t for t, c in enumerate(coeffs))
                for coeffs in row], r) for row, r in groups]
    # 2^(b-1) added to every digit makes each one nonnegative and < 2^b
    half = big // ((1 << b) - 1) << (b - 1)
    value = (_glynn(packed, n * b) * pow(2, 1 - m, big) + half) % big
    return [(value >> b * t & (1 << b) - 1) - (1 << b - 1)
            for t in range(n)]


def _bijection_sum(n: int, d, terms):
    """Permanent over Z[w] of the m x m matrix whose entry (i, c) is
    sum of sign * w_i^e over (e, sign) in terms(m, c), w_i = w^(d_i);
    row i depends only on d_i, so each distinct d_i is one group."""
    d = _validated_units(n, d)
    m = len(d)
    groups = []
    for di, r in Counter(d).items():
        row = [[0] * n for _ in range(m)]
        for c, coeffs in enumerate(row):
            for e, sign in terms(m, c):
                coeffs[di * e % n] += sign
        groups.append((row, r))
    return CycloInt(n, _permanent(groups, n))


def permanent2_coefficient(n: int, d) -> CycloInt:
    """The geometric-form bijection sum over Z[w].

    Entry (i, c) is the explicit sum w_i^c + w_i^(c+1) + ... + w_i^(2m-2-c)
    with w_i = w^(d_i); no division anywhere.
    """
    return _bijection_sum(
        n, d, lambda m, c: [(e, 1) for e in range(c, 2 * m - 1 - c)])


def permanent_coefficient(n: int, d) -> CycloInt:
    """The pairing-form bijection sum: entry (i, c) is
    w_i^c - w_i^(2m-1-c)."""
    return _bijection_sum(n, d, lambda m, c: ((c, 1), (2 * m - 1 - c, -1)))


def double_factorial_odd(k: int) -> int:
    """k!! for odd k >= -1: the product 1 * 3 * ... * k."""
    return math.prod(range(1, k + 1, 2))


def prime_nonzero_certificate(p: int, d) -> tuple[int, bool]:
    """Certify the geometric-form sum is nonzero in Z[w] for odd prime p.

    Evaluates the sum's representative at w = 1, checks the value equals
    m! (2m-1)!! independently of d, and reports whether it escapes
    divisibility by p.  If it does, the sum cannot vanish: a vanishing
    element of Z[w] has its value at 1 divisible by p.  Evaluation at 1
    is a ring homomorphism, so the value is the permanent of the integer
    matrix with entries 2m-1-2c, taken over the integers.
    """
    if checked_int(p, "p", 3, InvalidInstance) % 2 == 0 or not is_prime(p):
        raise InvalidInstance(f"{p} is not an odd prime")
    m = (p - 1) // 2
    d = _validated_units(p, d)
    if len(d) != m:
        raise InvalidInstance(f"need {m} differences, got {len(d)}")
    row = [(2 * m - 1 - 2 * c,) for c in range(m)]
    [value] = _permanent([(row, m)], 1)
    expected = math.factorial(m) * double_factorial_odd(2 * m - 1)
    if value != expected:
        raise ArithmeticError(
            f"value at 1 is {value}, expected {expected}")
    return value, value % p != 0
