"""Feasibility scans over unit difference vectors, and the root-of-unity
coefficient behind the odd-prime case.

A scan enumerates (or samples) d-vectors with every entry a unit mod n
and aggregates their feasibility into a ScanReport.  Feasibility only
depends on the multiset of differences, so each sorted multiset stands
for all its orderings and totals still count ordered vectors.  Two
symmetries keep the verdict as well: a pair {x, x+d} is also a pair with
difference -d, and x -> u*x for a unit u maps a partition for d onto one
for u*d.  So the solver runs once per orbit, and the partition it finds
is carried back to every multiset in the orbit and re-checked there with
the independent verifier.

The coefficient machinery evaluates two bijection sums over Z[w], w a
primitive n-th root of unity and w_i = w^(d_i):

    perm sum   (pairing form):    sum over pi of prod_i (w_i^pi(i) - w_i^(2m-1-pi(i)))
    perm2 sum  (geometric form):  sum over pi of prod_i (w_i^pi(i) + ... + w_i^(2m-2-pi(i)))

with pi ranging over bijections [m] -> {0..m-1}.  The first equals the
second times prod_i (1 - w_i).  Substituting w_i -> 1 in the second gives
m! (2m-1)!! whatever d is, which for odd prime n = 2m+1 is not divisible
by n; a value not divisible by n certifies the sum is nonzero in Z[w].
All three are permanents, taken by one Ryser routine over any commutative
ring: Z[w] for the sums, the integers for the value at 1.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from random import Random

from .algebra import CycloInt, is_prime
from .dyson import multinomial
from .solvers import (Infeasible, InvalidInstance, PartitionInstance,
                      solve_pair_partition, verify_solution)


def units_mod(n: int) -> tuple[int, ...]:
    """Residues in 1..n-1 coprime to n, ascending."""
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


# ---------------------------------------------------------------------------
# scanning


@dataclass(frozen=True)
class ScanReport:
    """Aggregate of one scan, a plain value: two identical scans give
    equal reports.

    instances_total counts ordered d-vectors (units^m for exhaustive runs,
    the draw count for sampled ones).  failures holds one sorted
    representative per infeasible multiset, in ascending order; all
    orderings of a multiset stand or fall together, so the list is empty
    exactly when every scanned vector was feasible.
    """

    n: int
    universe: str
    instances_total: int
    instances_feasible: int
    failures: tuple[tuple[int, ...], ...]

    @property
    def all_feasible(self) -> bool:
        return self.instances_feasible == self.instances_total

    def to_json(self) -> dict:
        return {"n": self.n, "universe": self.universe,
                "total": self.instances_total,
                "feasible": self.instances_feasible,
                "failures": [list(f) for f in self.failures]}


def _orbit_verdicts(n: int, universe: str):
    """Feasibility of sorted difference multisets mod n, one solve per orbit.

    Flipping a difference and scaling all of them by one unit u keep the
    verdict, so a key is solved through its orbit representative: the
    least sorted vector of folded values min(u*k, -u*k) mod n.  The
    representative's partition, scaled by u^-1 and each pair oriented to
    the key's own difference, must pass the verifier for the key itself.
    """
    folds = [(pow(u, -1, n), [min(u * k % n, -u * k % n) for k in range(n)])
             for u in units_mod(n)]
    solved: dict = {}

    def feasible(key) -> bool:
        rep, inv, fold = min((sorted(map(f.__getitem__, key)), inv, f)
                             for inv, f in folds)
        rep = tuple(rep)
        if rep not in solved:
            solved[rep] = solve_pair_partition(
                PartitionInstance(n, rep, universe))
        res = solved[rep]
        if isinstance(res, Infeasible):
            return False
        dealt = []
        for k, (x, y) in zip(sorted(key, key=fold.__getitem__), res.pairs):
            x, y = x * inv % n, y * inv % n
            dealt.append((k, (x, y) if (y - x) % n == k else (y, x)))
        dealt.sort()
        if not verify_solution(PartitionInstance(n, key, universe),
                               [pair for _, pair in dealt]):
            raise ArithmeticError(
                f"unverified partition for {list(key)} mod {n}")
        return True

    return feasible


def _tally(counts, feasible) -> tuple[int, int, list]:
    """Total, feasible count and failures of a map from sorted key to the
    number of ordered vectors it stands for, walked in key order."""
    total = good = 0
    failures = []
    for key, count in sorted(counts.items()):
        total += count
        if feasible(key):
            good += count
        else:
            failures.append(key)
    return total, good, failures


def _complete(line: bytes) -> bool:
    """Is this checkpoint line a whole record, newline included?"""
    try:
        json.loads(line)
    except ValueError:
        return False
    return line.endswith(b"\n")


def _load_checkpoint(path, n, universe):
    """Finished shards of this scan from a checkpoint file.

    Each record is appended as one line with its newline, so a crash in
    the middle of an append leaves a last line that is cut short.  That
    line is dropped and cut off the file, so its shard runs again and the
    new record starts on a line of its own.  An unparsable line anywhere
    else raises.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return {}
    torn = bool(lines) and not _complete(lines[-1])
    if torn:
        lines.pop()
    done = {}
    for line in lines:
        if line.strip():
            rec = json.loads(line)
            if rec.get("n") == n and rec.get("universe") == universe:
                done[rec["shard"]] = rec
    if torn:
        os.truncate(path, sum(map(len, lines)))
    return done


def scan_conjecture(n: int, sample: "int | None" = None,
                    seed: "int | None" = None, jobs: "int | None" = None,
                    checkpoint: "str | None" = None) -> ScanReport:
    """Scan all (or sample many) unit d-vectors mod n for feasibility.

    Odd n pairs the nonzero residues and even n pairs everything, with
    m = n // 2 differences either way.  Exhaustive mode shards the
    multisets by their smallest entry, each weighted by its number of
    orderings; with a checkpoint path, finished shards are appended as
    JSON lines and skipped on rerun.  Sample mode draws `sample` >= 1
    vectors uniformly (seed mandatory, no checkpoint) and is deterministic
    for a fixed seed; a seed without a sample is an error.  The scan runs
    serially, solves each symmetry orbit once and does not time itself;
    `jobs` is accepted for older callers and ignored.
    """
    if n < 3:
        raise InvalidInstance("modulus too small to scan")
    if sample is None and seed is not None:
        raise InvalidInstance("a seed needs sample mode")
    universe = "nonzero" if n % 2 else "full"
    m = n // 2
    units = units_mod(n)
    verdict = _orbit_verdicts(n, universe)

    if sample is not None:
        if sample < 1:
            raise InvalidInstance(f"sample size {sample} is not positive")
        if seed is None:
            raise InvalidInstance("sample mode needs a seed")
        if checkpoint:
            raise InvalidInstance("checkpoints are for exhaustive scans only")
        rng = Random(seed)
        draws = Counter(tuple(sorted(rng.choice(units) for _ in range(m)))
                        for _ in range(sample))
        total, feasible, failures = _tally(draws, verdict)
        return ScanReport(n, universe, total, feasible, tuple(failures))

    total = feasible = 0
    failures: list[tuple[int, ...]] = []
    done = _load_checkpoint(checkpoint, n, universe) if checkpoint else {}
    for u in units:
        if u not in done:
            tail = [v for v in units if v >= u]
            keys = ((u,) + rest
                    for rest in combinations_with_replacement(tail, m - 1))
            shard_total, shard_feasible, shard_failures = _tally(
                {key: multinomial(Counter(key).values()) for key in keys},
                verdict)
            done[u] = {"n": n, "universe": universe, "shard": u,
                       "total": shard_total, "feasible": shard_feasible,
                       "failures": shard_failures}
            if checkpoint:
                with open(checkpoint, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(done[u], sort_keys=True) + "\n")
        rec = done[u]
        total += rec["total"]
        feasible += rec["feasible"]
        failures.extend(map(tuple, rec["failures"]))
    if total != len(units) ** m:
        raise ArithmeticError("shard totals do not add up")
    return ScanReport(n, universe, total, feasible, tuple(failures))


# ---------------------------------------------------------------------------
# bijection sums over Z[w]


def _validated_units(n, d) -> tuple[int, ...]:
    if n < 2:
        raise InvalidInstance(f"root order {n} too small")
    out = tuple(int(x) % n for x in d)
    for x in out:
        if math.gcd(x, n) != 1:
            raise InvalidInstance(f"difference {x} is not a unit mod {n}")
    return out


def _permanent(matrix, zero):
    """Permanent of a square matrix over any commutative ring, by Ryser's
    inclusion-exclusion formula

        perm M = (-1)^m * sum_S (-1)^|S| * prod_i sum_{j in S} M[i][j]

    over the column sets S, walked in Gray-code order so one column
    enters or leaves per step.  zero is the ring's zero (CycloInt(n) for
    the bijection sums, so the result is exact in Z[x]/(x^n - 1); the int
    0 for the certificate); an empty matrix gives zero + 1."""
    m = len(matrix)
    if not m:
        return zero + 1
    rowsums = [zero] * m
    total = zero
    prev = 0
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            rowsums = [rs + matrix[i][j] for i, rs in enumerate(rowsums)]
        else:
            rowsums = [rs - matrix[i][j] for i, rs in enumerate(rowsums)]
        prev = gray
        prod = math.prod(rowsums[1:], start=rowsums[0])
        if gray.bit_count() % 2:
            total = total - prod
        else:
            total = total + prod
    return -total if m % 2 else total


def _bijection_sum(n: int, d, terms):
    """Permanent over Z[w] of the m x m matrix whose entry (i, c) is
    sum of sign * w_i^e over (e, sign) in terms(m, c), w_i = w^(d_i)."""
    d = _validated_units(n, d)
    m = len(d)
    matrix = []
    for di in d:
        row = []
        for c in range(m):
            coeffs = [0] * n
            for e, sign in terms(m, c):
                coeffs[di * e % n] += sign
            row.append(CycloInt(n, coeffs))
        matrix.append(row)
    return _permanent(matrix, CycloInt(n))


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
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidInstance(f"{p} is not an odd prime")
    m = (p - 1) // 2
    d = _validated_units(p, d)
    if len(d) != m:
        raise InvalidInstance(f"need {m} differences, got {len(d)}")
    row = [2 * m - 1 - 2 * c for c in range(m)]
    value = _permanent([row] * m, 0)
    expected = math.factorial(m) * double_factorial_odd(2 * m - 1)
    if value != expected:
        raise ArithmeticError(
            f"value at 1 is {value}, expected {expected}")
    return value, value % p != 0


def divisibility_lemma_check(coeffs, p: int) -> bool:
    """Does this integer polynomial obey: vanishing at a primitive p-th
    root of unity forces p to divide the value at 1?

    Vacuously true when the polynomial does not vanish there.
    """
    f = CycloInt(p, tuple(int(c) for c in coeffs))
    if not f.is_zero():
        return True
    return f.eval_at_one() % p == 0
