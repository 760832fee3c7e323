"""Backtracking solvers with certified infeasibility.

Three search problems run on one driver, _search, which keeps its path
on an explicit stack, so search depth has no limit.  The problems are
pair partitions of Z/(n) with prescribed differences, pair partitions of
(F_p)^k where each pair picks its difference from a private basis, and
translate packings X_i + t_i with t_i drawn from a finite T_i.  Each
search takes the smallest object not yet dealt with, except the one
scans use, find_pair_partition, which takes the uncovered element with
the fewest live partners and cuts a state where some element has no
live partner or some difference fewer free placements than copies left;
the CLI's partition keeps the canonical first solution, cutting the
same states on an odd modulus; on an even one, or to count the tree
where the cuts find nothing, it skips dead states it has seen.  All
three pair searches key a state by its covered set as bits, the int
_search hands it; the table search adds fields above bit n that count
the copies of each difference used.  A solver either returns a
solution (deterministic, first in its branch order) or an Infeasible
certificate counting the nodes of its whole search tree, subtrees read
from a table included.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

from .algebra import (Value, checked_int, int_entries, is_basis, is_prime,
                      json_errors, json_value, vec_add, vec_sub)

DEAD_STATES = 1 << 18   # the canonical and vector searches clear a table this big
MAX_TRIAL_DIVISOR = 1 << 22   # the packing report factors n up to here


class InvalidInstance(ValueError):
    """Instance data breaks a structural requirement."""


class Infeasible(Value):
    """A completed exhaustive search that found nothing.

    nodes counts the states of the exhausted search tree; it makes the
    certificate auditable and keeps reports comparable across runs.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: int):
        object.__setattr__(self, "nodes", nodes)

    def to_json(self) -> dict:
        return {"result": "infeasible", "nodes": self.nodes}


def _search(node) -> "Infeasible | None":
    """Depth-first search over the states node(key) generates.

    A state yields -1 if it is complete; otherwise each yield applies one
    move and gives the child's key, and resuming undoes the move.
    Returns None at the first complete state, its path's moves applied,
    or Infeasible counting every state expanded."""
    nodes = 1
    stack = [node(0)]
    while stack:
        key = next(stack[-1], None)
        if key is None:
            stack.pop()
        elif key < 0:
            return None
        else:
            nodes += 1
            stack.append(node(key))
    return Infeasible(nodes)


# ---------------------------------------------------------------------------
# pair partitions of Z/(n)


class PartitionInstance(Value):
    """Pair up a universe inside Z/(n) so that pair i has difference d[i].

    universe "nonzero" covers Z/(n) minus 0 and needs odd n; "full"
    covers all of Z/(n) and needs even n; either way there are n // 2
    pairs.  Differences are reduced mod n and must be nonzero; they need
    not be units.
    """

    __slots__ = ("n", "d", "universe")

    def __init__(self, n: int, d, universe: str = "nonzero"):
        n = checked_int(n, "modulus", 2, InvalidInstance)
        d = tuple([x % n for x in int_entries(d, "difference", InvalidInstance)])
        if 0 in d:
            raise InvalidInstance("zero difference")
        if universe not in ("nonzero", "full"):
            raise InvalidInstance(f"unknown universe {universe!r}")
        if n % 2 != (universe == "nonzero"):    # nonzero: odd n, full: even
            raise InvalidInstance(f"universe {universe!r} needs an "
                                  f"{'even' if n % 2 else 'odd'} modulus")
        if len(d) != n // 2:
            raise InvalidInstance(f"need {n // 2} differences, got {len(d)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "universe", universe)

    @property
    def m(self) -> int:
        return len(self.d)

    def to_json(self) -> dict:
        return {"n": self.n, "universe": self.universe, "d": list(self.d)}

    @classmethod
    @json_errors("instance", InvalidInstance)
    def from_json(cls, doc: dict) -> "PartitionInstance":
        n = json_value(doc["n"], "n")
        universe = doc.get("universe", "nonzero" if n % 2 else "full")
        return cls(n, tuple(json_value(x, "d") for x in doc["d"]),
                   json_value(universe, "universe", str))


class PairPartition(Value):
    """Pairs (x_i, y_i) with y_i - x_i = d_i, indexed like the instance."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", pairs)

    def to_json(self) -> dict:
        return {"result": "feasible", "pairs": [list(p) for p in self.pairs]}


def solve_pair_partition(inst: PartitionInstance) -> PairPartition | Infeasible:
    """Depth-first search for a pair partition, or proof there is none.

    Branching: take the smallest uncovered universe element e, then for
    each distinct remaining difference value (ascending) try the partner
    above (pair (e, e+d)) and then the partner below (pair (e-d, e)).
    Equal differences are collapsed into multiset counts; the returned
    pairs are re-dealt to indices in the order the instance listed them.
    On an odd modulus this order runs first with the cuts of
    find_pair_partition, which drop only states with no partition below
    them, so the first partition stays the same.  It is passed over when
    g = gcd(n, d_1, ..., d_m) > 1: each pair stays in one coset of gZ/(n),
    and the g - 1 cosets without 0 have odd size n/g, so there is no
    partition.  On an even modulus, or if the cut search is passed over
    or finds none, dead states are kept with their subtrees' node counts
    and not searched again; Infeasible.nodes counts the whole canonical
    tree.
    """
    if inst.universe == "nonzero" and math.gcd(inst.n, *inst.d) == 1:
        found = _cut_search(inst, lambda free, lives: free)
        if not isinstance(found, Infeasible):
            return found
    n = inst.n
    counts, diffs, universe = _differences(inst)
    chosen: list[tuple[int, int, int]] = []
    # a move (d, s, n - s, unit) pairs e with e + s: s = d gives (e, e+d),
    # s = n - d gives (e-d, e), once at d = n/2; unit is 1 in the key's
    # field for d, as wide as d's count, above bit n
    moves, shift = [], n
    for dv, rv, half in diffs:
        moves.append((dv, dv, rv, 1 << shift))
        if not half:
            moves.append((dv, rv, dv, 1 << shift))
        shift += counts[dv].bit_length()
    dead: dict[int, int] = {}       # key -> nodes in its subtree

    def node(key):
        free = universe & ~key
        if not free:
            yield -1
            return
        bit = free & -free
        e = bit.bit_length() - 1
        covered = key | bit
        nodes = 1
        for dv, s, rs, unit in moves:
            if not counts[dv]:
                continue
            y = e + s if e < rs else e - rs
            if not free >> y & 1:
                continue
            child = covered + (1 << y) + unit
            seen = dead.get(child)
            if seen:
                nodes += seen
                continue
            counts[dv] -= 1
            chosen.append((e, y, dv) if s == dv else (y, e, dv))
            yield child
            nodes += dead[child]
            chosen.pop()
            counts[dv] += 1
        if len(dead) >= DEAD_STATES:
            dead.clear()                # costs only re-search
        dead[key] = nodes

    if _search(node):
        return Infeasible(dead[0])  # the root's subtree is the whole tree
    return _deal(inst, chosen)


def find_pair_partition(inst: PartitionInstance) -> PairPartition | Infeasible:
    """Depth-first search for a pair partition, or proof there is none,
    branching on the uncovered element e with the fewest live partners:
    remaining differences d with e + d or e - d uncovered, d = n/2 once.
    Counts are capped at 3, ties go to the smallest e, and the partition
    found need not be solve_pair_partition's first."""
    return _cut_search(inst, _fewest_partners)


def _fewest_partners(free: int, lives) -> int:
    """The uncovered elements with one live partner, else two, else all."""
    one = two = three = 0       # bit-sliced counts, capped at 3
    for _, _, up, down in lives:
        either = up | down
        three |= two & either | one & up & down
        two |= one & either | up & down
        one |= either
    return free & ~two or free & ~three or free


def _cut_search(inst: PartitionInstance, pick) -> PairPartition | Infeasible:
    """Depth-first search from the lowest element e of pick(free, lives),
    the uncovered elements as bits and each difference's live x, trying
    partners by difference ascending, e + d before e - d.

    A state is cut where some e has no live partner, or where some d with
    c copies left has fewer than c uncovered x with x + d uncovered (2c at
    d = n/2, where both ends of each pair are such an x); the cuts drop
    only states with no partition below them.
    """
    counts, diffs, universe = _differences(inst)
    n = inst.n
    chosen: list[tuple[int, int, int]] = []

    def node(key):
        free = universe & ~key
        if not free:
            yield -1
            return
        one = 0
        lives = []
        twice = free | free << n        # twice >> s: free rotated down s
        for dv, rv, half in diffs:
            if left := counts[dv]:
                up = free & twice >> dv
                # the pairs (x, x + d) left need distinct x in up; at
                # d = n/2 up holds both ends of each
                if up.bit_count() < left << half:
                    return
                down = 0 if half else free & twice >> rv
                lives.append((dv, rv, up, down))
                one |= up | down
        if free & ~one:
            return
        bits = pick(free, lives)
        bit = bits & -bits
        e = bit.bit_length() - 1
        key |= bit
        for dv, rv, up, down in lives:
            if up >> e & 1:
                y = e + dv if e < rv else e - rv
                counts[dv] -= 1
                chosen.append((e, y, dv))
                yield key | 1 << y
                chosen.pop()
                counts[dv] += 1
            if down >> e & 1:
                x = e - dv if e >= dv else e + rv
                counts[dv] -= 1
                chosen.append((x, e, dv))
                yield key | 1 << x
                chosen.pop()
                counts[dv] += 1

    return _search(node) or _deal(inst, chosen)


def _differences(inst: PartitionInstance):
    """The multiset of differences as counts; each value d ascending as
    (d, n - d, whether d = n/2); and the universe as bits."""
    n = inst.n
    counts: dict[int, int] = {}
    for x in inst.d:
        counts[x] = counts.get(x, 0) + 1
    return (counts, tuple((dv, n - dv, 2 * dv == n) for dv in sorted(counts)),
            (1 << n) - 1 - (inst.universe == "nonzero"))


def _deal(inst: PartitionInstance, chosen) -> PairPartition:
    """Hand the found pairs (x, y, d) out to the instance's indices, equal
    differences in the order the instance lists them."""
    queues: dict[int, deque[tuple[int, int]]] = {}
    for x, y, dv in chosen:
        queues.setdefault(dv, deque()).append((x, y))
    return PairPartition(tuple(queues[dv].popleft() for dv in inst.d))


# ---------------------------------------------------------------------------
# pair partitions of (F_p)^k with basis alternatives


class VectorPartitionInstance(Value):
    """(p^k - 1)/2 pair slots over (F_p)^k, one basis per slot.

    Slot i must realize some basis vector v_{i,j} (up to sign handled by
    orientation) as its pair difference y - x.  check is a construction
    flag, not a field: check=False skips the basis validation so that
    deliberately broken difference systems can still be fed to the search.
    """

    __slots__ = ("p", "k", "bases")

    def __init__(self, p: int, k: int, bases, check: bool = True):
        p = checked_int(p, "p", 2, InvalidInstance)
        k = checked_int(k, "k", 1, InvalidInstance)
        bases = tuple(tuple(tuple(c % p for c in int_entries(
            v, "coordinate", InvalidInstance)) for v in basis) for basis in bases)
        # p^k >= 2^(k (bits of p - 1)): from 2^13 bits on, refused before
        # p^k is built; below, m has at most 3,909 digits (p = 3), printable
        if k * (p.bit_length() - 1) >= 1 << 13:
            raise InvalidInstance(
                f"need ({p}^{k} - 1)/2 bases, got {len(bases)}")
        m = (p ** k - 1) // 2
        if len(bases) != m:
            raise InvalidInstance(f"need {m} bases, got {len(bases)}")
        for basis in bases:
            if len(basis) != k or any(len(v) != k for v in basis):
                raise InvalidInstance("basis shape mismatch")
        self._fill(p, k, bases)
        if check:
            if p % 2 == 0 or not is_prime(p):
                raise InvalidInstance(f"{p} is not an odd prime")
            for i, basis in enumerate(bases):
                if not is_basis(basis, p, k):
                    raise InvalidInstance(f"slot {i} does not hold a basis")

    @property
    def m(self) -> int:
        return len(self.bases)

    @classmethod
    @json_errors("instance", InvalidInstance)
    def from_json(cls, doc: dict) -> "VectorPartitionInstance":
        bases = tuple(tuple(tuple(json_value(c, "bases") for c in v)
                            for v in basis) for basis in doc["bases"])
        return cls(json_value(doc["p"], "p"), json_value(doc["k"], "k"), bases,
                   check=json_value(doc.get("check", True), "check", bool))


def solve_vector_partition(inst: VectorPartitionInstance):
    """Pair the nonzero vectors of (F_p)^k, or certify Infeasible.

    Returns (pairs, g) on success: pairs[i] = (x, y) and g[i] = j with
    y - x = v_{i,j}.  Branching: smallest (lexicographic) uncovered
    vector, unused slots in ascending order, coordinates j ascending,
    partner e + v before partner e - v.  Each element's candidate pairs
    for v_{i,j} are computed once per search, at the first visit that
    reaches them, and read from a table at every later one; the table
    is cleared at DEAD_STATES entries.
    """
    p, k, m = inst.p, inst.k, inst.m
    universe = list(product(range(p), repeat=k))
    bits = {v: 1 << i for i, v in enumerate(universe)}     # its bit in a key
    nonzero = (1 << len(universe)) - 2      # bit 0, the zero vector, stays out
    chosen: list[tuple[tuple[int, ...], tuple[int, ...], int] | None] = [None] * m
    # (e * m + i) * k + j -> the moves (e, e + v, j) and (e - v, e, j) for
    # v = v_{i,j}, each with its partner's bit
    moves: dict[int, tuple] = {}

    def node(key):
        free = nonzero & ~key
        if not free:
            yield -1
            return
        bit = free & -free
        free ^= bit                         # e is no partner of its own
        ei = bit.bit_length() - 1
        for i in range(m):
            if chosen[i] is not None:
                continue
            at = (ei * m + i) * k
            for j in range(k):
                pair = moves.get(at + j)
                if pair is None:
                    e, v = universe[ei], inst.bases[i][j]
                    y, x = vec_add(e, v, p), vec_sub(e, v, p)
                    if len(moves) >= DEAD_STATES:
                        moves.clear()       # costs only recomputing
                    pair = moves[at + j] = (((e, y, j), bits[y]),
                                            ((x, e, j), bits[x]))
                for move, partner in pair:
                    if free & partner:
                        chosen[i] = move
                        yield key | bit | partner
                        chosen[i] = None

    return _search(node) or (tuple((x, y) for x, y, _ in chosen),
                             tuple(j for _, _, j in chosen))


# ---------------------------------------------------------------------------
# translate packings


class PackingInstance(Value):
    """Finite sets X_i to be translated by representatives t_i in T_i.

    ambient is a modulus n (arithmetic in Z/(n)) or the string
    "integers" for exact integer arithmetic with finite explicit sets.
    d is the packing parameter the hypothesis report measures against.
    """

    __slots__ = ("ambient", "X", "T", "d")

    def __init__(self, ambient: "int | str", X, T, d: int):
        mod = None if ambient == "integers" else \
            checked_int(ambient, "modulus", 2, InvalidInstance)
        checked_int(d, "packing parameter", 1, InvalidInstance)
        if not X:
            raise InvalidInstance("no sets to pack")
        if len(X) != len(T):
            raise InvalidInstance("need one T per X")

        def clean(s):
            vals = {v % mod if mod else v
                    for v in int_entries(s, "element", InvalidInstance)}
            if not vals:
                raise InvalidInstance("empty set")
            return tuple(sorted(vals))

        self._fill(ambient, tuple(map(clean, X)), tuple(map(clean, T)), d)

    @property
    def m(self) -> int:
        return len(self.X)

    @property
    def modulus(self) -> "int | None":
        """The modulus n, or None over the integers."""
        return None if self.ambient == "integers" else self.ambient

    def to_json(self) -> dict:
        return {"n": self.ambient, "X": [list(s) for s in self.X],
                "T": [list(s) for s in self.T], "d": self.d}

    @classmethod
    @json_errors("instance", InvalidInstance)
    def from_json(cls, doc: dict) -> "PackingInstance":
        n = doc["n"] if doc["n"] == "integers" else json_value(doc["n"], "n")
        X, T = (tuple(tuple(json_value(v, key) for v in s) for s in doc[key])
                for key in ("X", "T"))
        return cls(n, X, T, json_value(doc["d"], "d"))


def solve_translate_packing(inst: PackingInstance):
    """First t-vector (lexicographic, T_i ascending) with disjoint
    translates X_i + t_i, or Infeasible."""
    mod = inst.modulus
    m = inst.m
    occupied: set[int] = set()
    t: list[int] = [0] * m

    def node(i):
        if i == m:
            yield -1
            return
        base = inst.X[i]
        for cand in inst.T[i]:
            translate = [(x + cand) % mod for x in base] if mod \
                else [x + cand for x in base]
            if occupied.isdisjoint(translate):
                occupied.update(translate)
                t[i] = cand
                yield i + 1
                occupied.difference_update(translate)

    return _search(node) or tuple(t)


class PackingReport(Value):
    """Which packing hypotheses an instance satisfies.

    factorial_nonzero: the packing coefficient +-(md)!/(d!)^m does not
    vanish in the ambient ring.
    difference_bound: |X_i - X_j| <= 2d for all i < j (difference sets
    computed explicitly).  translate_bound: |T_i| >= (m-1)d + 1.
    squares_bound: sum of ceil(|X_i|^2 / 2) < p; only meaningful over a
    prime modulus with every T_i the full ring, else None.  The derived
    main_hypotheses is the conjunction of the first three, and guarantees
    lists which sufficient conditions ("main", "squares") apply in full.
    """

    __slots__ = ("m", "d", "factorial_nonzero", "difference_bound",
                 "translate_bound", "squares_bound")

    @property
    def main_hypotheses(self) -> bool:
        return (self.factorial_nonzero and self.difference_bound
                and self.translate_bound)

    @property
    def guarantees(self) -> tuple[str, ...]:
        return tuple(name for name, holds in (("main", self.main_hypotheses),
                                              ("squares", self.squares_bound))
                     if holds)

    def to_json(self) -> dict:
        return {"m": self.m, "d": self.d,
                "factorial_nonzero": self.factorial_nonzero,
                "difference_bound": self.difference_bound,
                "translate_bound": self.translate_bound,
                "squares_bound": self.squares_bound,
                "guarantees": list(self.guarantees)}


def _divides_packing_coefficient(n: int, m: int, d: int) -> bool:
    """Whether n divides (md)!/(d!)^m, prime by prime, each prime's power
    by Legendre's formula.  The primes of n come from trial division up
    to min(md, sqrt n); one above md does not divide (md)!."""
    def times(q):       # sum over i >= 1 of floor(md/q^i) - m floor(d/q^i)
        v, x, y = 0, m * d, d
        while x:
            x, y = x // q, y // q
            v += x - m * y
        return v

    left, q = n, 2
    while q * q <= left and q <= m * d:
        if q > MAX_TRIAL_DIVISOR:
            raise InvalidInstance(f"modulus {n}: the packing report tries "
                                  f"trial divisors up to {MAX_TRIAL_DIVISOR}")
        e = 0
        while left % q == 0:
            left, e = left // q, e + 1
        if e and times(q) < e:
            return False
        q += 1
    return left == 1 or left <= m * d and times(left) > 0


def check_packing_hypotheses(inst: PackingInstance) -> PackingReport:
    m, d = inst.m, inst.d
    mod = inst.modulus
    # (md)!/(d!)^m, the packing coefficient up to a sign
    factorial_ok = mod is None or not _divides_packing_coefficient(mod, m, d)
    diff_ok = all(len({(a - b) % mod if mod else a - b
                       for a in inst.X[i] for b in inst.X[j]}) <= 2 * d
                  for i in range(m) for j in range(i + 1, m))
    trans_ok = all(len(ts) >= (m - 1) * d + 1 for ts in inst.T)

    squares: "bool | None" = None
    # distinct residues: T_i is the ring iff it has mod elements
    if mod and all(len(ts) == mod for ts in inst.T) and is_prime(mod):
        squares = sum((len(xs) ** 2 + 1) // 2 for xs in inst.X) < mod

    return PackingReport(m, d, factorial_ok, diff_ok, trans_ok, squares)


# ---------------------------------------------------------------------------
# the pair-partition problem as a translate packing


def partition_as_packing(inst: PartitionInstance) -> PackingInstance:
    """Encode a nonzero-universe partition instance as a packing:
    X_i = {0, d_i}, T_i omits 0 and -d_i, packing parameter 2."""
    if inst.universe != "nonzero":
        raise InvalidInstance("only the nonzero universe reduces to a packing")
    n = inst.n
    X = tuple((0, dv) for dv in inst.d)
    T = tuple(tuple(x for x in range(n) if x != 0 and x != (n - dv) % n)
              for dv in inst.d)
    return PackingInstance(n, X, T, 2)


def packing_to_partition(inst: PartitionInstance, t) -> PairPartition:
    """Read a t-vector of the encoded packing back as pairs (t_i, t_i+d_i)."""
    n = inst.n
    return PairPartition(tuple((ti % n, (ti + dv) % n)
                               for ti, dv in zip(t, inst.d)))


# ---------------------------------------------------------------------------
# independent certification


def _ends(pair, vectors: bool = False):
    """A solution pair's two ends, checked to be ints (or int sequences)."""
    try:
        x, y = pair
        if vectors:
            return int_entries(x, "coordinate"), int_entries(y, "coordinate")
        return checked_int(x, "end"), checked_int(y, "end")
    except (TypeError, ValueError):
        raise InvalidInstance(f"malformed pair {pair!r}") from None


def _sequence(part, what: str = "solution", ints: bool = False) -> tuple:
    """A solution's pairs, or (ints) basis choice or translates, as a tuple."""
    try:
        return int_entries(part, what) if ints else tuple(part)
    except (TypeError, ValueError):
        raise InvalidInstance(f"malformed {what} {part!r}") from None


def verify_solution(instance, solution) -> bool:
    """Re-check every invariant of a solution from scratch.

    Shares no state with the solvers: distinctness, coverage, the
    difference equations and disjointness are all recomputed.  A pair
    partition takes one pass: each difference is checked where it is met
    and its ends, mod n, are ORed into a mask of bits; the 2m ends cover
    the universe's 2m elements once each iff the mask is the universe.  An
    Infeasible value is not a solution and yields False; a pair that is
    not two ints (two int vectors), a list of pairs, basis choices or
    translates that is not iterable, and a basis choice or translate that
    is not an int raise InvalidInstance, a bool being no int here either.
    """
    if isinstance(solution, Infeasible):
        return False

    if isinstance(instance, PartitionInstance):
        pairs = _sequence(solution.pairs if isinstance(solution, PairPartition)
                          else solution)
        n = instance.n
        if len(pairs) != instance.m:
            return False
        ends = 0
        for pair, dv in zip(pairs, instance.d):
            x, y = _ends(pair)
            x, y = x % n, y % n
            if (y - x) % n != dv:
                return False
            ends |= 1 << x | 1 << y
        return ends == (1 << n) - 1 - (instance.universe == "nonzero")

    if isinstance(instance, VectorPartitionInstance):
        try:
            pairs, g = solution
        except (TypeError, ValueError):
            return False
        pairs, g = _sequence(pairs), _sequence(g, "basis choice", True)
        p, k, m = instance.p, instance.k, instance.m
        if len(pairs) != m or len(g) != m:
            return False
        seen = []
        for i, j in enumerate(g):
            if not 0 <= j < k:
                return False
            x, y = (tuple(c % p for c in v)
                    for v in _ends(pairs[i], vectors=True))
            if len(x) != k or len(y) != k:
                return False
            if vec_sub(y, x, p) != instance.bases[i][j]:
                return False
            seen.extend((x, y))
        nonzero = {v for v in product(range(p), repeat=k) if any(v)}
        return len(set(seen)) == 2 * m and set(seen) == nonzero

    if isinstance(instance, PackingInstance):
        t = _sequence(solution, ints=True)
        if len(t) != instance.m:
            return False
        mod = instance.modulus
        covered: set[int] = set()
        total = 0
        for xs, ts, ti in zip(instance.X, instance.T, t):
            if ti not in ts:
                return False
            translate = {(x + ti) % mod if mod else x + ti for x in xs}
            covered |= translate
            total += len(translate)
        return len(covered) == total

    raise TypeError(f"cannot verify {type(instance).__name__}")
