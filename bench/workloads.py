"""The four workloads: seeded inputs, ops and the checks of their answers.

Each workload builds a pass of ops from the seed; a run makes a fixed
number of passes, so every commit does the same work.  Input shapes are
fixed and the seed draws their contents.  sweep repeats one pass; solve,
scan and exact draw fresh inputs for every pass, because the cost of a
solve, of a sampled scan or of an exact identity depends on what was
drawn, and a run should average over many draws.  Calls go
through module attributes (``conjectures.scan_conjecture`` and so on), so
that the traced run sees them.

Why each workload exists:

* scan  - the conjectures orchestration over thousands of easy solves,
          with a process pool, plus checkpoint write and resume (I/O).
* solve - the backtracking solvers alone, one instance per op under a
          short deadline, where the heavy tail shows.
* sweep - the sumset bitmask kernel alone, exhaustive and sampled.
* exact - the exact-algebra paths: permanents over Z[w], grid
          interpolation, full-field sums, the Dyson routes.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from pairpack import conjectures, dyson, nullstellensatz, solvers, sumsets
from pairpack.algebra import ZZ, CycloInt, ModRing
from pairpack.poly import MultiPoly

from harness import Op, Unverified


def _rng(label: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"{label}:{seed}:{index}")


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _half(n: int) -> int:
    """Number of pairs: (n-1)/2 for odd n, n/2 for even n."""
    return (n - 1) // 2 if n % 2 else n // 2


@dataclass
class CliOp:
    """One CLI invocation: argv, the exit code a correct run gives, and a
    check of its parsed JSON stdout.  ``timed`` marks the workload's own
    commands, whose median is ``cli_s``."""

    name: str
    argv: list
    expect_code: int
    check: object
    timed: bool = True
    prepare: object = None


class Workload:
    name = ""
    pass_seconds = 1.0     # nominal pass length, sets the pass count
    fresh_inputs = False   # True: every pass draws new inputs
    clock_interval = 0.0   # see harness.Clock
    clock_window = 0.0
    per_instance = False   # True: every op is its own sample, not a slot

    def __init__(self, workdir: Path, jobs):
        self.workdir = workdir
        self.jobs = jobs

    def warmup(self) -> Op:
        raise NotImplementedError

    def make_pass(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def cli_ops(self, seed: int, repeats: int) -> list[CliOp]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan


def _check_scan(total: int):
    def check(rep):
        if rep.instances_total != total:
            return f"total {rep.instances_total}, expected {total}"
        if rep.instances_feasible != total or rep.failures:
            return (f"{len(rep.failures)} infeasible multisets; every unit "
                    f"vector is feasible here (criterion 10)")
        return None
    return check


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _tear(src: Path, dst: Path) -> None:
    """Copy a checkpoint and cut its last line in half, as a crash in the
    middle of an append leaves it."""
    data = src.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    dst.write_bytes(data[:last + (len(data) - last) // 2])


class Scan(Workload):
    name = "scan"
    pass_seconds = 2.8
    fresh_inputs = True    # a sampled scan's cost depends on its draws
    EXHAUSTIVE = tuple(range(3, 16, 2)) + tuple(range(4, 15, 2))
    SAMPLE_N, SAMPLE, SAMPLES = 24, 125, 12
    CKPT_N = 11

    def warmup(self):
        return Op("scan.warmup.n7", lambda: conjectures.scan_conjecture(
            7, jobs=self.jobs), _check_scan(len(_units(7)) ** 3))

    def make_pass(self, seed, index):
        jobs = self.jobs
        ops = []
        for n in self.EXHAUSTIVE:
            total = len(_units(n)) ** _half(n)
            ops.append(Op(f"scan.exhaustive.n{n}",
                          lambda n=n: conjectures.scan_conjecture(n, jobs=jobs),
                          _check_scan(total), lambda r: r.instances_total))
        rng = _rng(self.name, seed, index)
        for _ in range(self.SAMPLES):
            sub = rng.randrange(2 ** 31)
            ops.append(Op(f"scan.sample.n{self.SAMPLE_N}",
                          lambda sub=sub: conjectures.scan_conjecture(
                              self.SAMPLE_N, sample=self.SAMPLE, seed=sub,
                              jobs=jobs),
                          _check_scan(self.SAMPLE),
                          lambda r: r.instances_total))
        ops.extend(self._checkpoint_ops())
        return ops

    def _checkpoint_ops(self):
        """Write a checkpoint, then resume from a clean and a torn copy."""
        n, jobs = self.CKPT_N, self.jobs
        shards = len(_units(n))
        total = len(_units(n)) ** _half(n)
        path = self.workdir / "scan-ckpt.jsonl"
        clean = self.workdir / "scan-ckpt-clean.jsonl"
        torn = self.workdir / "scan-ckpt-torn.jsonl"
        report = _check_scan(total)

        def shard_lines(file):
            def check(rep):
                bad = report(rep)
                if bad is None and _lines(file) != shards:
                    bad = f"checkpoint has {_lines(file)} lines, expected {shards}"
                return bad
            return check

        scan = lambda file: conjectures.scan_conjecture(
            n, jobs=jobs, checkpoint=str(file))
        count = lambda r: r.instances_total
        return [
            Op(f"scan.checkpoint.write.n{n}", lambda: scan(path),
               shard_lines(path), count,
               prepare=lambda: path.unlink(missing_ok=True)),
            Op(f"scan.checkpoint.resume_clean.n{n}", lambda: scan(clean),
               shard_lines(clean), count,
               prepare=lambda: shutil.copyfile(path, clean)),
            Op(f"scan.checkpoint.resume_torn.n{n}", lambda: scan(torn),
               report, count, prepare=lambda: _tear(path, torn)),
        ]

    def cli_ops(self, seed, repeats):
        n = 13
        total = len(_units(n)) ** _half(n)

        def check(doc):
            if doc.get("total") != total or doc.get("feasible") != total \
                    or doc.get("failures"):
                return f"report {doc}, expected {total} feasible of {total}"
            return None

        ops = [CliOp(f"cli.conjecture-scan.n{n}",
                     ["conjecture-scan", "--n", str(n)], 0, check)
               for _ in range(repeats)]
        ck = self.CKPT_N
        ck_total = len(_units(ck)) ** _half(ck)
        torn = self.workdir / "scan-cli-torn.jsonl"
        full = self.workdir / "scan-cli-full.jsonl"

        def prepare():
            full.unlink(missing_ok=True)
            conjectures.scan_conjecture(ck, checkpoint=str(full))
            _tear(full, torn)

        def check_resume(doc):
            if doc.get("total") != ck_total or doc.get("feasible") != ck_total:
                return f"report {doc}, expected {ck_total} feasible"
            return None

        ops.append(CliOp(f"cli.conjecture-scan.resume_torn.n{ck}",
                         ["conjecture-scan", "--n", str(ck),
                          "--checkpoint", str(torn)], 0, check_resume,
                         timed=False, prepare=prepare))
        return ops


# ---------------------------------------------------------------------------
# solve


def _pairs_cover(inst, pairs) -> bool:
    """Independent of pairpack: the pairs cover the universe once and
    realise the differences in instance order."""
    n = inst.n
    start = 1 if inst.universe == "nonzero" else 0
    if len(pairs) != len(inst.d):
        return False
    seen = sorted(v % n for pair in pairs for v in pair)
    return seen == list(range(start, n)) and all(
        (y - x) % n == dv for (x, y), dv in zip(pairs, inst.d))


@lru_cache(maxsize=None)
def _oracle_feasible(n: int, d, universe: str) -> bool:
    """Exact feasibility by a memoised search over covered-element masks,
    written without pairpack; for moduli up to 16."""
    start = 1 if universe == "nonzero" else 0
    full = sum(1 << e for e in range(start, n))
    counts = Counter(x % n for x in d)
    keys = sorted(counts)

    @lru_cache(maxsize=None)
    def extend(mask, left):
        free = full & ~mask
        if not free:
            return True
        e = (free & -free).bit_length() - 1
        for i, k in enumerate(keys):
            if not left[i]:
                continue
            rest = left[:i] + (left[i] - 1,) + left[i + 1:]
            for partner in {(e + k) % n, (e - k) % n}:
                if free >> partner & 1 and partner != e:
                    if extend(mask | 1 << e | 1 << partner, rest):
                        return True
        return False

    return extend(0, tuple(counts[k] for k in keys))


def _check_partition(inst, prime: bool):
    def check(res):
        if isinstance(res, solvers.Infeasible):
            if prime:
                return "Infeasible on a prime modulus; the theorem says feasible"
            g = math.gcd(inst.n, *inst.d)
            if inst.n % 2 and g > 1:
                return None     # odd cosets of gZ/(n) cannot be paired
            if inst.n <= 16:
                if _oracle_feasible(inst.n, tuple(sorted(inst.d)),
                                    inst.universe):
                    return "Infeasible, but an exact search finds a partition"
                return None
            raise Unverified(f"no certificate for Infeasible at n={inst.n}")
        if not solvers.verify_solution(inst, res):
            return "verify_solution rejects the pairs"
        if not _pairs_cover(inst, res.pairs):
            return "pairs do not cover the universe with the differences"
        return None
    return check


def _draw_basis(rng, p):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return ((a, b), (c, d))


def _check_vector(inst):
    def check(res):
        if isinstance(res, solvers.Infeasible):
            raise Unverified("no certificate for an infeasible vector system")
        if not solvers.verify_solution(inst, res):
            return "verify_solution rejects the pairs"
        pairs, g = res
        p = inst.p
        seen = sorted(tuple(c % p for c in v) for pair in pairs for v in pair)
        nonzero = sorted((x, y) for x in range(p) for y in range(p) if x or y)
        if seen != nonzero or any(
                tuple((b - a) % p for a, b in zip(x, y)) != inst.bases[i][g[i]]
                for i, (x, y) in enumerate(pairs)):
            return "pairs do not cover the nonzero vectors with the bases"
        return None
    return check


def _packing(rng):
    """A packing built to satisfy every sufficient condition, as in
    acceptance criterion 6, so it is feasible."""
    while True:
        p = rng.choice((5, 7, 11, 13))
        d = rng.randrange(1, 4)
        m = rng.randrange(2, 5)
        if m * d < p:
            break
    X = []
    for _ in range(m):
        base = rng.randrange(p)
        pick = sorted(rng.sample(range(d), rng.randrange(1, d + 1)))
        X.append(tuple((base + x) % p for x in pick))
    T = [tuple(rng.sample(range(p), rng.randrange((m - 1) * d + 1, p + 1)))
         for _ in range(m)]
    return solvers.PackingInstance(p, tuple(X), tuple(T), d)


def _check_packing(inst):
    def check(res):
        if isinstance(res, solvers.Infeasible):
            return "Infeasible, but the packing hypotheses guarantee one"
        if not solvers.verify_solution(inst, res):
            return "verify_solution rejects the translates"
        n = inst.ambient
        cells = [(x + t) % n for xs, t in zip(inst.X, res) for x in xs]
        if len(set(cells)) != len(cells) or any(
                t not in ts for t, ts in zip(res, inst.T)):
            return "translates overlap or leave their T_i"
        return None
    return check


class Solve(Workload):
    name = "solve"
    pass_seconds = 3.75
    fresh_inputs = True
    per_instance = True    # the heavy tail is over instances
    clock_interval = 0.1
    clock_window = 0.3
    DEADLINE = 0.02         # per instance; ~40% of p=41..61 miss it today
    DEEP_DEADLINE = 2.0     # n=2001 is linear work when nothing backtracks
    PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61)
    PER_PRIME = 16
    PER_COMPOSITE = 60
    VECTORS = ((3, 300), (5, 300))
    PACKINGS = 600
    ODD_COMPOSITES = (9, 15, 21, 25)
    EVEN_MODULI = (4, 6, 8, 10, 12, 14)
    CERTIFIED_INFEASIBLE = ((9, 3), (15, 3), (15, 5))   # (n, g): g | every d

    def _partition_op(self, label, n, d, prime=False, deadline=None):
        universe = "nonzero" if n % 2 else "full"
        inst = solvers.PartitionInstance(n, d, universe)
        return Op(label, lambda: solvers.solve_pair_partition(inst),
                  _check_partition(inst, prime),
                  deadline=deadline or self.DEADLINE)

    def warmup(self):
        return self._partition_op("solve.warmup.p11", 11, (1, 2, 3, 4, 5),
                                  prime=True)

    def make_pass(self, seed, index):
        rng = _rng(self.name, seed, index)
        ops = []
        for _ in range(self.PER_PRIME):
            for p in self.PRIMES:
                d = tuple(rng.randrange(1, p) for _ in range(_half(p)))
                ops.append(self._partition_op(f"solve.prime.p{p}", p, d, True))
        for n in self.ODD_COMPOSITES + self.EVEN_MODULI:
            for _ in range(self.PER_COMPOSITE):
                d = tuple(rng.randrange(1, n) for _ in range(_half(n)))
                ops.append(self._partition_op(f"solve.composite.n{n}", n, d))
        for n, g in self.CERTIFIED_INFEASIBLE * 20:
            d = tuple(g * rng.randrange(1, n // g) for _ in range(_half(n)))
            ops.append(self._partition_op(f"solve.coset.n{n}.g{g}", n, d))
        ops.append(self._partition_op("solve.deep.n2001", 2001, (1,) * 1000,
                                      deadline=self.DEEP_DEADLINE))
        for p, count in self.VECTORS:
            for _ in range(count):
                bases = tuple(_draw_basis(rng, p)
                              for _ in range((p * p - 1) // 2))
                inst = solvers.VectorPartitionInstance(p, 2, bases)
                ops.append(Op(f"solve.vector.p{p}",
                              lambda inst=inst:
                              solvers.solve_vector_partition(inst),
                              _check_vector(inst), deadline=self.DEADLINE))
        for _ in range(self.PACKINGS):
            inst = _packing(rng)
            ops.append(Op("solve.packing",
                          lambda inst=inst:
                          solvers.solve_translate_packing(inst),
                          _check_packing(inst), deadline=self.DEADLINE))
        return ops

    def cli_ops(self, seed, repeats):
        rng = _rng(self.name + ".cli", seed)
        p = 23      # every p <= 23 instance solves in milliseconds
        inst = solvers.PartitionInstance(
            p, tuple(rng.randrange(1, p) for _ in range(_half(p))))
        inst_file = self.workdir / "solve-cli-instance.json"
        sol_file = self.workdir / "solve-cli-solution.json"
        last = {}

        def write_instance():
            inst_file.write_text(json.dumps(inst.to_json()))

        def check_partition(doc):
            last["doc"] = doc
            pairs = tuple(tuple(pair) for pair in doc.get("pairs", ()))
            if doc.get("result") != "feasible" or not _pairs_cover(inst, pairs):
                return f"bad partition output {doc}"
            return None

        def write_solution():
            sol_file.write_text(json.dumps(last.get("doc", {})))

        def check_verify(doc):
            return None if doc == {"verified": True} else f"verify said {doc}"

        ops = []
        for _ in range(repeats):
            ops.append(CliOp("cli.partition.file",
                             ["partition", "--file", str(inst_file)], 0,
                             check_partition, prepare=write_instance))
            ops.append(CliOp("cli.verify",
                             ["verify", "--instance", str(inst_file),
                              "--solution", str(sol_file)], 0, check_verify,
                             prepare=write_solution))
        return ops


# ---------------------------------------------------------------------------
# sweep


def _check_sweep(pairs: int, tight: "int | None"):
    def check(rep):
        if rep.pairs != pairs:
            return f"{rep.pairs} pairs, expected {pairs}"
        if rep.violations:
            return f"{len(rep.violations)} violations of the bound"
        if tight is not None and rep.tight_count != tight:
            return f"tight count {rep.tight_count}, pinned {tight}"
        return None
    return check


class Sweep(Workload):
    name = "sweep"
    pass_seconds = 3.75
    # (p, alpha) -> pinned tight count (criterion 11), None where unpinned
    EXHAUSTIVE = {(2, 2): 193, (2, 3): 32609, (3, 2): 122125, (11, 1): None}
    SAMPLED = ((13, 1), (2, 4))
    SAMPLE, SAMPLES_EACH = 2500, 12

    def warmup(self):
        return Op("sweep.warmup.z4", lambda: sumsets.verify_cd_bound(
            2, 2, jobs=self.jobs), _check_sweep(15 ** 2, 193))

    def make_pass(self, seed, index):
        rng = _rng(self.name, seed, index)
        jobs = self.jobs
        ops = []
        for (p, alpha), tight in self.EXHAUSTIVE.items():
            size = p ** alpha
            ops.append(Op(f"sweep.exhaustive.z{size}",
                          lambda p=p, alpha=alpha: sumsets.verify_cd_bound(
                              p, alpha, jobs=jobs),
                          _check_sweep((2 ** size - 1) ** 2, tight),
                          lambda r: r.pairs))
        for p, alpha in self.SAMPLED:
            for _ in range(self.SAMPLES_EACH):
                sub = rng.randrange(2 ** 31)
                ops.append(Op(f"sweep.sample.z{p ** alpha}",
                              lambda p=p, alpha=alpha, sub=sub:
                              sumsets.verify_cd_bound(
                                  p, alpha, sample=self.SAMPLE, seed=sub),
                              _check_sweep(self.SAMPLE, None),
                              lambda r: r.pairs))
        return ops

    def cli_ops(self, seed, repeats):
        def check(doc):
            if doc.get("pairs") != 511 ** 2 or doc.get("violations") \
                    or doc.get("tight_count") != 122125:
                return "sumset report differs from the pinned Z/(9) sweep"
            return None
        return [CliOp("cli.sumset.z9", ["sumset", "--p", "3", "--alpha", "2"],
                      0, check) for _ in range(repeats)]


# ---------------------------------------------------------------------------
# exact


def _cyclo_factor(n, d):
    """prod_i (1 - w^(d_i)) in Z[w]."""
    out = CycloInt.from_int(n, 1)
    for di in d:
        out = out * (CycloInt.from_int(n, 1) - CycloInt.root_power(n, di))
    return out


def _sparse_poly(rng, ring, arity, budget):
    terms = []
    for _ in range(4):
        while True:
            e = tuple(rng.randrange(budget + 1) for _ in range(arity))
            if sum(e) <= budget:
                break
        terms.append((e, rng.randrange(-9, 10)))
    return MultiPoly(ring, arity, terms)


class Exact(Workload):
    name = "exact"
    pass_seconds = 3.0
    fresh_inputs = True    # op costs depend on the drawn contents
    per_instance = True
    # (n, m): m <= 8 runs the bijection walk, m = 9 runs Ryser
    PERMANENTS = ((17, 7), (19, 9), (18, 9))
    CERTIFICATES = (11, 13, 19)
    DYSON = ((3, 9), (3, 7), (4, 6), (4, 5))     # (entries, sum): degree <= 18
    CN_SHAPES = ((3, 3, 3), (4, 4), (2, 3, 4, 2), (5, 3))
    ROOTS = ((3, 2, 6), (2, 3, 5), (2, 4, 8), (5, 1, 4))   # p, alpha, count

    def warmup(self):
        return Op("exact.warmup.dyson", lambda: dyson.dyson_via_evaluation(
            (2, 2, 2)), lambda r: None if r == 90 else f"{r} != 90")

    def make_pass(self, seed, index):
        rng = _rng(self.name, seed, index)
        ops = []
        for n, m in self.PERMANENTS:
            ops.extend(self._permanent_ops(rng, n, m))
        for p in self.CERTIFICATES:
            m = _half(p)
            d = tuple(rng.randrange(1, p) for _ in range(m))
            want = math.factorial(m) * math.prod(range(1, 2 * m, 2))
            ops.append(Op(f"exact.certificate.p{p}",
                          lambda p=p, d=d:
                          conjectures.prime_nonzero_certificate(p, d),
                          lambda r, want=want: None if r == (want, True)
                          else f"{r}, expected ({want}, True)"))
        ops.extend(self._field_sum_ops(rng))
        ops.extend(self._cn_ops(rng))
        ops.extend(self._dyson_ops(rng))
        for p, alpha, count in self.ROOTS:
            exps = tuple(rng.randrange(p ** alpha) for _ in range(count))
            ops.append(Op(f"exact.roots.z{p ** alpha}",
                          lambda p=p, alpha=alpha, exps=exps:
                          sumsets.coefficient_divisibility_check(
                              p, alpha, exps),
                          lambda r: None if r is True else "check failed"))
        return ops

    def _permanent_ops(self, rng, n, m):
        units = _units(n)
        d = tuple(rng.choice(units) for _ in range(m))
        got = {}

        def first(r):
            got["perm"] = r
            return None

        def identity(r):
            if "perm" not in got:
                raise Unverified("the pairing-form op failed")
            if not (got["perm"] - r * _cyclo_factor(n, d)).is_zero():
                return "perm != perm2 * prod(1 - w_i)"
            return None

        return [Op(f"exact.perm.n{n}.m{m}",
                   lambda: conjectures.permanent_coefficient(n, d), first),
                Op(f"exact.perm2.n{n}.m{m}",
                   lambda: conjectures.permanent2_coefficient(n, d), identity)]

    def _field_sum_ops(self, rng):
        ops = []
        for p, count in ((7, 3), (11, 3)):
            ref = {}

            def keep(r, ref=ref):
                ref["value"] = r
                return None if r else "full-field sum vanishes"

            def same(r, ref=ref):
                if "value" not in ref:
                    raise Unverified("the reference sum failed")
                return None if r == ref["value"] else \
                    f"{r} != reference {ref['value']}"

            ops.append(Op(f"exact.field_sum.odd.p{p}",
                          lambda p=p: nullstellensatz.integral_over_field(
                              nullstellensatz.odd_residue_polynomial(p)),
                          keep))
            for _ in range(count):
                d = tuple(rng.randrange(1, p) for _ in range(_half(p)))
                ops.append(Op(f"exact.field_sum.partition.p{p}",
                              lambda p=p, d=d:
                              nullstellensatz.integral_over_field(
                                  nullstellensatz.partition_polynomial(p, d)),
                              same))
        return ops

    def _cn_ops(self, rng):
        ops = []
        for p in (7, 11):
            m = _half(p)
            d = tuple(rng.randrange(1, p) for _ in range(m))
            f = nullstellensatz.partition_polynomial(p, d, False)
            grid = nullstellensatz.partition_grid(p, d)
            # top part prod_{i<j} (x_i - x_j)^4: coefficient (2m)!/2^m
            want = math.factorial(2 * m) // 2 ** m % p

            def check(r, f=f, p=p, m=m, want=want):
                if r != want:
                    return f"{r} != (2m)!/2^m mod {p} = {want}"
                if p == 7 and f.expand().coefficient((p - 3,) * m) != want:
                    return "expanded coefficient differs"
                return None

            ops.append(Op(f"exact.cn.partition_grid.p{p}",
                          lambda f=f, grid=grid:
                          nullstellensatz.cn_coefficient(f, grid), check))
        # fixed shapes, seeded contents: the cost of an op does not depend
        # on the seed.  Grid sets inside range(span): for Z/(35) every
        # difference is then a unit, so the denominators are invertible.
        rings = [("zz", ZZ, 12, self.CN_SHAPES),
                 ("mod35", ModRing(35), 5, self.CN_SHAPES)] + [
            (f"f{p}", ModRing(p), p, self.CN_SHAPES[:2]) for p in (5, 7, 11, 13)]
        for label, ring, span, shapes in rings:
            for sizes in shapes:
                grid = nullstellensatz.GridSpec(tuple(
                    tuple(sorted(rng.sample(range(span), s))) for s in sizes))
                c = grid.target_exponents
                half = sum(c) // 2
                f = _sparse_poly(rng, ring, len(sizes), half) * \
                    _sparse_poly(rng, ring, len(sizes), sum(c) - half)
                ops.append(Op(f"exact.cn.{label}.{'x'.join(map(str, sizes))}",
                              lambda f=f, grid=grid:
                              nullstellensatz.cn_coefficient(f, grid),
                              lambda r, f=f, c=c: None
                              if r == f.coefficient(c)
                              else f"{r} != stored coefficient"))
        return ops

    def _dyson_ops(self, rng):
        ops = []
        for n, total in self.DYSON:
            cuts = sorted(rng.sample(range(1, total), n - 1))
            a = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
            want = math.factorial(sum(a)) // math.prod(
                math.factorial(x) for x in a)
            agree = lambda r, want=want: None if r == want else \
                f"{r} != multinomial {want}"
            label = ",".join(map(str, a))
            ops.append(Op(f"exact.dyson.formula[{label}]",
                          lambda a=a: dyson.dyson_formula(a), agree))
            ops.append(Op(f"exact.dyson.bruteforce[{label}]",
                          lambda a=a: dyson.dyson_bruteforce(a, max_degree=18),
                          agree))
            ops.append(Op(f"exact.dyson.evaluation[{label}]",
                          lambda a=a: dyson.dyson_via_evaluation(a), agree))
        return ops

    def cli_ops(self, seed, repeats):
        def check(doc):
            if not doc.get("formula") == doc.get("bruteforce") \
                    == doc.get("evaluation") == 90:
                return f"dyson routes disagree: {doc}"
            return None
        return [CliOp("cli.dyson.a222", ["dyson", "--a", "2,2,2"], 0, check)
                for _ in range(repeats)]


WORKLOADS = {w.name: w for w in (Scan, Solve, Sweep, Exact)}
