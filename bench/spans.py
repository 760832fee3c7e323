"""In-memory spans for the traced run, and the per-layer metrics they give.

The tracer wraps pairpack's public functions where their callers look
them up (module attributes and class attributes), records one span per
call with its name, start, end, parent and root op, and keeps running
aggregates per span name.  A span's self time is its duration minus the
durations of its direct children.  Spans are written out at the end of
the run.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import math
from array import array
from pathlib import Path

from harness import DeadlineExceeded, median, tail


class _Agg:
    __slots__ = ("calls", "self_s", "total_s", "durations", "timeouts",
                 "errors", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = []
        self.timeouts = 0
        self.errors = 0
        self.units = 0


class Tracer:
    """Span recorder.  ``begin`` returns a span index; ``end`` closes it
    and every span opened after it that is still open (a deadline can cut
    a child short between its begin and end)."""

    KEEP_DURATIONS = ("solvers.partition",)

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.stop = array("d")
        self.status = bytearray()
        self.units = array("q")
        self._stack: list[list] = []     # [index, child_seconds]
        self.agg: dict[str, _Agg] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = _Agg()
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        if self._stack:
            parent = self._stack[-1][0]
            self.parent.append(parent)
            self.root.append(self.root[parent])
        else:
            self.parent.append(-1)
            self.root.append(idx)
        self.stop.append(math.nan)
        self.status.append(0)
        self.units.append(0)
        self._stack.append([idx, 0.0])
        self.start.append(self.clock())
        return idx

    _CODES = {"ok": 0, "error": 1, "timeout": 2}

    def end(self, idx: int, status: str = "ok", units: int = 0) -> None:
        now = self.clock()
        while self._stack:
            top, child = self._stack.pop()
            dur = now - self.start[top]
            self.stop[top] = now
            if self._stack:
                self._stack[-1][1] += dur
            agg = self.agg[self.names[self.name[top]]]
            agg.calls += 1
            agg.total_s += dur
            agg.self_s += dur - child
            if self.names[self.name[top]] in self.KEEP_DURATIONS:
                agg.durations.append(dur)
            if top == idx:
                self.status[top] = self._CODES[status]
                if status == "timeout":
                    agg.timeouts += 1
                elif status == "error":
                    agg.errors += 1
                agg.units += units
                self.units[top] = units
                return
            self.status[top] = self._CODES["timeout"]

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: id, name, parent, root op, start, end, status."""
        path.parent.mkdir(parents=True, exist_ok=True)
        status = ("ok", "error", "timeout")
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tparent\troot\tstart_s\tend_s\tstatus\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                         f"\t{self.root[i]}\t{self.start[i]:.7f}"
                         f"\t{self.stop[i]:.7f}\t{status[self.status[i]]}\n")

    def nested_counts(self, ancestor: str, name: str) -> dict:
        """For each ``ancestor`` span, how many ``name`` spans ran inside
        it (ancestors with none are left out)."""
        aid, nid = self._ids.get(ancestor), self._ids.get(name)
        counts: dict[int, int] = {}
        if aid is None or nid is None:
            return counts
        for i in range(len(self.start)):
            if self.name[i] != nid:
                continue
            j = self.parent[i]
            while j >= 0:
                if self.name[j] == aid:
                    counts[j] = counts.get(j, 0) + 1
                    break
                j = self.parent[j]
        return counts


def _wrap(tracer: Tracer, name, fn, units=None):
    """A traced stand-in for ``fn``.  ``name`` is a string or a function
    of the call's arguments; ``units`` maps (args, kwargs, result) to the
    work count the span completed."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name if isinstance(name, str) else name(args, kwargs)
        idx = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        except DeadlineExceeded:
            tracer.end(idx, "timeout")
            raise
        except BaseException:
            tracer.end(idx, "error")
            raise
        tracer.end(idx, "ok", units(args, kwargs, result) if units else 0)
        return result

    return traced


class _SpanFile:
    """A file whose span stays open from ``open`` until it is closed."""

    def __init__(self, fh, tracer, idx):
        self._fh, self._tracer, self._idx = fh, tracer, idx

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write(self, text):
        return self._fh.write(text)

    def close(self):
        try:
            self._fh.close()
        finally:
            if self._idx is not None:
                self._tracer.end(self._idx)
                self._idx = None


def install(tracer: Tracer) -> None:
    """Wrap pairpack's layer boundaries in place."""
    import pairpack
    from pairpack import (algebra, conjectures, dyson, nullstellensatz, poly,
                          solvers, sumsets)

    def patch(owners, attr, name, units=None):
        original = getattr(owners[0], attr)
        traced = _wrap(tracer, name, original, units)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, traced)

    def infeasible_nodes(args, kwargs, result):
        return result.nodes if isinstance(result, solvers.Infeasible) else 0

    patch([solvers, conjectures, pairpack], "solve_pair_partition",
          "solvers.partition", infeasible_nodes)
    patch([solvers, pairpack], "solve_vector_partition", "solvers.vector")
    patch([solvers, pairpack], "solve_translate_packing", "solvers.packing")
    patch([solvers, pairpack], "verify_solution", "solvers.verify")

    patch([conjectures], "scan_conjecture", "conjectures.scan",
          lambda a, k, r: r.instances_total)
    patch([conjectures], "_load_checkpoint", "conjectures.checkpoint.load")
    patch([conjectures], "permanent_coefficient", "conjectures.permanent")
    patch([conjectures], "permanent2_coefficient", "conjectures.permanent")
    patch([conjectures], "prime_nonzero_certificate",
          "conjectures.certificate")

    def traced_open(file, mode="r", *args, **kwargs):
        if "a" not in mode:
            return builtins.open(file, mode, *args, **kwargs)
        idx = tracer.begin("conjectures.checkpoint.write")
        try:
            fh = builtins.open(file, mode, *args, **kwargs)
        except BaseException:
            tracer.end(idx, "error")
            raise
        return _SpanFile(fh, tracer, idx)

    conjectures.open = traced_open      # shadows the builtin in that module

    patch([sumsets], "verify_cd_bound",
          lambda a, k: "sumsets.sample" if k.get("sample") is not None
          else "sumsets.sweep",
          lambda a, k, r: r.pairs)
    patch([sumsets], "coefficient_divisibility_check", "sumsets.roots")

    mul = _wrap(tracer, "algebra.cycloint.mul", algebra.CycloInt.__mul__)
    algebra.CycloInt.__mul__ = mul
    algebra.CycloInt.__rmul__ = mul
    algebra.CycloInt.is_zero = _wrap(tracer, "algebra.cycloint.is_zero",
                                     algebra.CycloInt.is_zero)
    poly.MultiPoly.__mul__ = _wrap(tracer, "poly.multipoly.mul",
                                   poly.MultiPoly.__mul__)
    poly.MultiPoly.evaluate = _wrap(tracer, "poly.evaluate",
                                    poly.MultiPoly.evaluate)
    poly.AffineProduct.evaluate = _wrap(tracer, "poly.evaluate",
                                        poly.AffineProduct.evaluate)

    patch([nullstellensatz, pairpack], "cn_coefficient", "nullstellensatz.cn",
          lambda a, k, r: math.prod(len(s) for s in a[1].sets))
    patch([nullstellensatz], "integral_over_field",
          "nullstellensatz.field_sum",
          lambda a, k, r: a[0].ring.n ** a[0].arity)
    patch([dyson, pairpack], "dyson_bruteforce", "dyson.bruteforce")
    patch([dyson, pairpack], "dyson_via_evaluation", "dyson.evaluation")


# ---------------------------------------------------------------------------
# per-layer metrics


def _rate(units: int, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric from the aggregates; a layer that did not
    run on this workload reports zero."""
    empty = _Agg()
    g = lambda name: tracer.agg.get(name, empty)
    part = g("solvers.partition")
    scan = g("conjectures.scan")
    # vectors per solve counts only scans that solved something, so a
    # resume that reads every shard from its checkpoint does not inflate it
    solved_in = tracer.nested_counts("conjectures.scan", "solvers.partition")
    scan_solves = sum(solved_in.values())
    scan_vectors = sum(tracer.units[i] for i in solved_in)
    sweep, sample = g("sumsets.sweep"), g("sumsets.sample")
    cn, field_sum = g("nullstellensatz.cn"), g("nullstellensatz.field_sum")
    out = {
        "solvers.partition.calls": (part.calls, "count"),
        "solvers.partition.self_s": (part.self_s, "s"),
        "solvers.partition.p50_s": (median(part.durations)
                                    if part.durations else 0.0, "s"),
        "solvers.partition.tail_s": (tail(part.durations)["value"]
                                     if part.durations else 0.0, "s"),
        "solvers.partition.timeouts": (part.timeouts, "count"),
        "solvers.partition.errors": (part.errors, "count"),
        "solvers.partition.infeasible_nodes": (part.units, "count"),
        "conjectures.scan.calls": (scan.calls, "count"),
        "conjectures.scan.self_s": (scan.self_s, "s"),
        "conjectures.scan.solves": (scan_solves, "count"),
        "conjectures.scan.vectors_per_solve": (
            scan_vectors / scan_solves if scan_solves else 0.0,
            "vectors/solve"),
        "conjectures.checkpoint.write_s": (
            g("conjectures.checkpoint.write").total_s, "s"),
        "conjectures.checkpoint.resume_s": (
            g("conjectures.checkpoint.load").total_s, "s"),
        "sumsets.sweep.pairs": (sweep.units, "count"),
        "sumsets.sweep.pairs_per_s": (_rate(sweep.units, sweep.total_s),
                                      "1/s"),
        "sumsets.sample.pairs_per_s": (_rate(sample.units, sample.total_s),
                                       "1/s"),
        "nullstellensatz.cn.points_per_s": (_rate(cn.units, cn.total_s),
                                            "1/s"),
        "nullstellensatz.field_sum.points_per_s": (
            _rate(field_sum.units, field_sum.total_s), "1/s"),
    }
    for name in ("solvers.vector", "solvers.packing", "solvers.verify",
                 "conjectures.permanent", "algebra.cycloint.mul",
                 "algebra.cycloint.is_zero", "poly.multipoly.mul",
                 "poly.evaluate"):
        out[name + ".calls"] = (g(name).calls, "count")
        out[name + ".self_s"] = (g(name).self_s, "s")
    for name in ("conjectures.certificate", "sumsets.roots",
                 "dyson.bruteforce", "dyson.evaluation"):
        out[name + ".self_s"] = (g(name).self_s, "s")
    return out
