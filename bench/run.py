"""Benchmark for pairpack: one workload per run, every answer checked.

    python3 bench/run.py --workload {scan,solve,sweep,exact,all}
                         --seed N --seconds S --trace {0,1}

Measures the working tree: ``src`` of the checkout goes first on the path
of this process and of every child, and pairpack must be imported from
there.  Without ``src/pairpack`` the run exits with code 1 and prints no
result.

A run makes a fixed number of passes of ops built from the seed.  Ops are
timed in nominal seconds (see ``harness.Clock``): raw seconds scaled by
the speed of a reference loop measured around them on the CPU they ran
on, because the machine has slow spells that last from milliseconds to
minutes.  An op's latency is the median over its attempts.  Child
processes (set-up probes, CLI runs) are pinned to one CPU and timed the
same way.  Untraced runs (``--trace 0``) report the end-to-end metrics;
traced runs (``--trace 1``) make half the passes serially, then the same
passes again with spans around each layer's public functions, and report
the per-layer metrics.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.  ``failed`` counts ops that raised
or gave a wrong or unverified answer; ops that missed their deadline are
counted in the report's ``timeouts`` and lower ``ok_ratio``, because
whether an op near its deadline makes it depends on the machine's speed
at that moment, and the failure count must not.  The lines before it are
the full report, which also goes, with raw latencies, to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
IMPORT_PROBES = 5
CLI_REPEATS = {"scan": 7, "solve": 8, "sweep": 14, "exact": 16}


def _import_pairpack():
    """Import pairpack from the checkout's src, and nowhere else."""
    src = ROOT / "src"
    if not (src / "pairpack" / "__init__.py").is_file():
        raise SystemExit(f"error: no pairpack sources under {src}")
    sys.path.insert(0, str(src))
    import pairpack
    where = Path(pairpack.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: pairpack imported from {where}, not {src}")
    return pairpack


def _environment(pairpack, seed, jobs) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain",
                                     "--untracked-files=no"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "seed": seed, "jobs": jobs,
            "pairpack_file": pairpack.__file__,
            "platform": platform.platform()}


def _repeats(workload, seconds: float) -> int:
    """Fixed pass count per workload and run length, so that every commit
    does the same work; at the commit that set ``pass_seconds`` a run
    lasts about ``seconds``."""
    return max(1, round(seconds / workload.pass_seconds))


def _run_pass(ops, clock, tracer=None) -> list:
    from harness import run_op
    outcomes = [run_op(op, clock, tracer) for op in ops]
    clock.sample()
    clock.normalise(outcomes)
    return outcomes


def _pass_ops(workload, seed, count) -> list[list]:
    """The op list of each pass: one list repeated, or fresh inputs for
    every pass."""
    if workload.fresh_inputs:
        return [workload.make_pass(seed, index) for index in range(count)]
    return [workload.make_pass(seed, 0)] * count


def _per_op(workload, op_lists, passes):
    """Each op's median nominal latency over its attempts, the items its
    checked answers completed, and the number of passes the ops make up.

    An op is one instance (``per_instance``), or else one slot: the op
    at the same place in every pass, which calls the same function on
    the same inputs or on inputs drawn the same way."""
    from harness import median
    runs, items = {}, {}
    for ops, outcomes in zip(op_lists, passes):
        for slot, (op, o) in enumerate(zip(ops, outcomes)):
            key = id(op) if workload.per_instance else slot
            runs.setdefault(key, []).append(o.seconds)
            if o.ok:
                items[key] = o.items
    distinct = len({id(ops) for ops in op_lists})
    if not workload.per_instance:
        distinct = 1
    return [median(v) for v in runs.values()], sum(items.values()), distinct


def _run_cli(cli_ops, clock):
    """CLI invocations, each timed in nominal seconds."""
    from harness import Outcome, current_cpu, run_cli
    outcomes = []
    for op in cli_ops:
        if op.prepare is not None:
            op.prepare()
        clock.sample()
        cpu = current_cpu()
        try:
            run = run_cli(ROOT, op.argv, cpu)
        except subprocess.TimeoutExpired:
            outcomes.append(Outcome(op.name, math.inf, "timeout",
                                    seconds=math.inf))
            continue
        clock.sample()
        seconds = clock.nominal(run.start, run.end, cpu)
        timed = dict(latency=run.end - run.start, start=run.start,
                     end=run.end, seconds=seconds, cpu=cpu)
        if run.code != op.expect_code:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            outcomes.append(Outcome(
                op.name, status="error",
                detail=f"exit {run.code}: {tail[0][:160]}", **timed))
            continue
        try:
            reason = op.check(json.loads(run.stdout))
        except json.JSONDecodeError:
            reason = "stdout is not JSON"
        outcomes.append(Outcome(op.name, status="ok" if reason is None
                                else "wrong", detail=reason or "", **timed))
    return outcomes


def _failures(outcomes) -> list:
    """Failed ops grouped by name, status and detail."""
    groups = {}
    for o in outcomes:
        if not o.ok:
            key = (o.name, o.status, o.detail)
            groups[key] = groups.get(key, 0) + 1
    return [{"op": name, "status": status, "detail": detail, "count": count}
            for (name, status, detail), count in sorted(groups.items())]


def _by_op(outcomes) -> dict:
    """Count and median latency per op name."""
    from harness import median
    groups = {}
    for o in outcomes:
        groups.setdefault(o.name, []).append(o.seconds)
    return {name: {"count": len(v), "median_s": median(v)}
            for name, v in sorted(groups.items())}


def _metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def _spread(items: list, slots: int) -> list[list]:
    """Deal items in order over slots, as evenly as possible."""
    out = [[] for _ in range(slots)]
    for j, item in enumerate(items):
        out[j * slots // len(items)].append(item)
    return out


def _untraced(workload, args, clock) -> tuple[dict, list]:
    """Timed passes, with the set-up probes and CLI invocations dealt out
    between them, so that a slow spell of the machine does not land on
    one kind of measurement only."""
    from harness import current_cpu, median, run_op, tail, time_to_ready
    count = _repeats(workload, args.seconds)
    probe = [str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(args.seed), "--setup-probe"]
    probe_slots = _spread(list(range(SETUP_PROBES)), count + 1)
    cli_ops = workload.cli_ops(args.seed, CLI_REPEATS[workload.name])
    cli_slots = _spread(cli_ops, count + 1)
    setups, passes, cli_outcomes = [], [], []

    def between(slot):
        for _ in probe_slots[slot]:
            clock.sample()
            cpu = current_cpu()
            start, end = time_to_ready(ROOT, probe, cpu)
            clock.sample()
            setups.append(clock.nominal(start, end, cpu))
        cli_outcomes.extend(_run_cli(cli_slots[slot], clock))

    op_lists = _pass_ops(workload, args.seed, count)
    warm = run_op(workload.warmup(), clock)
    clock.normalise([warm])
    for index, ops in enumerate(op_lists):
        between(index)
        passes.append(_run_pass(ops, clock))
    between(count)

    latency, items, distinct = _per_op(workload, op_lists, passes)
    cli_runs = {}
    for op, o in zip(cli_ops, cli_outcomes):
        if op.timed:
            cli_runs.setdefault(o.name, []).append(o.seconds)
    cli_median = {name: median(v) for name, v in cli_runs.items()}
    everything = [warm] + [o for p in passes for o in p] + cli_outcomes
    ok = sum(o.ok for o in everything)
    op_tail = tail(latency)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": _metric(median(setups), "s", samples=setups),
        "wall_s": _metric(sum(latency) / distinct, "s", passes=count,
                          distinct_passes=distinct,
                          pass_walls=[sum(o.seconds for o in p)
                                      for p in passes]),
        "items_per_s": _metric(items / sum(latency), "1/s", items=items),
        "op_p50_s": _metric(median(latency), "s", samples=len(latency)),
        "op_tail_s": _metric(op_tail.pop("value"), "s", **op_tail),
        "ok_ratio": _metric(ok / len(everything), "ratio",
                            attempted=len(everything)),
        "peak_rss_mib": _metric(rss, "MiB",
                                children_mib=rss_children / 1024),
        "cli_s": _metric(median(list(cli_median.values())), "s",
                         median_by_command=cli_median,
                         runs_by_command=cli_runs),
        "fail_ratio": _metric(1 - ok / len(everything), "ratio"),
    }
    return metrics, everything


def _traced(workload, args, clock) -> tuple[dict, list]:
    from harness import import_seconds, median
    import spans
    imports = [import_seconds(ROOT) for _ in range(IMPORT_PROBES)]
    count = max(1, math.ceil(_repeats(workload, args.seconds) / 2))
    op_lists = _pass_ops(workload, args.seed, count)
    plain = [_run_pass(ops, clock) for ops in op_lists]
    tracer = spans.Tracer(time.perf_counter)
    spans.install(tracer)
    traced = [_run_pass(ops, clock, tracer) for ops in op_lists]
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz")

    metrics = {"cli.import_s": _metric(median(imports), "s", samples=imports)}
    for name, (value, unit) in spans.layer_metrics(tracer).items():
        metrics[name] = _metric(value, unit)
    metrics["trace.overhead_ratio"] = _metric(
        sum(_per_op(workload, op_lists, traced)[0])
        / sum(_per_op(workload, op_lists, plain)[0]),
        "ratio", passes=count)
    return metrics, [o for p in plain + traced for o in p]


def _setup_probe(workload, seed) -> int:
    """Child of the set-up measurement: build the pass and run the warm-up
    op, then say ready; the parent timed us from interpreter start."""
    from harness import Clock, run_op
    workload.make_pass(seed, 0)
    run_op(workload.warmup(), Clock())
    print("ready", flush=True)
    return 0


def _run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    from workloads import WORKLOADS
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {name} failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({m for r in rows.values() for m in r["metrics"]})
    print("metric".ljust(44) + "".join(n.rjust(14) for n in rows))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in rows.values()
                    if m in r["metrics"])
        cells = [f"{r['metrics'][m]['value']:14.6g}" if m in r["metrics"]
                 else " " * 14 for r in rows.values()]
        print(f"{m} [{unit}]".ljust(44) + "".join(cells))
    print(json.dumps({"correct": all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "workloads": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "solve", "sweep", "exact", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pairpack = _import_pairpack()
    if args.workload == "all":
        return _run_all(args)

    from workloads import WORKLOADS
    jobs = None if args.trace else min(2, len(os.sched_getaffinity(0)))
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, jobs)
    if args.setup_probe:
        return _setup_probe(workload, args.seed)

    from harness import Clock, median
    env = _environment(pairpack, args.seed, jobs)
    started = time.perf_counter()
    clock = Clock(workload.clock_interval, workload.clock_window)
    measure = _traced if args.trace else _untraced
    work.mkdir(parents=True)
    try:
        metrics, outcomes = measure(workload, args, clock)
    finally:
        shutil.rmtree(work)
    env["reference_s"] = {"nominal": clock.NOMINAL,
                          "median": median(clock.refs),
                          "min": min(clock.refs), "max": max(clock.refs),
                          "samples": len(clock.refs)}

    failures = _failures(outcomes)
    timeouts = sum(f["count"] for f in failures if f["status"] == "timeout")
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "run_s": time.perf_counter() - started,
              "environment": env, "metrics": metrics, "failures": failures,
              "timeouts": timeouts, "ops": _by_op(outcomes)}
    if args.trace:
        report["zero_on_this_workload"] = sorted(
            name for name, m in metrics.items() if m["value"] == 0)
    print(json.dumps(report, indent=1))
    report["samples"] = [[o.name, o.latency, o.seconds, o.status, o.cpu]
                         for o in outcomes]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    result = {"correct": not any(f["status"] == "wrong" for f in failures),
              "attempted": len(outcomes),
              "failed": sum(f["count"] for f in failures) - timeouts,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()
                          if name != "fail_ratio"}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
