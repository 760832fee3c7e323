"""Ops, per-op deadlines, subprocess probes and summary statistics.

An op is one public call into pairpack, timed on its own, followed by an
untimed check of its answer.  Every op runs under a deadline armed with
``signal.setitimer`` on the main thread, so the benchmark starts no
threads of its own.  ``Clock`` turns an op's raw time into nominal
seconds.
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class DeadlineExceeded(BaseException):
    """Raised into an op whose deadline fired.

    A BaseException, so that no ``except Exception`` inside pairpack can
    swallow it.
    """


class _Alarm:
    """One-shot SIGALRM deadline.  The handler raises only while armed, so
    a signal that lands after the op returned does nothing."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


_alarm: "_Alarm | None" = None


def _get_alarm() -> _Alarm:
    global _alarm
    if _alarm is None:
        _alarm = _Alarm()
    return _alarm


@dataclass
class Op:
    """One public call and the check of its answer.

    ``call`` makes the call and returns its result; ``check`` returns
    None when the result is right, else a reason; ``items`` counts the
    work units an ok result completed.  ``prepare`` runs untimed just
    before the call (file set-up for checkpoint resumes).
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    items: "int | Callable[[object], int]" = 1
    deadline: float = 60.0
    prepare: "Callable[[], None] | None" = None


@dataclass
class Outcome:
    name: str
    latency: float       # raw seconds
    status: str          # ok, wrong, unverified, error, timeout
    items: int = 0
    detail: str = ""
    start: float = 0.0   # raw perf_counter bounds of the timed call
    end: float = 0.0
    seconds: float = 0.0  # nominal seconds, set by Clock.normalise
    cpu: "int | None" = None  # the CPU the call ran on, None if several
    ref: float = 0.0      # reference time the deadline was armed with

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Unverified(Exception):
    """Raised by a check that cannot decide whether an answer is right."""


def _reference() -> int:
    """Fixed pure-Python work of the kind pairpack does: integer
    arithmetic, dict and list updates.  It never calls pairpack."""
    acc, table, cells = 0, {}, []
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        cells.append(acc & 7)
    return acc + len(table) + sum(cells)


class Clock:
    """Converts raw seconds into nominal seconds.

    The machines this runs on have slow spells, from a fraction of a
    second to minutes long, in which all code runs up to 1.7 times
    slower.  On the 2-vCPU virtual machine the benchmark was tuned on
    they made single runs differ by half; the speed of one CPU measured
    a few milliseconds apart is strongly correlated, measured half a
    second apart it is not, and the two CPUs' speeds at the same moment
    are not correlated at all.  So the clock times a fixed reference
    loop on each CPU in turn, before and after an op, at most every
    ``interval`` seconds, and scales a raw interval by NOMINAL over the
    median reference time of the CPU the op ran on (the mean over CPUs
    for an op that ran on several, such as a pool), among the samples
    within ``window`` seconds of it, always including the samples just
    before and just after it.  Workloads of few ops sample around every
    op (interval 0, window 0); workloads of thousands of small ops sample
    every 0.1 s.  A change to pairpack cannot move the reference, so it
    cannot hide in the scaling.  Deadlines are nominal too: an op's raw
    deadline follows the latest reference of its CPU, and a timed-out op
    is scaled by that same reference.
    """

    NOMINAL = 1.25e-3   # reference time at which nominal = raw seconds

    def __init__(self, interval: float = 0.1, window: float = 0.3):
        self.interval = interval
        self.window = window
        self.times: list[float] = []
        self.refs: list[float] = []          # mean over CPUs
        self.by_cpu: list[dict] = []         # cpu -> reference time
        self.sample()

    def sample(self) -> None:
        """Time the reference once on each CPU this process may use."""
        cpus = sorted(os.sched_getaffinity(0))
        runs = {}
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _reference()
                runs[cpu] = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, cpus)
        self.times.append(time.perf_counter())
        self.refs.append(sum(runs.values()) / len(runs))
        self.by_cpu.append(runs)

    def tick(self) -> None:
        if time.perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def latest(self, cpu=None) -> float:
        """The latest reference time of ``cpu``, or the mean over CPUs."""
        return self.by_cpu[-1].get(cpu, self.refs[-1])

    def nominal(self, start: float, end: float, cpu=None) -> float:
        """Nominal length of the raw interval from ``start`` to ``end``
        spent on ``cpu``, or on several CPUs if it is None.  A long
        interval averages the speed over its length, so it is compared
        with samples from a window as long as itself."""
        pad = max(self.window, (end - start) / 2)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        lo = max(min(lo, bisect.bisect_right(self.times, start) - 1), 0)
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        if cpu is None or any(cpu not in s for s in self.by_cpu[lo:hi]):
            refs = self.refs[lo:hi]
        else:
            refs = [s[cpu] for s in self.by_cpu[lo:hi]]
        return (end - start) * self.NOMINAL / statistics.median(refs)

    def normalise(self, outcomes) -> None:
        for o in outcomes:
            if o.status == "timeout":
                # in the units its deadline was given in
                o.seconds = o.latency * self.NOMINAL / o.ref
            else:
                o.seconds = self.nominal(o.start, o.end, o.cpu)


def current_cpu() -> "int | None":
    """The CPU this process is running on, from /proc/self/stat."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


def _children_cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


class CpuTracker:
    """Which CPU a timed call ran on: the one it started and ended on,
    or None if it moved, or if child processes (a pool) ran during it."""

    def __enter__(self):
        self.cpu = current_cpu()
        self.children = _children_cpu_s()
        return self

    def __exit__(self, *exc):
        if current_cpu() != self.cpu or _children_cpu_s() != self.children:
            self.cpu = None
        return False


LATE = 1.1   # a deadline that fired this late was held up by a stall


def run_op(op: Op, clock: Clock, tracer=None, retried=False) -> Outcome:
    """Time one op under its deadline, then check its answer untimed.

    A timed-out op's latency is the measured time at which its deadline
    fired; if that is more than LATE times the deadline, the process was
    stalled (the virtual machine's host took the CPU away for tens of
    milliseconds) and the op runs once more.  Exceptions from pairpack
    are recorded, not propagated: the benchmark must go on to the next op.
    """
    if op.prepare is not None:
        op.prepare()
    clock.tick()
    alarm = _get_alarm()
    root = tracer.begin("op:" + op.name) if tracer else None
    failed = None
    with CpuTracker() as where:
        ref = clock.latest(where.cpu)
        deadline = op.deadline * ref / clock.NOMINAL
        start = time.perf_counter()
        try:
            try:
                alarm.arm(deadline)
                result = op.call()
            finally:
                alarm.disarm()
        except DeadlineExceeded:
            failed = ("timeout", f"deadline {op.deadline}s")
        except Exception as exc:  # pairpack failed; record it and go on
            failed = ("error", f"{type(exc).__name__}: {str(exc)[:160]}")
        end = time.perf_counter()
    if tracer:
        tracer.end(root, failed[0] if failed else "ok")
    clock.tick()
    if failed and failed[0] == "timeout" and not retried \
            and end - start > LATE * deadline:
        # the deadline fired late: the machine stalled this process, so
        # the time says nothing about the op; run it once more
        return run_op(op, clock, tracer, retried=True)
    timed = dict(latency=end - start, start=start, end=end, cpu=where.cpu,
                 ref=ref)
    if failed:
        return Outcome(op.name, status=failed[0], detail=failed[1], **timed)
    try:
        reason = op.check(result)
    except Unverified as exc:
        return Outcome(op.name, status="unverified", detail=str(exc), **timed)
    except Exception as exc:  # a check that crashes is a wrong answer
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        return Outcome(op.name, status="wrong", detail=reason, **timed)
    items = op.items(result) if callable(op.items) else op.items
    return Outcome(op.name, status="ok", items=items, **timed)


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples there is no such percentile; the
    maximum is reported and flagged.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        idx = n - 11
        return {"value": ordered[idx], "percentile": 100.0 * (idx + 1) / n,
                "samples": n, "beyond": n - 1 - idx}
    return {"value": ordered[-1] if ordered else float("nan"),
            "percentile": 100.0, "samples": n, "beyond": 0,
            "note": "fewer than 11 samples; maximum shown"}


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# subprocesses: the CLI, set-up probes and import timing


def child_env(root: Path) -> dict:
    """Environment for every child: the checkout's src first on the path,
    and no inherited PAIRPACK_JOBS to change what is measured."""
    env = dict(os.environ)
    env.pop("PAIRPACK_JOBS", None)
    src = str(root / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


@dataclass
class CliRun:
    start: float
    end: float
    code: int
    stdout: str
    stderr: str


def _pin(cpu):
    """A preexec_fn that keeps a child on ``cpu``, so that the clock's
    reference for that CPU applies to it.  The children timed this way
    are serial: CLI commands without --jobs, and set-up probes whose
    warm-up op is too small for pairpack to start its pool."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def run_cli(root: Path, argv, cpu=None, timeout: float = 120.0) -> CliRun:
    """One ``python -m pairpack.cli`` invocation in a fresh interpreter,
    on ``cpu`` if given."""
    cmd = [sys.executable, "-m", "pairpack.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_pin(cpu))
    end = time.perf_counter()
    return CliRun(start, end, proc.returncode, proc.stdout, proc.stderr)


def time_to_ready(root: Path, argv, cpu=None, timeout: float = 120.0):
    """Raw (start, end) from starting a fresh interpreter on ``argv``, on
    ``cpu`` if given, until it prints its ready line; the child then
    exits."""
    cmd = [sys.executable, *argv]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=child_env(root),
                          stdout=subprocess.PIPE, text=True,
                          preexec_fn=_pin(cpu)) as proc:
        line = proc.stdout.readline()
        end = time.perf_counter()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}, "
                           f"exit {proc.returncode}")
    return start, end


def import_seconds(root: Path, module: str = "pairpack.cli") -> float:
    """Cumulative import time of ``module`` in a fresh interpreter, from
    ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", f"import {module}"]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr[-300:]}")
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise RuntimeError(f"no importtime line for {module}")
