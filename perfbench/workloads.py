"""The three workloads: seeded inputs, the timed phases, and their checks.

Every timed phase is single-threaded and closed-loop: the next call starts
when the previous one returned, and the order of calls is fixed by the seed
alone.  Inputs are generated before any timer starts.  Work scales with the
run length: ``scale = seconds / 10`` multiplies the number of rounds, so one
seed always gives the same operations, recordings and stored bytes.
"""

from __future__ import annotations

import asyncio
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import checks

EPSILON = 0.25
BACKFILL_KINDS = (("swing", 1), ("slide", 1), ("swing", 4), ("slide", 4))
#: Points per whole-stream ingest, sized so the four kinds take about the
#: same time each.
BACKFILL_POINTS = {("swing", 1): 1950, ("slide", 1): 2300, ("swing", 4): 1050, ("slide", 4): 680}
BACKFILL_BLOCK_RECORDS = 64
LIVE_STREAMS = 12
LIVE_APPEND_EVERY = 16
LIVE_APPEND_POINTS = 64
#: Small archive batches and blocks, so that a dashboard window straddles
#: several archived blocks and the live tail, and streams reach the
#: planner's minimum of four blocks early in the run.
LIVE_ARCHIVE_BATCH = 16
LIVE_BLOCK_RECORDS = 16
LIVE_REFRESH_EVERY = 48
LIVE_WINDOW = 4000.0
SERVED_ARCHIVE_STREAMS = 4
SERVED_ARCHIVE_POINTS = 12000
SERVED_LIVE_STREAMS = 6
SERVED_CHUNK = 32
#: Of every four query groups on the served workload, three go to live
#: streams and one to the archive, so no percentile sits on the boundary
#: between the two.
SERVED_LIVE_GROUPS = 3
SERVED_CYCLES = 8
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run measured and found."""

    metrics: Dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    points: int = 0
    throttle_retries: int = 0
    #: Measured phases of a served run, as ``(start, end)`` clock readings.
    server_windows: List[tuple] = field(default_factory=list)
    #: Wall time of the measured phases.
    measured_s: float = 0.0
    #: Medians and 99th percentiles, reported but not gated: on a 2-vCPU
    #: host they follow the host's state more than the program (see the README).
    tails: Dict[str, float] = field(default_factory=dict)


class Ops:
    """Counts attempted and failed operations; times the successful ones."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome

    def call(self, fn: Callable, *args, **kwargs):
        """``(result, seconds)``; ``(None, None)`` when the call raised."""
        self.outcome.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            self.outcome.failed += 1
            self.outcome.errors.append(f"{getattr(fn, '__name__', fn)}: {error!r}")
            return None, None
        return result, time.perf_counter() - start

    async def acall(self, fn: Callable, *args, **kwargs):
        self.outcome.attempted += 1
        start = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001
            self.outcome.failed += 1
            self.outcome.errors.append(f"{getattr(fn, '__name__', fn)}: {error!r}")
            return None, None
        return result, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def ref_loop_ms() -> float:
    """A fixed pure-Python + numpy probe, to tell host drift from code changes."""
    data = np.random.default_rng(12345).normal(size=100_000)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for index in range(100_000):
            total += index * 0.5
        np.sort(data)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e3


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def total_rate(points, seconds) -> float:
    """Points per second of write time: all points over all write time.

    A sum over the whole run, not a median of slices: on a host whose speed
    switches between states every few seconds, a median jumps between the
    states while the sum moves in proportion to the time spent in each.
    """
    return float(np.sum(points)) / float(np.sum(seconds))


def query_metrics(outcome: Outcome, latencies: Dict[str, List[float]]) -> None:
    """The mean latency of each query kind; medians and the tail go to ``tails``."""
    for kind in ("aggregate", "rolling", "zoom", "read"):
        values = np.asarray(latencies[kind], dtype=float) * 1e3
        outcome.metrics[f"{kind}_mean_ms"] = (float(np.mean(values)), "ms")
        outcome.tails[f"{kind}_p50_ms"] = float(np.median(values))
    every = np.concatenate([np.asarray(v, dtype=float) for v in latencies.values()])
    outcome.tails["query_p99_ms"] = float(np.quantile(every, 0.99)) * 1e3


def write_metrics(outcome: Outcome, write_seconds: List[float]) -> None:
    values = np.asarray(write_seconds, dtype=float) * 1e6
    outcome.metrics["write_mean_us"] = (float(np.mean(values)), "us")
    outcome.tails["write_p50_us"] = float(np.median(values))
    outcome.tails["write_p99_us"] = float(np.quantile(values, 0.99))


def walk(rng: np.random.Generator, n: int, dims: int):
    """An event-dense noisy walk: ~3 points per recording at ε=0.25."""
    times = np.cumsum(rng.uniform(0.5, 1.5, size=n))
    values = np.cumsum(rng.normal(0.0, 0.3, size=(n, dims)), axis=0)
    return times, (values[:, 0] if dims == 1 else values)


#: Plateau and step make-up: dwell lengths and jump sizes cycle through these,
#: so the seed draws only the phase, the jump signs and the jitter.
DWELLS = {"plateau": np.linspace(300, 900, 7).astype(int), "step": np.linspace(100, 400, 7).astype(int)}
JUMPS = np.linspace(1.0, 5.0, 5)


def smooth_signal(rng: np.random.Generator, n: int, shape: str, variant: float):
    """A sensor signal with sub-ε jitter: smooth, plateau or step.

    ``variant`` in ``[0, 1]`` fixes the make-up (amplitude, period, trend,
    where the dwell and jump cycles start); the seed only draws the phase,
    the signs of the jumps and the jitter.
    """
    times = np.arange(n, dtype=float)
    if shape == "smooth":
        period = 2500.0 + 500.0 * variant
        phase = rng.uniform(0, 2 * np.pi)
        base = (3.0 + variant) * np.sin(2 * np.pi * times / period + phase)
        base += (2 * variant - 1) * 1e-3 * times
    else:
        dwells = np.roll(DWELLS[shape], int(variant * 7))
        jumps = np.roll(JUMPS, int(variant * 5))
        levels, edges, at, level = [], [], 0, 0.0
        while at < n:
            jump = jumps[len(levels) % jumps.shape[0]]
            # A random sign, except that the level stays inside [-5, 5].
            up = rng.random() < 0.5 if abs(level) + jump <= 5.0 else level < 0
            level += jump if up else -jump
            levels.append(level)
            at += int(dwells[len(edges) % dwells.shape[0]])
            edges.append(min(at, n))
        base = np.repeat(levels, np.diff([0] + edges))
        if shape == "plateau":
            kernel = np.hanning(61)
            base = np.convolve(np.pad(base, 30, mode="edge"), kernel / kernel.sum(), "valid")
    return times, base + rng.uniform(-0.4 * EPSILON, 0.4 * EPSILON, size=n)


def query_ranges(rng: np.random.Generator, lo: float, hi: float):
    """One exploration query of each kind over a stream spanning ``[lo, hi]``."""
    span = hi - lo
    width = span * rng.uniform(0.3, 0.8)
    a = lo + rng.uniform(0.0, span - width)
    agg = (a, a + width)
    width = span * rng.uniform(0.3, 0.6)
    a = lo + rng.uniform(0.0, span - width)
    window = width / 16.0
    roll = (a, a + width, window, window / 2.0)
    width = span * rng.uniform(0.4, 1.0)
    a = lo + rng.uniform(0.0, span - width)
    zoom = (a, a + width, 64)
    width = min(span * 0.5, 120.0)
    a = lo + rng.uniform(0.0, span - width)
    read = (a, a + width)
    return agg, roll, zoom, read


class ReferenceCheck:
    """Checks one query answer against numpy over a whole-stream read.

    ``full`` is a whole-stream read taken in the state the query saw.  Range
    and rolling aggregates are checked against the part of it a range read
    over the query's own range returns, as the program's decode path reads
    it; zoom cells against the whole stream (the README's note on gaps says
    why); a short read must be a contiguous run of it.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self._whole: Optional[tuple] = None  # (full read, its pieces)

    def check(self, kind: str, stream: str, args, answer, full, inputs) -> None:
        times, values = inputs
        label = f"{kind} {stream} {args[:2]}"
        problems = self.outcome.problems
        if kind == "read":
            problems += checks.check_read(answer, times, args[0], args[1], label)
            problems += checks.check_subsequence(answer, full, label)
            return
        scale = scale_of(values)
        if kind == "zoom":
            if self._whole is None or self._whole[0] is not full:
                self._whole = (full, checks.pieces(full))
            start, end, max_points = args
            problems += checks.check_zoom(
                answer, self._whole[1], start, end, max_points, scale, label
            )
            return
        ranged = checks.pieces(checks.range_slice(full, args[0], args[1]))
        if kind == "aggregate":
            problems += checks.check_aggregate(answer, ranged, scale, label)
        else:
            start, end, window, step = args
            problems += checks.check_rolling(
                answer, ranged, start, end, window, step, scale, label
            )


def scale_of(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 1.0


def run_query(ops: Ops, db_or_client, kind: str, stream: str, args, is_async=False):
    """Issue one query of ``kind``; returns ``(answer, seconds)``."""
    if kind == "aggregate":
        call = (db_or_client.aggregate, stream, args[0], args[1])
        kwargs = {}
    elif kind == "rolling":
        call = (db_or_client.aggregate, stream, args[0], args[1])
        kwargs = {"window": args[2], "step": args[3]}
    elif kind == "zoom":
        call = (db_or_client.zoom, stream, args[0], args[1])
        kwargs = {"max_points": args[2]}
    else:
        call = (db_or_client.read, stream, args[0], args[1])
        kwargs = {}
    if is_async:
        return ops.acall(*call, **kwargs)
    return ops.call(*call, **kwargs)


def check_epsilon_all(db, inputs: Dict[str, tuple], outcome: Outcome) -> None:
    """Every input point of every stream within ε of ``db.query(stream)``."""
    for stream, (times, values) in inputs.items():
        approximation = db.query(stream).values_at(times)
        outcome.problems += checks.check_epsilon(
            approximation, times, values, EPSILON, f"epsilon {stream}"
        )


# --------------------------------------------------------------------------- #
# backfill
# --------------------------------------------------------------------------- #
def backfill(repro, work: Path, seed: int, scale: float, tracer) -> Outcome:
    """Bulk import of event-dense walks, each round followed by exploration queries."""
    outcome = Outcome()
    ops = Ops(outcome)
    rounds = max(2, int(round(15 * scale)))
    queries = max(40, int(round(1000 * scale)))

    rng = np.random.default_rng([seed, 1])
    streams = []
    for r in range(rounds):
        for name, dims in BACKFILL_KINDS:
            times, values = walk(rng, BACKFILL_POINTS[(name, dims)], dims)
            streams.append((f"{name}{dims}d-{r:03d}", name, times, values))

    setups = []
    for index in range(SETUP_REPEATS):
        directory = work / f"store-{index}"
        start = time.perf_counter()
        db = repro.open(
            directory,
            filter=repro.FilterSpec("swing", epsilon=EPSILON),
            storage=repro.StorageSpec(block_records=BACKFILL_BLOCK_RECORDS),
        )
        setups.append(time.perf_counter() - start)
        if index < SETUP_REPEATS - 1:
            db.close()
            shutil.rmtree(directory)
    outcome.metrics["setup_s"] = (float(np.median(setups)), "s")
    # Each round imports one stream of every kind, then explores the
    # archive imported so far, so that writes and queries both spread over
    # the whole run.
    names = [stream for stream, _, _, _ in streams]
    spans = {stream: (float(times[0]), float(times[-1])) for stream, _, times, _ in streams}
    width = len(BACKFILL_KINDS)
    groups = max(1, queries // 4 // rounds)
    plans = []
    for r in range(rounds):
        imported = names[: width * (r + 1)]
        targets = [imported[(r * groups + g) % len(imported)] for g in range(groups)]
        plans.append([(stream, query_ranges(rng, *spans[stream])) for stream in targets])
    ref_start = ref_loop_ms()

    if tracer is not None:
        tracer.paused = False
    measured = time.perf_counter()
    write_points, write_seconds = [], []
    latencies: Dict[str, List[float]] = {k: [] for k in ("aggregate", "rolling", "zoom", "read")}
    inputs = {stream: (times, values) for stream, _, times, values in streams}
    reference = ReferenceCheck(outcome)
    for r, plan in enumerate(plans):
        for stream, name, times, values in streams[width * r: width * (r + 1)]:
            _, seconds = ops.call(
                db.ingest, stream, times, values, filter=repro.FilterSpec(name, epsilon=EPSILON)
            )
            if seconds is not None:
                write_points.append(times.shape[0])
                write_seconds.append(seconds)
        answers = []
        for stream, ranges in plan:
            for kind, args in zip(("aggregate", "rolling", "zoom", "read"), ranges):
                answer, seconds = run_query(ops, db, kind, stream, args)
                if seconds is not None:
                    latencies[kind].append(seconds)
                    answers.append((kind, stream, args, answer))
        # Check this round's answers untimed, so nothing piles up in memory.
        if tracer is not None:
            tracer.paused = True
        full = {}
        for kind, stream, args, answer in answers:
            if stream not in full:
                full[stream] = checks.recording_arrays(db.read(stream))
            reference.check(kind, stream, args, answer, full[stream], inputs[stream])
        if tracer is not None:
            tracer.paused = False
    outcome.measured_s = time.perf_counter() - measured
    if tracer is not None:
        tracer.paused = True
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.metrics["ingest_pts_per_s"] = (total_rate(write_points, write_seconds), "points/s")
    write_metrics(outcome, write_seconds)
    query_metrics(outcome, latencies)
    check_epsilon_all(db, inputs, outcome)
    recordings = sum(db.describe(stream).recordings for stream in names)
    points = sum(times.shape[0] for times, _ in inputs.values())
    db.close()
    outcome.points = points
    outcome.metrics["recordings_per_point"] = (recordings / points, "ratio")
    outcome.metrics["stored_bytes_per_point"] = (dir_bytes(work / f"store-{SETUP_REPEATS - 1}") / points, "B")
    outcome.metrics["harness.ref_loop_ms"] = ((ref_start + ref_loop_ms()) / 2.0, "ms")
    return outcome


# --------------------------------------------------------------------------- #
# live
# --------------------------------------------------------------------------- #
def live(repro, work: Path, seed: int, scale: float, tracer) -> Outcome:
    """Many smooth sensor streams written point by point, with dashboard reads."""
    outcome = Outcome()
    ops = Ops(outcome)
    calls = max(2 * LIVE_STREAMS * LIVE_APPEND_EVERY, int(round(56_000 * scale)))

    rng = np.random.default_rng([seed, 2])
    signals = {}
    for s in range(LIVE_STREAMS):
        count = len(range(s, calls, LIVE_STREAMS))
        appends = count // LIVE_APPEND_EVERY
        points = count - appends + appends * LIVE_APPEND_POINTS
        shape = ("smooth", "plateau", "step")[s % 3]
        variant = (s // 3) / max(1, LIVE_STREAMS // 3 - 1)
        signals[f"{shape}-{s:02d}"] = smooth_signal(rng, points, shape, variant)

    setups = []
    for index in range(SETUP_REPEATS):
        directory = work / f"store-{index}"
        start = time.perf_counter()
        db = repro.open(
            directory,
            filter=repro.FilterSpec("swing", epsilon=EPSILON),
            storage=repro.StorageSpec(block_records=LIVE_BLOCK_RECORDS),
            archive_batch=LIVE_ARCHIVE_BATCH,
        )
        setups.append(time.perf_counter() - start)
        if index < SETUP_REPEATS - 1:
            db.close()
            shutil.rmtree(directory)
    outcome.metrics["setup_s"] = (float(np.median(setups)), "s")
    names = list(signals)
    # The fixed call order: stream i % S; every 16th call on a stream is a
    # 64-point append, the others are single-point observes.
    cursor = {name: 0 for name in names}
    visits = {name: 0 for name in names}
    schedule = []
    for call in range(calls):
        name = names[call % LIVE_STREAMS]
        visits[name] += 1
        size = LIVE_APPEND_POINTS if visits[name] % LIVE_APPEND_EVERY == 0 else 1
        schedule.append((name, cursor[name], size))
        cursor[name] += size
    first_refresh = calls // 4
    window = LIVE_WINDOW
    ref_start = ref_loop_ms()

    if tracer is not None:
        tracer.paused = False
    measured = time.perf_counter()
    write_points, write_seconds = [], []
    latencies: Dict[str, List[float]] = {k: [] for k in ("aggregate", "rolling", "zoom", "read")}
    reference = ReferenceCheck(outcome)
    refresh = 0
    fed = {}
    for call, (name, at, size) in enumerate(schedule):
        times, values = signals[name]
        fed[name] = at + size - 1
        if size == 1:
            _, seconds = ops.call(db.observe, name, times[at], values[at])
        else:
            _, seconds = ops.call(db.append, name, times[at:at + size], values[at:at + size])
        if seconds is not None:
            write_points.append(size)
            write_seconds.append(seconds)
        if call >= first_refresh and (call - first_refresh) % LIVE_REFRESH_EVERY == 0:
            target = names[refresh % LIVE_STREAMS]
            refresh += 1
            t_times = signals[target][0]
            end = float(t_times[fed[target]])
            lo = max(float(t_times[0]), end - window)
            ranges = (
                (lo, end),
                (lo, end, window / 8.0, window / 16.0),
                (max(float(t_times[0]), end - 2 * window), end, 48),
                (max(float(t_times[0]), end - window / 8.0), end),
            )
            answers = []
            for kind, args in zip(("aggregate", "rolling", "zoom", "read"), ranges):
                answer, seconds = run_query(ops, db, kind, target, args)
                if seconds is not None:
                    latencies[kind].append(seconds)
                    answers.append((kind, args, answer))
            # Check against a reference read taken untimed in the state the
            # queries saw.
            if tracer is not None:
                tracer.paused = True
            whole = checks.recording_arrays(db.read(target))
            for kind, args, answer in answers:
                reference.check(kind, target, args, answer, whole, signals[target])
            if tracer is not None:
                tracer.paused = False
    seal_seconds = 0.0
    for name in names:
        _, seconds = ops.call(db.seal, name)
        seal_seconds += seconds or 0.0
    outcome.measured_s = time.perf_counter() - measured
    if tracer is not None:
        tracer.paused = True
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.metrics["ingest_pts_per_s"] = (
        total_rate(write_points, write_seconds + [seal_seconds]), "points/s"
    )
    # The single-point path: the 64-point appends are in the rate above.
    write_metrics(outcome, [t for t, n in zip(write_seconds, write_points) if n == 1])
    query_metrics(outcome, latencies)

    check_epsilon_all(db, signals, outcome)
    recordings = sum(db.describe(name).recordings for name in names)
    points = sum(times.shape[0] for times, _ in signals.values())
    db.close()
    outcome.points = points
    outcome.metrics["recordings_per_point"] = (recordings / points, "ratio")
    outcome.metrics["stored_bytes_per_point"] = (dir_bytes(work / f"store-{SETUP_REPEATS - 1}") / points, "B")
    outcome.metrics["harness.ref_loop_ms"] = ((ref_start + ref_loop_ms()) / 2.0, "ms")
    return outcome

# --------------------------------------------------------------------------- #
# served
# --------------------------------------------------------------------------- #
HERE = Path(__file__).resolve().parent


class ServerProcess:
    """``repro serve`` in a child process, started through the launcher.

    The child binds an ephemeral port and announces it on its first line of
    output.  Leaving the context stops it with SIGTERM (a graceful drain and
    flush) and waits for it; a child that does not exit is killed and reaped.
    """

    def __init__(self, store: Path, spans: Optional[Path]) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += [
            "serve", "--store", str(store), "--port", "0",
            "--filter", "slide", "--epsilon", repr(EPSILON),
        ]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=HERE.parent
        )
        self.port = None

    def __enter__(self) -> "ServerProcess":
        try:
            line = self.process.stdout.readline()
            if " on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's status")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        return self.process.returncode


async def _collect(subscription, events: List[dict]) -> None:
    async for event in subscription:
        events.append({"seq": event.seq, "sealed": event.sealed, "recordings": event.recordings})


def served(repro, work: Path, seed: int, scale: float, tracer, spans_out: Optional[Path]) -> Outcome:
    """A server child fed chunks over loopback, queried between write cycles, then sealed."""
    from repro.client import AsyncStreamClient, ServerError

    # The load process and the server child (which inherits the mask) share
    # one vCPU.  Spread over the two vCPUs of this guest, the timings of ten
    # runs spread 0.29-0.44 (quartile distance over median), pinned 0.08-0.14:
    # most likely each round trip then waits for the host to wake the idle
    # vCPU, which takes as long as the host's load makes it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outcome = Outcome()
    ops = Ops(outcome)
    rounds = max(4, int(round(500 * scale)))
    queries = max(40, int(round(1500 * scale)))
    rng = np.random.default_rng([seed, 3])
    archive = {
        f"archive-{index}": walk(rng, SERVED_ARCHIVE_POINTS, 1)
        for index in range(SERVED_ARCHIVE_STREAMS)
    }
    live_inputs = {
        f"live-{index}": walk(rng, rounds * SERVED_CHUNK, 1)
        for index in range(SERVED_LIVE_STREAMS)
    }

    # The archive is an input: built once, copied before each set-up.
    built = work / "archive"
    with repro.open(built, filter=repro.FilterSpec("slide", epsilon=EPSILON)) as db:
        for stream, (times, values) in archive.items():
            db.ingest(stream, times, values)

    setups = []
    servers: List[ServerProcess] = []
    try:
        for index in range(SETUP_REPEATS):
            directory = work / f"store-{index}"
            last = index == SETUP_REPEATS - 1
            shutil.copytree(built, directory)
            start = time.perf_counter()
            servers.append(ServerProcess(directory, spans_out if last else None).__enter__())
            setups.append(time.perf_counter() - start)
            if not last:
                servers[-1].stop()
                shutil.rmtree(directory)
        outcome.metrics["setup_s"] = (float(np.median(setups)), "s")
        server = servers[-1]
        store = work / f"store-{SETUP_REPEATS - 1}"
        names = list(archive) + list(live_inputs)
        # Phase 1 fills half of every live stream; then write rounds and
        # query groups alternate in SERVED_CYCLES cycles, so that writes
        # and queries are both spread over the whole run.
        fill = rounds // 2
        bounds = np.linspace(fill, rounds, SERVED_CYCLES + 1).astype(int)
        groups = queries // 4 // SERVED_CYCLES
        archive_names, live_names = list(archive), list(live_inputs)
        plans = []
        for cycle in range(SERVED_CYCLES):
            fed = int(bounds[cycle + 1]) * SERVED_CHUNK
            plan = []
            for group in range(groups):
                index = cycle * groups + group
                if index % 4 < SERVED_LIVE_GROUPS:
                    stream = live_names[index % len(live_names)]
                    times = live_inputs[stream][0][:fed]
                else:
                    stream = archive_names[(index // 4) % len(archive_names)]
                    times = archive[stream][0]
                plan.append((stream, query_ranges(rng, float(times[0]), float(times[-1]))))
            plans.append(plan)
        ref_start = ref_loop_ms()
        state: Dict[str, object] = {}
        windows: List[tuple] = []
        write_points: List[int] = []
        write_seconds: List[float] = []
        latencies: Dict[str, List[float]] = {k: [] for k in ("aggregate", "rolling", "zoom", "read")}
        inputs = {**archive, **live_inputs}
        reference = ReferenceCheck(outcome)

        async def write_chunk(writer, stream, times, values):
            while True:
                try:
                    await writer.ingest(stream, times, values, retry=False)
                    break
                except ServerError as error:
                    if error.code not in ("throttle", "rate_limit"):
                        raise
                    outcome.throttle_retries += 1
                    await asyncio.sleep(error.retry_after or 0.05)
            await writer.sync(stream)

        def timed(running: bool) -> None:
            if tracer is not None:
                tracer.paused = not running
            if running:
                windows.append([time.perf_counter(), None])
            else:
                windows[-1][1] = time.perf_counter()

        async def write_rounds(writer, first: int, last: int) -> None:
            for r in range(first, last):
                part = slice(r * SERVED_CHUNK, (r + 1) * SERVED_CHUNK)
                for stream, (times, values) in live_inputs.items():
                    _, seconds = await ops.acall(
                        write_chunk, writer, stream, times[part], values[part]
                    )
                    if seconds is not None:
                        write_points.append(SERVED_CHUNK)
                        write_seconds.append(seconds)

        async def drive():
            writer = await AsyncStreamClient.connect("127.0.0.1", server.port)
            reader = await AsyncStreamClient.connect("127.0.0.1", server.port)
            try:
                events = {stream: [] for stream in live_inputs}
                collectors = [
                    asyncio.ensure_future(_collect(await reader.subscribe(stream), events[stream]))
                    for stream in live_inputs
                ]
                timed(True)
                await write_rounds(writer, 0, fill)
                timed(False)
                during = {
                    stream: checks.recording_arrays(await reader.read(stream)) for stream in archive
                }
                for cycle, plan in enumerate(plans):
                    timed(True)
                    await write_rounds(writer, int(bounds[cycle]), int(bounds[cycle + 1]))
                    timed(False)
                    # The state this cycle's queries see, read untimed.
                    for stream in live_inputs:
                        during[stream] = checks.recording_arrays(await reader.read(stream))
                    timed(True)
                    answers = []
                    for stream, ranges in plan:
                        for kind, args in zip(("aggregate", "rolling", "zoom", "read"), ranges):
                            answer, seconds = await run_query(ops, reader, kind, stream, args, True)
                            if seconds is not None:
                                latencies[kind].append(seconds)
                                answers.append((kind, stream, args, answer))
                    timed(False)
                    for kind, stream, args, answer in answers:
                        reference.check(kind, stream, args, answer, during[stream], inputs[stream])
                # Phase 3: seal.
                timed(True)
                seal_seconds = 0.0
                for stream in live_inputs:
                    _, seconds = await ops.acall(writer.seal, stream)
                    seal_seconds += seconds or 0.0
                timed(False)
                await asyncio.wait_for(asyncio.gather(*collectors), timeout=60)
                state.update(
                    seal_seconds=seal_seconds, events=events,
                    sealed={stream: await reader.read(stream) for stream in names},
                )
            finally:
                await writer.close()
                await reader.close()

        asyncio.run(drive())
        outcome.metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MB")
    finally:
        for process in servers:
            code = process.stop()
    if code != 0:
        outcome.problems.append(f"server exited with code {code}")
    outcome.server_windows = [tuple(window) for window in windows]
    outcome.measured_s = sum(end - start for start, end in outcome.server_windows)
    outcome.metrics["ingest_pts_per_s"] = (
        total_rate(write_points, write_seconds + [state["seal_seconds"]]), "points/s"
    )
    write_metrics(outcome, write_seconds)
    query_metrics(outcome, latencies)

    # checks
    sealed, events = state["sealed"], state["events"]
    with repro.open(work / "reference", filter=repro.FilterSpec("slide", epsilon=EPSILON)) as ref:
        for stream, (times, values) in live_inputs.items():
            for r in range(rounds):
                part = slice(r * SERVED_CHUNK, (r + 1) * SERVED_CHUNK)
                ref.append(stream, times[part], values[part])
            ref.seal(stream)
            outcome.problems += checks.check_identical(
                sealed[stream], ref.read(stream), f"served {stream} vs in-process"
            )
            outcome.problems += checks.check_tail(events[stream], sealed[stream], f"tail {stream}")
    with repro.open(store, mode="r") as db:
        check_epsilon_all(db, inputs, outcome)
        for stream in names:
            outcome.problems += checks.check_identical(
                sealed[stream], db.read(stream), f"served read {stream} vs local read"
            )
        recordings = sum(db.describe(stream).recordings for stream in names)
    points = sum(times.shape[0] for times, _ in inputs.values())
    outcome.points = points
    outcome.metrics["recordings_per_point"] = (recordings / points, "ratio")
    outcome.metrics["stored_bytes_per_point"] = (dir_bytes(store) / points, "B")
    outcome.metrics["harness.ref_loop_ms"] = ((ref_start + ref_loop_ms()) / 2.0, "ms")
    return outcome
