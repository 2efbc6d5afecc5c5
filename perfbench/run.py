"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs from the root of a checkout and builds nothing: it imports ``repro``
from the checkout's ``src/``, and exits 2 when that is missing.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric with ``--trace 0``,
every per-layer metric (from a traced run) with ``--trace 1``.  Exits 1
when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("backfill", "live", "served")
IMPORT_REPEATS = 3
#: Times ``import repro`` in a fresh interpreter, as a user's program pays it.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import repro; print(time.perf_counter() - start)"
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def import_seconds(src: Path) -> float:
    """The median over fresh interpreters of the time ``import repro`` takes."""
    samples = sorted(
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    )
    return samples[IMPORT_REPEATS // 2]


def main(argv) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    out = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    scale = args.seconds / 10.0
    tracer = None
    spans_name = f"spans-{args.workload}-seed{args.seed}"
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.paused = True
    try:
        if args.workload == "served":
            server_spans = out / f"{spans_name}-server.json" if args.trace else None
            outcome = workloads.served(repro, work, args.seed, scale, tracer, server_spans)
        else:
            runner = getattr(workloads, args.workload)
            outcome = runner(repro, work, args.seed, scale, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    value, unit = outcome.metrics["setup_s"]
    outcome.metrics["setup_s"] = (value + import_s, unit)
    ref_loop = outcome.metrics.pop("harness.ref_loop_ms")[0]
    if tracer is None:
        metrics = outcome.metrics
    else:
        tracer.dump(out / f"{spans_name}-load.json")
        dumps = [json.loads((out / f"{spans_name}-load.json").read_text())]
        if args.workload == "served":
            server_dump = json.loads((out / f"{spans_name}-server.json").read_text())
            dumps.append(tracing.restrict(server_dump, outcome.server_windows))
        layers = tracing.layer_metrics(
            tracing.SpanTable(dumps),
            points=outcome.points,
            throttle_retries=outcome.throttle_retries,
            ref_loop_ms=ref_loop,
        )
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
        print("end-to-end (traced): " + json.dumps(
            {name: value for name, (value, _) in outcome.metrics.items()}), file=sys.stderr)
    print(f"harness.ref_loop_ms {ref_loop:.3f} measured_s {outcome.measured_s:.2f}", file=sys.stderr)
    print("tails (not gated): " + json.dumps(outcome.tails), file=sys.stderr)
    for line in (outcome.errors + outcome.problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
