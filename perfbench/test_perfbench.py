"""Tests of the benchmark itself: smoke runs, determinism, and planted faults.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
smoke runs use ``--seconds 1``, a tenth of the work of a ten-second run.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def run(workload, seed=3, seconds=1, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_served_run_reports_every_layer_metric():
    result = result_of(run("served", trace=1))
    assert result["correct"] is True
    assert set(result["metrics"]) == PER_LAYER
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in ("server.session_ms_per_query", "server.encode_us_per_frame",
                 "server.append_us_per_chunk", "hub.publish_us_per_event",
                 "core.batch_us_per_point", "storage.append_calls"):
        assert metrics[name] > 0, name
    assert (ROOT / ".perfbench_out" / "spans-served-seed3-server.json").is_file()


def test_counts_repeat_for_a_seed_and_the_draw_changes_with_it():
    first = result_of(run("backfill", seed=5))
    second = result_of(run("backfill", seed=5))
    other = result_of(run("backfill", seed=6))
    for name in ("recordings_per_point", "stored_bytes_per_point"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["attempted"] == second["attempted"] == other["attempted"]
    ratio = other["metrics"]["recordings_per_point"]["value"]
    assert ratio != first["metrics"]["recordings_per_point"]["value"]
    assert abs(ratio / first["metrics"]["recordings_per_point"]["value"] - 1) < 0.05


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run("backfill", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# --------------------------------------------------------------------------- #
# Planted faults: every check catches the fault it exists for
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def repro():
    import repro

    return repro


@pytest.fixture()
def walk_db(repro, tmp_path):
    rng = np.random.default_rng(7)
    times, values = workloads.walk(rng, 4000, 1)
    with repro.open(
        tmp_path / "store",
        filter=repro.FilterSpec("slide", epsilon=workloads.EPSILON),
        storage=repro.StorageSpec(block_records=64),
    ) as db:
        db.ingest("s", times, values)
        yield db, times, values


def test_aggregate_shifted_by_two_epsilon_is_caught(walk_db):
    db, times, values = walk_db
    start, end = float(times[500]) + 0.25, float(times[3000]) + 0.25
    answer = db.aggregate("s", start, end)
    ranged = checks.pieces(db.read("s", start, end))
    scale = workloads.scale_of(values)
    assert checks.check_aggregate(answer, ranged, scale, "agg") == []
    shifted = dataclasses.replace(answer, mean=answer.mean + 2 * workloads.EPSILON)
    assert checks.check_aggregate(shifted, ranged, scale, "agg")
    windows = db.aggregate("s", start, end, window=200.0, step=100.0)
    assert checks.check_rolling(windows, ranged, start, end, 200.0, 100.0, scale, "roll") == []
    windows[3] = dataclasses.replace(windows[3], maximum=windows[3].maximum + 2 * workloads.EPSILON)
    assert checks.check_rolling(windows, ranged, start, end, 200.0, 100.0, scale, "roll")


def test_zoom_cell_shifted_by_two_epsilon_is_caught(walk_db):
    db, times, values = walk_db
    start, end = float(times[100]), float(times[3900])
    cells = db.zoom("s", start, end, max_points=32)
    whole = checks.pieces(db.read("s"))
    scale = workloads.scale_of(values)
    assert checks.check_zoom(cells, whole, start, end, 32, scale, "zoom") == []
    cells[5] = dataclasses.replace(cells[5], minimum=cells[5].minimum - 2 * workloads.EPSILON)
    assert checks.check_zoom(cells, whole, start, end, 32, scale, "zoom")
    assert checks.check_zoom(cells[::-1], whole, start, end, 64, scale, "zoom")


def test_point_beyond_epsilon_is_caught(walk_db):
    db, times, values = walk_db
    approximated = db.query("s").values_at(times)
    assert checks.check_epsilon(approximated, times, values, workloads.EPSILON, "eps") == []
    approximated[1234, 0] += 2 * workloads.EPSILON
    assert checks.check_epsilon(approximated, times, values, workloads.EPSILON, "eps")


def test_recording_one_ulp_off_is_caught(walk_db):
    db, _, _ = walk_db
    recordings = db.read("s")
    assert checks.check_identical(list(recordings), recordings, "served") == []
    changed = list(recordings)
    record = changed[17]
    value = record.value.copy()
    value[0] = np.nextafter(value[0], np.inf)
    changed[17] = dataclasses.replace(record, value=value)
    assert checks.check_identical(changed, recordings, "served")


def test_dropped_tail_event_is_caught(repro, tmp_path):
    events = []

    def listen(stream, recordings, sealed):
        events.append({"seq": len(events), "sealed": sealed, "recordings": list(recordings)})

    rng = np.random.default_rng(8)
    times, values = workloads.walk(rng, 2000, 1)
    with repro.open(tmp_path / "store", filter=repro.FilterSpec("slide", epsilon=0.25)) as db:
        db.add_recording_listener(listen)
        for start in range(0, 2000, 32):
            db.append("s", times[start:start + 32], values[start:start + 32])
        db.seal("s")
        sealed = db.read("s")
    assert checks.check_tail(events, sealed, "tail") == []
    assert checks.check_tail(events[:5] + events[6:], sealed, "tail")
    renumbered = [dict(event, seq=index) for index, event in enumerate(events[:5] + events[6:])]
    assert checks.check_tail(renumbered, sealed, "tail")
    assert checks.check_tail(events[:-1], sealed, "tail")


def test_server_child_is_reaped_when_the_load_fails(repro, tmp_path):
    store = tmp_path / "store"
    with repro.open(store, filter=repro.FilterSpec("slide", epsilon=0.25)) as db:
        db.ingest("s", np.arange(100.0), np.zeros(100))
    with pytest.raises(RuntimeError):
        with workloads.ServerProcess(store, None) as server:
            assert server.port > 0
            raise RuntimeError("load failed")
    assert server.process.poll() is not None


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def test_self_times_of_one_operation_sum_to_its_wall_time(repro, walk_db):
    db, times, _ = walk_db
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        start = time.perf_counter()
        db.aggregate("s", float(times[10]), float(times[3500]), window=300.0)
        wall = time.perf_counter() - start
    finally:
        tracer.paused = True
    table = tracing.SpanTable([{k: list(v) for k, v in zip(
        ("id", "name", "start", "end", "parent", "op", "amount"), zip(*sorted(tracer.spans)))}])
    roots = np.flatnonzero(table.parent < 0)
    assert table.name[roots].tolist() == ["api.rolling"]
    assert {"queries.rolling", "storage.read_block_arrays"} <= set(table.name.tolist())
    root_time = table.duration[roots[0]]
    assert table.self_time.sum() == pytest.approx(root_time, rel=1e-9, abs=1e-9)
    assert (table.self_time >= 0).all()
    assert 0 <= wall - root_time < 0.002
