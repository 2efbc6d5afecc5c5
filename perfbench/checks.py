"""Correctness checks, computed apart from the program's query planner.

The references here are the benchmark's own numpy code over the decoded
recordings a plain ``db.read`` returns: the pieces are rebuilt from the
recording kinds, clipped to the range, and integrated as trapezoids.  Every
check returns a list of problems (empty when the answer is right), so a run
can report all of them and the tests can plant faults and see them caught.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Relative tolerance the planner documents against the decode path.
TOLERANCE = 1e-9

#: Absolute float slack on the ε guarantee.
EPS_SLACK = 1e-9

SEGMENT_START = "segment_start"
SEGMENT_END = "segment_end"


def pieces(recordings) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(t0, t1, x0, x1)`` of the linear pieces the recordings describe.

    ``x0``/``x1`` have one column per dimension.  Every ``segment_end`` but
    a leading one closes a piece that starts at the record before it: the
    open ``segment_start`` (a disconnected piece) or the previous end (a
    connected one).  A start followed by another start, or ending the
    recordings, stands for a single point: a zero-length piece.
    """
    times, values, kinds = recording_arrays(recordings)
    if kinds.shape[0] == 0:
        raise ValueError("no pieces in the recordings")
    if not np.isin(kinds, (SEGMENT_START, SEGMENT_END)).all():
        raise ValueError("only segment recordings describe linear pieces")
    ends = np.flatnonzero(kinds == SEGMENT_END)
    ends = ends[ends > 0]
    starts = kinds == SEGMENT_START
    single = np.flatnonzero(starts & np.append(starts[1:], True))
    first = np.concatenate([ends - 1, single])
    last = np.concatenate([ends, single])
    order = np.argsort(first, kind="stable")
    first, last = first[order], last[order]
    if first.shape[0] == 0:
        raise ValueError("no pieces in the recordings")
    return times[first], times[last], values[first], values[last]


def range_slice(recordings, start: float, end: float):
    """The recordings a store read over ``[start, end]`` returns, as arrays.

    The store's documented range rule: every record inside the range, plus
    the last one before ``start`` and the first one after ``end``.
    """
    times, values, kinds = recording_arrays(recordings)
    i0 = int(np.searchsorted(times, start, side="left"))
    i1 = int(np.searchsorted(times, end, side="right"))
    part = slice(max(i0 - 1, 0), min(max(i0, i1) + 1, times.shape[0]))
    return times[part], values[part], kinds[part]


def range_reference(piece_arrays, start: float, end: float, dimension: int = 0):
    """``(minimum, maximum, mean, integral)`` of one dimension over a range.

    Every piece contributes its part inside ``[start, end]``; the first and
    last piece's lines extend over any part of the range outside the span.
    Time in gaps between disconnected pieces counts for nothing; the mean is
    the integral over the covered time.
    """
    t0, t1, x0, x1 = piece_arrays
    x0 = x0[:, dimension]
    x1 = x1[:, dimension]
    lo = np.maximum(t0, start)
    hi = np.minimum(t1, end)
    inside = hi >= lo
    duration = t1 - t0
    safe = np.where(duration > 0.0, duration, 1.0)
    slope = np.where(duration > 0.0, (x1 - x0) / safe, 0.0)
    v_lo = (x0 + slope * (lo - t0))[inside]
    v_hi = (x0 + slope * (hi - t0))[inside]
    widths = (hi - lo)[inside]
    lows = [np.minimum(v_lo, v_hi)]
    highs = [np.maximum(v_lo, v_hi)]
    area = float((0.5 * (v_lo + v_hi) * widths).sum())
    covered = float(widths.sum())
    ends = []
    if start < t0[0]:
        ends.append((0, start, min(t0[0], end)))
    span_end = float(t1.max())
    if end > span_end:
        ends.append((-1, max(span_end, start), end))
    for piece, a, b in ends:
        va = x0[piece] + slope[piece] * (a - t0[piece])
        vb = x0[piece] + slope[piece] * (b - t0[piece])
        lows.append(np.asarray([min(va, vb)]))
        highs.append(np.asarray([max(va, vb)]))
        area += 0.5 * (va + vb) * (b - a)
        covered += b - a
    if covered <= 0.0:
        raise ValueError(f"range [{start}, {end}] covers no piece; choose a wider range")
    minimum = float(np.concatenate(lows).min())
    maximum = float(np.concatenate(highs).max())
    return minimum, maximum, area / covered, area


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want), scale)


def check_aggregate(answer, piece_arrays, scale: float, label: str) -> List[str]:
    """One range aggregate against the numpy reference over its own range."""
    want = range_reference(piece_arrays, answer.start, answer.end)
    got = (answer.minimum, answer.maximum, answer.mean, answer.integral)
    scales = (scale, scale, scale, scale * max(answer.end - answer.start, 1.0))
    problems = []
    for field, g, w, s in zip(("minimum", "maximum", "mean", "integral"), got, want, scales):
        if not _close(g, w, s):
            problems.append(f"{label}: {field} {g!r} != reference {w!r}")
    return problems


def check_rolling(
    windows, piece_arrays, start: float, end: float, width: float, step: float,
    scale: float, label: str,
) -> List[str]:
    """Rolling windows: the expected window grid, then each window's values."""
    count = 1 + max(int(np.ceil((end - start - width) / step - 1e-9)), 0)
    starts = start + np.arange(count) * step
    starts = starts[starts < end]
    if len(windows) != starts.shape[0]:
        return [f"{label}: {len(windows)} windows, expected {starts.shape[0]}"]
    problems = []
    for index, window in enumerate(windows):
        if window.start != starts[index] or window.end != min(starts[index] + width, end):
            problems.append(f"{label}: window {index} spans [{window.start}, {window.end}]")
            continue
        problems.extend(check_aggregate(window, piece_arrays, scale, f"{label}[{index}]"))
    return problems


def check_zoom(
    cells, piece_arrays, start: float, end: float, max_points: int, scale: float, label: str
) -> List[str]:
    """Zoom: within budget, time-ordered, inside the viewport, values right.

    Each cell's minimum, maximum and integral must equal the reference over
    the cell's own span, and the cells' integrals must add up to the
    integral over the whole viewport.
    """
    if not cells:
        return [f"{label}: no cells"]
    if len(cells) > max_points:
        return [f"{label}: {len(cells)} cells over the budget of {max_points}"]
    problems = []
    previous_end = -np.inf
    for index, cell in enumerate(cells):
        if cell.start < previous_end or cell.end < cell.start:
            problems.append(f"{label}: cell {index} [{cell.start}, {cell.end}] out of order")
        if cell.start < start or cell.end > end:
            problems.append(f"{label}: cell {index} outside the viewport")
        previous_end = cell.end
        if cell.end > cell.start:
            minimum, maximum, _, area = range_reference(piece_arrays, cell.start, cell.end)
            width = cell.end - cell.start
            for field, g, w, s in (
                ("minimum", cell.minimum, minimum, scale),
                ("maximum", cell.maximum, maximum, scale),
                ("integral", cell.integral, area, scale * max(width, 1.0)),
            ):
                if not _close(g, w, s):
                    problems.append(f"{label}: cell {index} {field} {g!r} != {w!r}")
    total = sum(cell.integral for cell in cells)
    want = range_reference(piece_arrays, start, end)[3]
    if not _close(total, want, scale * max(end - start, 1.0)):
        problems.append(f"{label}: cell integrals sum to {total!r}, reference {want!r}")
    return problems


def check_read(recordings, times: np.ndarray, start: float, end: float, label: str) -> List[str]:
    """A range read is time-ordered and brackets ``[start, end]``.

    ``times`` are the stream's input times; the read must cover the range
    with one recording at or before ``start`` and one at or after ``end``
    whenever the stream has them.
    """
    if not recordings:
        return [f"{label}: empty read"]
    got = np.asarray([record.time for record in recordings])
    if np.any(np.diff(got) < 0.0):
        return [f"{label}: recordings out of time order"]
    problems = []
    if got[0] > start and got[0] > times[0]:
        problems.append(f"{label}: first recording {got[0]} after range start {start}")
    if got[-1] < end and got[-1] < times[-1]:
        problems.append(f"{label}: last recording {got[-1]} before range end {end}")
    return problems


def check_epsilon(approximated: np.ndarray, times: np.ndarray, values: np.ndarray, epsilon, label: str):
    """The paper's guarantee: every input point within ε of the approximation.

    ``approximated`` holds the approximation's values at ``times``.
    """
    values = values.reshape(times.shape[0], -1)
    error = np.abs(np.asarray(approximated).reshape(values.shape) - values)
    limit = np.asarray(epsilon, dtype=float) * (1.0 + EPS_SLACK) + EPS_SLACK
    worst = float((error - limit).max())
    if worst > 0.0:
        return [f"{label}: a point is {worst!r} beyond ε of the approximation"]
    return []


def recording_arrays(recordings) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, values, kinds)`` arrays of recordings; ``values`` is ``(n, d)``.

    Arrays pass through unchanged, so a long-kept reference read can be
    stored in this compact form.
    """
    if isinstance(recordings, tuple):
        return recordings
    times = np.asarray([record.time for record in recordings], dtype=float)
    values = np.asarray([record.value for record in recordings], dtype=float)
    kinds = np.asarray([record.kind.value for record in recordings], dtype=object)
    return times, values.reshape(times.shape[0], -1), kinds


def check_identical(got, want, label: str) -> List[str]:
    """Bit-identity of two recording sequences (times, values and kinds)."""
    got_t, got_v, got_k = recording_arrays(got)
    want_t, want_v, want_k = recording_arrays(want)
    if got_t.shape[0] != want_t.shape[0]:
        return [f"{label}: {got_t.shape[0]} recordings, reference has {want_t.shape[0]}"]
    if not np.array_equal(got_k, want_k):
        return [f"{label}: recording kinds differ"]
    if got_t.tobytes() != want_t.tobytes() or got_v.tobytes() != want_v.tobytes():
        return [f"{label}: recordings differ from the reference bit for bit"]
    return []


def check_subsequence(answer, full, label: str) -> List[str]:
    """A range read is a contiguous run of a whole-stream read, bit for bit."""
    if not answer:
        return [f"{label}: empty read"]
    times = recording_arrays(full)[0]
    first = int(np.searchsorted(times, answer[0].time))
    part = slice(first, first + len(answer))
    return check_identical(answer, tuple(column[part] for column in recording_arrays(full)), label)


def check_tail(events: Sequence[dict], sealed_recordings, label: str) -> List[str]:
    """The tail delivered exactly the sealed recordings, gapless and in order.

    ``events`` are ``{"seq", "sealed", "recordings"}`` dicts in arrival order.
    """
    if not events:
        return [f"{label}: no tail events"]
    seqs = [event["seq"] for event in events]
    if seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        return [f"{label}: tail sequence numbers have a gap"]
    if not events[-1]["sealed"] or any(event["sealed"] for event in events[:-1]):
        return [f"{label}: the sealed event is missing or not last"]
    delivered = [record for event in events for record in event["recordings"]]
    return check_identical(delivered, sealed_recordings, label)
