"""Helpers shared by the workloads: the speed probe, percentiles, the
result record and the timed op loop of the in-process workloads."""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from gen import OP_DELETE, OP_GET, OP_NAMES, OP_PUT, OP_SCAN, scan_digest

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("put_p999_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("device_s", "s"),
    ("peak_rss_mb", "MiB"),
]


#: The probe's duration on a quiet machine of the reference class (2-vCPU
#: Xeon, CPython 3.11); times are reported at this speed.
PROBE_S = 0.00075
_PROBE_KEYS = [b"%016d" % (i * 7919 % 10007) for i in range(256)]


def probe() -> float:
    """Time a fixed pure-Python loop (dict updates, byte slicing, a sort:
    the kind of work the engine does) as a measure of machine speed."""
    start = time.perf_counter()
    table: dict[bytes, int] = {}
    total = 0
    for _ in range(16):
        for key in _PROBE_KEYS:
            table[key] = table.get(key, 0) + 1
            total += len(key[3:9])
    sorted(table)
    return time.perf_counter() - start


class Speed:
    """Machine slowdown, probed between stretches of measured work.

    On a shared machine the CPU runs up to twice as slow for stretches of
    seconds, which moves every wall-clock figure with it.  Every measured
    interval is divided by the slowdown probed around it (the median of
    the probes within ``window`` of it, over :data:`PROBE_S`), so the
    figures read as time on a quiet machine and the neighbours' load
    cancels out.  The raw figures are printed beside them.

    Child processes in :attr:`children` (the server of ``served_mix``) are
    stopped with SIGSTOP while a probe runs, so CPU they burn between
    requests does not slow the probe and so shrink their own figures."""

    def __init__(self):
        self.samples: list[float] = []
        self.children: set[int] = set()

    def probe(self) -> int:
        """Take one probe; returns its index."""
        stopped = []
        try:
            for pid in self.children:
                os.kill(pid, signal.SIGSTOP)
                stopped.append(pid)
                os.waitpid(pid, os.WUNTRACED)
            self.samples.append(probe())
        finally:
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)
        return len(self.samples) - 1

    def factor(self, first: int, last: int, window: int = 2) -> float:
        """Slowdown over the probes ``first..last`` widened by ``window``."""
        near = self.samples[max(0, first - window):last + window + 1]
        return statistics.median(near) / PROBE_S

    def timed(self, fn, *args):
        """Run ``fn`` between probes; returns (result, raw s, scaled s)."""
        first = self.probe()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        return result, raw, raw / self.factor(first, self.probe(), 0)


def pct(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_metrics(trace, latencies: list[float]) -> dict[str, float]:
    """The latency metrics in microseconds from per-op samples in seconds
    (``latencies`` aligned with ``trace``; failed ops are None)."""
    by_op: dict[int, list[float]] = {OP_GET: [], OP_PUT: [], OP_DELETE: [], OP_SCAN: []}
    for entry, seconds in zip(trace, latencies):
        if seconds is not None:
            by_op[entry[0]].append(seconds)
    out = {}
    for op, qs in ((OP_GET, (50, 99)), (OP_PUT, (50, 99, 999)), (OP_SCAN, (50, 99))):
        samples = sorted(by_op[op])
        for q in qs:
            share = q / 1000 if q > 100 else q / 100
            out[f"{OP_NAMES[op]}_p{q}_us"] = pct(samples, share) * 1e6
    return out


def median(values) -> float:
    return statistics.median(values)


def rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts answers that differ from the model and reports the first few."""

    def __init__(self, what: str):
        self.what = what
        self.mismatches = 0

    def check(self, ok: bool, detail) -> None:
        if not ok:
            self.mismatches += 1
            if self.mismatches <= 5:
                print(f"MISMATCH [{self.what}]: {detail}", file=sys.stderr)


#: Ops per throughput chunk: ``ops_per_s`` times each chunk as its best
#: over the rounds.
CHUNK = 1000


def run_ops(db, trace, checker: Checker, speed: Speed) -> dict:
    """Run ``trace`` against ``db`` in a closed loop, timing every op and
    checking every answer against the expected one recorded in the trace.

    Methods are looked up here, after any tracing wrappers are installed.
    Every :data:`CHUNK` ops the machine speed is probed (outside the
    timed ops).  Returns per-op latencies scaled to the probe speed (None
    for a failed op), the scaled time of every chunk, and tallies."""
    raw: list[float | None] = []
    chunks: list[float] = []
    marks: list[int] = []
    failed = 0
    get, put, delete, scan = db.get, db.put, db.delete, db.scan
    clock = time.perf_counter
    for first in range(0, len(trace), CHUNK):
        marks.append(speed.probe())
        chunk_start = clock()
        for op, key, arg, expected in trace[first:first + CHUNK]:
            start = clock()
            try:
                if op == OP_GET:
                    result = get(key)
                elif op == OP_PUT:
                    result = put(key, arg)
                elif op == OP_DELETE:
                    result = delete(key)
                else:
                    result = scan(key, None, arg)
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                raw.append(None)
                failed += 1
                if failed <= 3:
                    traceback.print_exc()
                continue
            raw.append(clock() - start)
            if op == OP_SCAN:
                checker.check(scan_digest(result) == expected, ("scan", key, arg))
            elif op == OP_GET:
                checker.check(result == expected, ("get", key, result, expected))
        chunks.append(clock() - chunk_start)
    marks.append(speed.probe())
    return scale(trace, raw, chunks, marks, speed, failed)


def scale(trace, raw, chunks, marks, speed: Speed, failed, chunk=CHUNK) -> dict:
    """Tallies of one pass, with op and chunk times divided by the
    slowdown probed around their chunk (``marks[c]`` is the probe taken
    before chunk ``c``, ``marks[-1]`` the one after the last; a chunk is
    ``chunk`` ops)."""
    factors = [speed.factor(marks[c], marks[c + 1]) for c in range(len(chunks))]
    latencies = [
        None if x is None else x / factors[i // chunk] for i, x in enumerate(raw)
    ]
    counts = {name: 0 for name in OP_NAMES}
    for entry, seconds in zip(trace, latencies):
        if seconds is not None:
            counts[OP_NAMES[entry[0]]] += 1
    scaled = [t / f for t, f in zip(chunks, factors)]
    return {
        "trace": trace,
        "latencies": latencies,
        "chunks": scaled,
        "wall_s": sum(scaled),
        "raw_wall_s": sum(chunks),
        "latency_s": sum(x for x in latencies if x is not None),
        "raw_latency_s": sum(x for x in raw if x is not None),
        "attempted": len(trace),
        "failed": failed,
        "ops_per_s": (len(trace) - failed) / sum(scaled),
        "raw_ops_per_s": (len(trace) - failed) / sum(chunks),
        **counts,
    }


def best_of(rounds: list[list[float | None]]) -> list[float | None]:
    """Per op, the least of the rounds' samples.

    Besides the slow stretches the speed probe corrects, a shared machine
    stalls now and then for milliseconds, in bursts that last minutes when
    another tenant is busy (its fsyncs, its memory traffic); those bursts,
    not the program, decided the tail percentiles from run to run.  An op
    replayed in three rounds rarely stalls all three times, while an op
    the program makes slow (an inline compaction) is slow every time."""
    out = []
    for samples in zip(*rounds):
        present = [x for x in samples if x is not None]
        out.append(min(present) if present else None)
    return out


def best_ops_per_s(rounds: list[dict]) -> float:
    """Completed ops over the sum of each chunk's best time across rounds."""
    best = sum(min(times) for times in zip(*(r["chunks"] for r in rounds)))
    done = rounds[0]["attempted"] - min(r["failed"] for r in rounds)
    return done / best


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, units: dict, notes: dict
) -> dict:
    """The result record, after printing a readable table of it and of
    ``notes`` (raw wall-clock figures and the probed slowdown)."""
    print(f"correct={correct} attempted={attempted} failed={failed}")
    for name, value in notes.items():
        print(f"  ({name} = {value:.4f})")
    for name, value in values.items():
        print(f"  {name:36s} {value:16.4f} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
