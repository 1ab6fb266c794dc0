"""The in-process workloads: ``write_heavy`` and ``read_scan``.

Both drive one ``repro.DB`` with the paper's system, ``blockdb()``, scaled
down to 64 KiB SSTables and memtable and a 128 KiB block cache, on
``SimulatedFS`` with ``realtime=0`` and the default synchronous mode: the
device counts repeat exactly for a seed, and wall time is Python CPU.

The timed phase is a fixed seeded trace of ``seconds * nominal_rate /
ROUNDS`` ops, so write and space amplification and device seconds are
identical across runs of one seed.  It runs in :data:`ROUNDS` rounds, each
on a freshly set-up identical store, and the latency of each op is its
best over the rounds (``common.best_of``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen
from common import (
    CHUNK,
    END_TO_END,
    PROBE_S,
    Checker,
    Speed,
    best_of,
    best_ops_per_s,
    latency_metrics,
    median,
    result_line,
    rss_mb,
    run_ops,
)
from gen import OP_DELETE, OP_GET, OP_PUT, OP_SCAN

SSTABLE_SIZE = 64 * 1024
BLOCK_CACHE = 128 * 1024
ROUNDS = 3


@dataclass(frozen=True)
class Spec:
    preload: int
    #: Ops of the workload's own mix run during set-up, so the timed phase
    #: starts from a tree whose compaction pattern has settled.
    warmup: int
    nominal_rate: int
    mix: dict
    insert_share: float
    compact_after_load: bool


SPECS = {
    # Mostly Zipf updates, some inserts, a few deletes, 20% gets and a few
    # short scans: flush, WAL, memtable and size-triggered compaction do
    # most of the work.
    "write_heavy": Spec(
        preload=20_000,
        warmup=15_000,
        nominal_rate=10_000,
        mix={OP_GET: 0.20, OP_PUT: 0.73, OP_DELETE: 0.05, OP_SCAN: 0.02},
        insert_share=0.07,
        compact_after_load=False,
    ),
    # A compacted store 18x the block cache; Zipf gets, 15% scans and a
    # few updates: the read path does most of the work, and compaction is
    # triggered by seeks rather than by size.
    "read_scan": Spec(
        preload=20_000,
        warmup=3_000,
        nominal_rate=8_000,
        mix={OP_GET: 0.78, OP_PUT: 0.07, OP_SCAN: 0.15},
        insert_share=0.0,
        compact_after_load=True,
    ),
}
SCAN_ROWS = (1, 100)


def options():
    from repro.baselines.presets import blockdb

    return blockdb(sstable_size=SSTABLE_SIZE, block_cache_capacity=BLOCK_CACHE)


class Inputs:
    """Everything one run feeds the program, made from the seed."""

    def __init__(self, spec: Spec, seed: int, seconds: int):
        self.load_order = gen.preload_ordinals(spec.preload, random.Random(seed))
        ops = seconds * spec.nominal_rate // ROUNDS
        trace, self.model = gen.make_trace(
            seed=seed, preload=spec.preload, ops=spec.warmup + ops,
            mix=spec.mix, insert_share=spec.insert_share, scan_rows=SCAN_ROWS,
        )
        self.warmup, self.trace = trace[:spec.warmup], trace[spec.warmup:]


def setup(spec: Spec, inputs: Inputs, checker: Checker, speed: Speed):
    """Open a fresh store, load it, compact it if the workload says so and
    run the warm-up ops.  Returns the DB and its filesystem."""
    from repro import DB, SimulatedFS

    fs = SimulatedFS(realtime=0.0)
    db = DB(fs, options())
    put = db.put
    for i, ordinal in enumerate(inputs.load_order):
        if i % CHUNK == 0:
            speed.probe()
        put(gen.key_of(ordinal), gen.value_of(ordinal, 0))
    if spec.compact_after_load:
        speed.probe()
        db.compact_all()
    run_ops(db, inputs.warmup, checker, speed)
    return db, fs


def sweep(db, model: gen.Model, checker: Checker, when: str) -> None:
    """Full scan of the store against the model."""
    checker.check(db.scan() == model.live_items(), f"full sweep {when}")


def run(name: str, seed: int, seconds: int, traced: bool) -> dict:
    spec = SPECS[name]
    checker = Checker(name)
    speed = Speed()
    if traced:
        return _run_traced(name, spec, Inputs(spec, seed, seconds), checker, speed)

    inputs = Inputs(spec, seed, seconds)
    setup_times, raw_setup, rounds = [], [], []
    for _ in range(ROUNDS):
        (db, fs), raw, scaled = speed.timed(setup, spec, inputs, checker, speed)
        raw_setup.append(raw)
        setup_times.append(scaled)
        stats, io = db.stats, fs.stats
        user0, sst0, dev0 = stats.user_bytes_written, stats.sst_bytes_written(), io.sim_time_s
        rounds.append(run_ops(db, inputs.trace, checker, speed))
        # Identical in every round: the engine is deterministic here.
        write_amp = (stats.sst_bytes_written() - sst0) / (stats.user_bytes_written - user0)
        device_s = io.sim_time_s - dev0
        space_amp = stats.max_space_bytes / inputs.model.live_bytes()
        sweep(db, inputs.model, checker, "after the timed phase")
        db.close()

    values = {
        "setup_s": median(setup_times),
        "ops_per_s": best_ops_per_s(rounds),
        **latency_metrics(inputs.trace, best_of([r["latencies"] for r in rounds])),
        "write_amp": write_amp,
        "space_amp": space_amp,
        "device_s": device_s,
        "peak_rss_mb": rss_mb(),
    }
    values = {metric: values[metric] for metric, _ in END_TO_END}
    notes = {
        "slowdown": median(speed.samples) / PROBE_S,
        "raw setup_s": median(raw_setup),
        "raw ops_per_s": median(r["raw_ops_per_s"] for r in rounds),
    }
    return result_line(
        checker.mismatches == 0,
        sum(r["attempted"] for r in rounds),
        sum(r["failed"] for r in rounds),
        values,
        dict(END_TO_END),
        notes,
    )


#: Wrappers that must record calls on each in-process workload.
EXPECTED = {
    "common": (
        "DB.get", "DB.put", "DB.scan", "MemTable.add", "MemTable.get",
        "WalWriter.add_record", "file_for_key", "BloomFilter.may_contain",
        "TableReader.lookup", "TableReader.read_block", "IndexBlock.find_candidate",
        "parse_block_raw", "LazyDataBlock._region", "BlockCache.get",
        "CompactionPicker.pick", "flush_memtable", "run_table_compaction",
        "RandomAccessFile.read", "WritableFile.append", "merge_entries",
        "merge_live", "TableBuilder.add", "BlockBuilder.add",
    ),
    "write_heavy": (
        "DB.delete", "run_selective_compaction", "merge_keep_newest", "AppendSession.add",
    ),
    "read_scan": (),
}


def _run_traced(name: str, spec: Spec, inputs: Inputs, checker: Checker, speed: Speed) -> dict:
    """One untraced and one traced pass over identical stores and traces."""
    from layers import LayerTrace, Records, delta, engine_counters, per_layer_metrics

    db, _ = setup(spec, inputs, checker, speed)
    plain = run_ops(db, inputs.trace, checker, speed)
    db.close()

    db, _ = setup(spec, inputs, checker, speed)
    before = engine_counters([db])
    trace = LayerTrace()
    trace.install()
    try:
        res = run_ops(db, inputs.trace, checker, speed)
    finally:
        trace.restore()
    d = delta(engine_counters([db]), before)
    sweep(db, inputs.model, checker, "traced")
    db.close()

    records = Records(trace.snapshot())
    silent = [w for w in EXPECTED["common"] + EXPECTED[name] if records.calls(w) == 0]
    if silent:
        raise SystemExit(f"{name}: traced wrappers recorded no calls: {', '.join(silent)}")
    ops = dict(res, untraced_ops_per_s=plain["ops_per_s"], traced_ops_per_s=res["ops_per_s"])
    metrics = per_layer_metrics(records, d, ops)
    values = {k: v["value"] for k, v in metrics.items()}
    units = {k: v["unit"] for k, v in metrics.items()}
    return result_line(
        checker.mismatches == 0,
        res["attempted"] + plain["attempted"],
        res["failed"] + plain["failed"],
        values,
        units,
        {"slowdown": median(speed.samples) / PROBE_S},
    )
