"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps public functions of each layer where their
callers look them up (a module-level function imported by name is patched
in the importing module, e.g. ``repro.core.db.run_block_compaction``) and
records, per thread, calls, inclusive time and self time (inclusive time
minus the time of wrapped calls made inside it).  Each record is keyed by
the function and the *context* it ran in: the innermost enclosing
``get``/``put``/``delete``/``scan`` engine call, ``flush`` or
``compaction``, so a bloom check inside a seek compaction is not counted
as a bloom check of a get.

Nothing here runs unless :meth:`LayerTrace.install` is called, so measured
runs execute the program untouched.
"""

from __future__ import annotations

import functools
import threading
import time

# Function families of the compaction stages (self time inside a
# compaction context).
STAGES = {
    "read": ("RandomAccessFile.read", "RandomAccessFile.read_many"),
    "decode": (
        "parse_block_raw", "DataBlock.parse",
        "LazyDataBlock._region", "LazyDataBlock._materialize",
    ),
    "merge": ("merge_entries", "merge_live", "merge_keep_newest"),
    "encode": (
        "TableBuilder.add", "TableBuilder.finish", "BlockBuilder.add",
        "BlockBuilder.finish", "AppendSession.add", "AppendSession.finish",
    ),
    "write": ("WritableFile.append", "WritableFile.sync"),
}
COMPACTION_RUNNERS = (
    "run_table_compaction", "run_block_compaction",
    "run_selective_compaction", "run_trivial_move",
)
DECODE = STAGES["decode"]


class _State:
    """One thread's recording state."""

    __slots__ = ("child", "ctx", "records", "counts")

    def __init__(self):
        self.child: list[float] = []
        self.ctx: list[str] = ["other"]
        self.records: dict[tuple[str, str], list] = {}
        self.counts: dict[tuple[str, str], int] = {}


class _TimedIter:
    """Times every ``next()`` of a wrapped generator as one call."""

    __slots__ = ("_trace", "_name", "_it")

    def __init__(self, trace: "LayerTrace", name: str, it):
        self._trace = trace
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        return self._trace._call(self._name, None, None, self._it.__next__, (), {})


class LayerTrace:
    """Records per-layer calls and times; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_State] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _state(self) -> _State:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _State()
            with self._lock:
                self._states.append(state)
        return state

    def _call(self, name, ctx, count, fn, args, kwargs):
        state = self._state()
        if ctx is not None:
            state.ctx.append(ctx)
        where = state.ctx[-1]
        state.child.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = state.child.pop()
            if ctx is not None:
                state.ctx.pop()
            rec = state.records.get((name, where))
            if rec is None:
                rec = state.records[(name, where)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - child
            if state.child:
                state.child[-1] += elapsed
        if count is not None:
            for label in count(result):
                key = (f"{name}.{label}", where)
                state.counts[key] = state.counts.get(key, 0) + 1
        return result

    def wrap(self, name: str, fn, *, ctx: str | None = None, count=None):
        """``fn`` timed as layer function ``name``; ``ctx`` makes it set the
        context of the calls inside it; ``count(result)`` yields labels of
        outcome counters (``<name>.<label>``)."""
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, ctx, count, fn, args, kwargs)

        return wrapper

    def wrap_iter(self, name: str, fn):
        """``fn`` returns an iterator; every ``next()`` on it is one call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIter(self, name, iter(fn(*args, **kwargs)))

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str | None = None, *, kind: str = "func", **kw):
        """Replace ``owner.attr`` with its wrapper (``kind`` is ``func``,
        ``iter`` or ``classmethod``); :meth:`restore` undoes it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = name or attr
        if kind == "classmethod":
            wrapped = classmethod(self.wrap(name, original.__func__, **kw))
        elif kind == "iter":
            wrapped = self.wrap_iter(name, original)
        else:
            wrapped = self.wrap(name, original, **kw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, *, served: bool = False) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.bloom.bloom import BloomFilter
        from repro.cache.block_cache import BlockCache
        from repro.compaction import base, block_compaction, selective, table_compaction
        from repro.compaction.picker import CompactionPicker
        from repro.core import db as core_db
        from repro.core.superversion import SuperVersion
        from repro.core.version import Version
        from repro.memtable.memtable import MemTable
        from repro.memtable.wal import WalWriter
        from repro.sstable import block, table_reader
        from repro.sstable.block_builder import BlockBuilder
        from repro.sstable.index import IndexBlock
        from repro.sstable.table_appender import AppendSession
        from repro.sstable.table_builder import TableBuilder
        from repro.sstable.table_reader import TableReader
        from repro.storage.fs import RandomAccessFile, WritableFile

        DB = core_db.DB
        for op in ("get", "put", "delete", "scan"):
            self.patch(DB, op, f"DB.{op}", ctx=op)
        self.patch(MemTable, "add", "MemTable.add")
        self.patch(MemTable, "get", "MemTable.get", count=_found)
        self.patch(WalWriter, "add_record", "WalWriter.add_record")
        self.patch(WalWriter, "add_records", "WalWriter.add_records")
        self.patch(Version, "file_for_key", "file_for_key", count=_hit)
        self.patch(SuperVersion, "file_for_key", "file_for_key", count=_hit)
        self.patch(BloomFilter, "may_contain", "BloomFilter.may_contain")
        self.patch(TableReader, "lookup", "TableReader.lookup", count=_lookup)
        self.patch(TableReader, "read_block", "TableReader.read_block")
        self.patch(IndexBlock, "find_candidate", "IndexBlock.find_candidate")
        self.patch(table_reader, "parse_block_raw", "parse_block_raw")
        self.patch(block.DataBlock, "parse", "DataBlock.parse", kind="classmethod")
        self.patch(block.LazyDataBlock, "_region", "LazyDataBlock._region")
        self.patch(block.LazyDataBlock, "_materialize", "LazyDataBlock._materialize")
        self.patch(BlockCache, "get", "BlockCache.get", count=_hit)
        self.patch(CompactionPicker, "pick", "CompactionPicker.pick")
        self.patch(core_db, "flush_memtable", ctx="flush")
        for runner in COMPACTION_RUNNERS:
            self.patch(core_db, runner, ctx="compaction")
        for module in (base, block_compaction):
            self.patch(module, "merge_entries", kind="iter")
        for module in (base, table_compaction, selective):
            self.patch(module, "merge_live", kind="iter")
        for module in (base, block_compaction):
            self.patch(module, "merge_keep_newest", kind="iter")
        for cls, attrs in (
            (RandomAccessFile, ("read", "read_many")),
            (WritableFile, ("append", "sync")),
            (TableBuilder, ("add", "finish")),
            (BlockBuilder, ("add", "finish")),
            (AppendSession, ("add", "finish")),
        ):
            for attr in attrs:
                self.patch(cls, attr, f"{cls.__name__}.{attr}")
        if served:
            self.install_codec()
            from repro.sharding.sharded_db import ShardedDB

            for op in ("get", "put", "delete", "scan"):
                self.patch(ShardedDB, op, f"ShardedDB.{op}")

    def install_codec(self) -> None:
        """Wrap every encode/decode function of the wire protocol."""
        from repro.serve import protocol

        for attr in sorted(vars(protocol)):
            if attr.startswith(("encode_", "decode_")) and callable(getattr(protocol, attr)):
                self.patch(protocol, attr, f"protocol.{attr}")

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Merged records of every thread, as plain JSON-able lists."""
        records: dict[tuple[str, str], list] = {}
        counts: dict[tuple[str, str], int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in list(state.records.items()):
                rec = records.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for key, n in list(state.counts.items()):
                counts[key] = counts.get(key, 0) + n
        return {
            "records": [[n, c, *r] for (n, c), r in sorted(records.items())],
            "counts": [[n, c, v] for (n, c), v in sorted(counts.items())],
        }


def _found(result):
    return ("found",) if result[0] else ()


def _hit(result):
    return ("hit",) if result is not None else ()


def _lookup(result):
    found, _value, touched = result
    if not touched:
        return ()
    return ("touched", "touched_found") if found else ("touched",)


class Records:
    """Query helper over one or more :meth:`LayerTrace.snapshot` results."""

    def __init__(self, *snapshots: dict):
        self.rec: dict[tuple[str, str], list] = {}
        self.cnt: dict[tuple[str, str], int] = {}
        for snap in snapshots:
            for name, ctx, calls, total, own in snap["records"]:
                rec = self.rec.setdefault((name, ctx), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for name, ctx, n in snap["counts"]:
                self.cnt[(name, ctx)] = self.cnt.get((name, ctx), 0) + n

    def subtract(self, earlier: "Records") -> "Records":
        """Take away ``earlier``, records of an earlier snapshot of the same
        trace, leaving what was recorded between the two; returns self."""
        for key, (calls, total, own) in earlier.rec.items():
            rec = self.rec[key]
            rec[0] -= calls
            rec[1] -= total
            rec[2] -= own
        for key, n in earlier.cnt.items():
            self.cnt[key] -= n
        return self

    def _select(self, names, ctx):
        names = (names,) if isinstance(names, str) else tuple(names)
        ctxs = None if ctx is None else ((ctx,) if isinstance(ctx, str) else tuple(ctx))
        for (name, where), rec in self.rec.items():
            if name in names and (ctxs is None or where in ctxs):
                yield rec

    def calls(self, names, ctx=None) -> int:
        return sum(rec[0] for rec in self._select(names, ctx))

    def total(self, names, ctx=None) -> float:
        return sum(rec[1] for rec in self._select(names, ctx))

    def own(self, names, ctx=None) -> float:
        return sum(rec[2] for rec in self._select(names, ctx))

    def count(self, label: str, ctx=None) -> int:
        return sum(
            n for (name, where), n in self.cnt.items()
            if name == label and (ctx is None or where == ctx)
        )

    def all_own(self) -> float:
        return sum(rec[2] for rec in self.rec.values())


def engine_counters(dbs, *, shared_caches: bool = False) -> dict:
    """Flat counters of a list of engines (one DB, or every shard of a
    ShardedDB); the benchmark reports differences of two of these.

    ``syncs`` is read from ``IOStats`` directly: ``IOStats.snapshot()`` and
    ``delta_since()`` drop it.  Shards share one block and table cache, so
    with ``shared_caches`` the cache counters are taken once."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, db in enumerate(dbs):
        stats, io = db.stats, db.fs.stats
        for field in (
            "user_bytes_written", "gets", "scan_entries", "stall_events",
            "flush_count", "flush_bytes", "table_compactions", "block_compactions",
            "trivial_moves", "seek_triggered_compactions",
            "compaction_bytes_read", "compaction_bytes_written",
        ):
            add(field, getattr(stats, field))
        add("max_space_bytes", stats.max_space_bytes)
        for field in ("bytes_written", "random_reads", "write_ops", "syncs", "dir_scans", "sim_time_s"):
            add(f"io.{field}", getattr(io, field))
        for cat, counters in list(io.per_category.items()):
            add(f"io.written.{cat}", counters.bytes_written)
            add(f"io.read.{cat}", counters.bytes_read)
        for cat, seconds in list(io.time_per_category.items()):
            add(f"io.time.{cat}", seconds)
        if i == 0 or not shared_caches:
            for prefix, cache in (("block", db.block_cache), ("table", db.table_cache)):
                snap = cache.snapshot()
                add(f"cache.{prefix}.hits", snap.hits)
                add(f"cache.{prefix}.misses", snap.misses)
                add(f"cache.{prefix}.evictions", snap.evictions)
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("serve.codec_us_per_req", "us", "lower"),
    ("serve.engine_us_per_req", "us", "lower"),
    ("serve.overhead_us_per_req", "us", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_exceeded", "count", "lower"),
    ("sharding.route_us_per_req", "us", "lower"),
    ("sharding.shards_used", "count", "higher"),
    ("core.get_self_us", "us", "lower"),
    ("core.put_self_us", "us", "lower"),
    ("core.scan_us_per_row", "us", "lower"),
    ("core.stall_events", "count", "lower"),
    ("memtable.add_us", "us", "lower"),
    ("memtable.get_us", "us", "lower"),
    ("memtable.get_found_ratio", "ratio", "higher"),
    ("wal.append_us_per_op", "us", "lower"),
    ("wal.bytes", "bytes", "lower"),
    ("wal.syncs", "count", "lower"),
    ("version.probe_us_per_get", "us", "lower"),
    ("version.files_probed_per_get", "count", "lower"),
    ("bloom.checks_per_get", "count", "lower"),
    ("bloom.us_per_check", "us", "lower"),
    ("sstable.lookups_per_get", "count", "lower"),
    ("sstable.lookup_us", "us", "lower"),
    ("sstable.block_reads_per_get", "count", "lower"),
    ("sstable.index_us_per_lookup", "us", "lower"),
    ("sstable.block_parse_us_per_block", "us", "lower"),
    ("sstable.blocks_parsed", "count", "lower"),
    ("sstable.probe_found_ratio", "ratio", "higher"),
    ("cache.block_hit_ratio", "ratio", "higher"),
    ("cache.block_evictions", "count", "lower"),
    ("cache.table_hit_ratio", "ratio", "higher"),
    ("cache.block_get_us", "us", "lower"),
    ("compaction.count", "count", "lower"),
    ("compaction.block_count", "count", "lower"),
    ("compaction.table_count", "count", "lower"),
    ("compaction.trivial_moves", "count", "higher"),
    ("compaction.seek_triggered", "count", "lower"),
    ("compaction.busy_s", "s", "lower"),
    ("compaction.pick_us", "us", "lower"),
    ("compaction.read_s", "s", "lower"),
    ("compaction.decode_s", "s", "lower"),
    ("compaction.merge_s", "s", "lower"),
    ("compaction.encode_s", "s", "lower"),
    ("compaction.write_s", "s", "lower"),
    ("compaction.bytes_read", "bytes", "lower"),
    ("compaction.bytes_written", "bytes", "lower"),
    ("compaction.dir_scans", "count", "lower"),
    ("flush.count", "count", "lower"),
    ("flush.busy_s", "s", "lower"),
    ("flush.bytes", "bytes", "lower"),
    ("storage.bytes_written.wal", "bytes", "lower"),
    ("storage.bytes_written.flush", "bytes", "lower"),
    ("storage.bytes_written.compaction", "bytes", "lower"),
    ("storage.bytes_written.manifest", "bytes", "lower"),
    ("storage.bytes_read.get", "bytes", "lower"),
    ("storage.bytes_read.scan", "bytes", "lower"),
    ("storage.bytes_read.compaction", "bytes", "lower"),
    ("storage.device_s.get", "s", "lower"),
    ("storage.device_s.scan", "s", "lower"),
    ("storage.device_s.flush", "s", "lower"),
    ("storage.device_s.compaction", "s", "lower"),
    ("storage.random_reads", "count", "lower"),
    ("storage.write_ops", "count", "lower"),
    ("trace.unattributed_us_per_op", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def per_layer_metrics(r: Records, d: dict, ops: dict, serve: dict | None = None) -> dict:
    """Every per-layer metric from trace records ``r``, engine counter
    deltas ``d`` and the benchmark's own op tallies ``ops`` (``get``,
    ``put``, ``delete``, ``scan``, ``raw_wall_s``, ``raw_latency_s``,
    ``untraced_ops_per_s``, ``traced_ops_per_s``).  Layer times are raw
    wall-clock, so they are set against the raw end-to-end times.  ``serve`` carries the
    client-side retry count and the server's shed/deadline counters and
    shards used on the served workload."""
    us = 1e6
    gets = ops["get"]
    requests = ops["get"] + ops["put"] + ops["delete"] + ops["scan"]
    codec = r.own([n for n, _ in r.rec if n.startswith("protocol.")])
    sharded = [f"ShardedDB.{op}" for op in ("get", "put", "delete", "scan")]
    engine_incl = r.total(sharded)
    lookups = r.calls("TableReader.lookup", "get")
    touched = r.count("TableReader.lookup.touched")
    parsed = r.calls("parse_block_raw")
    m = {
        "serve.codec_us_per_req": _ratio(codec * us, requests) if serve else 0.0,
        "serve.engine_us_per_req": _ratio(engine_incl * us, requests),
        "serve.overhead_us_per_req": (
            _ratio((ops["raw_latency_s"] - engine_incl - codec) * us, requests) if serve else 0.0
        ),
        "serve.retries": serve["retries"] if serve else 0,
        "serve.shed": serve["shed"] if serve else 0,
        "serve.deadline_exceeded": serve["deadline_exceeded"] if serve else 0,
        "sharding.route_us_per_req": _ratio(r.own(sharded) * us, requests),
        "sharding.shards_used": serve["shards_used"] if serve else 0,
        "core.get_self_us": _ratio(r.own("DB.get", "get") * us, r.calls("DB.get")),
        "core.put_self_us": _ratio(r.own("DB.put", "put") * us, r.calls("DB.put")),
        "core.scan_us_per_row": _ratio(r.own("DB.scan", "scan") * us, d["scan_entries"]),
        "core.stall_events": d["stall_events"],
        "memtable.add_us": _ratio(r.own("MemTable.add") * us, r.calls("MemTable.add")),
        "memtable.get_us": _ratio(r.own("MemTable.get") * us, r.calls("MemTable.get")),
        "memtable.get_found_ratio": _ratio(
            r.count("MemTable.get.found"), r.calls("MemTable.get")
        ),
        "wal.append_us_per_op": _ratio(
            r.own(("WalWriter.add_record", "WalWriter.add_records")) * us,
            ops["put"] + ops["delete"],
        ),
        "wal.bytes": d.get("io.written.wal", 0),
        "wal.syncs": d["io.syncs"],
        "version.probe_us_per_get": _ratio(r.own("file_for_key", "get") * us, gets),
        "version.files_probed_per_get": _ratio(r.count("file_for_key.hit", "get"), gets),
        "bloom.checks_per_get": _ratio(r.calls("BloomFilter.may_contain", "get"), gets),
        "bloom.us_per_check": _ratio(
            r.own("BloomFilter.may_contain") * us, r.calls("BloomFilter.may_contain")
        ),
        "sstable.lookups_per_get": _ratio(lookups, gets),
        "sstable.lookup_us": _ratio(
            r.total("TableReader.lookup") * us, r.calls("TableReader.lookup")
        ),
        "sstable.block_reads_per_get": _ratio(r.calls("TableReader.read_block", "get"), gets),
        "sstable.index_us_per_lookup": _ratio(
            r.own("IndexBlock.find_candidate") * us, r.calls("IndexBlock.find_candidate")
        ),
        "sstable.block_parse_us_per_block": _ratio(r.own(DECODE) * us, parsed),
        "sstable.blocks_parsed": parsed,
        "sstable.probe_found_ratio": _ratio(
            r.count("TableReader.lookup.touched_found"), touched
        ),
        "cache.block_hit_ratio": _ratio(
            d["cache.block.hits"], d["cache.block.hits"] + d["cache.block.misses"]
        ),
        "cache.block_evictions": d["cache.block.evictions"],
        "cache.table_hit_ratio": _ratio(
            d["cache.table.hits"], d["cache.table.hits"] + d["cache.table.misses"]
        ),
        "cache.block_get_us": _ratio(
            r.own("BlockCache.get") * us, r.calls("BlockCache.get")
        ),
        "compaction.count": d["table_compactions"] + d["block_compactions"] + d["trivial_moves"],
        "compaction.block_count": d["block_compactions"],
        "compaction.table_count": d["table_compactions"],
        "compaction.trivial_moves": d["trivial_moves"],
        "compaction.seek_triggered": d["seek_triggered_compactions"],
        "compaction.busy_s": r.total(COMPACTION_RUNNERS),
        "compaction.pick_us": _ratio(
            r.total("CompactionPicker.pick") * us, r.calls("CompactionPicker.pick")
        ),
        "compaction.bytes_read": d["compaction_bytes_read"],
        "compaction.bytes_written": d["compaction_bytes_written"],
        "compaction.dir_scans": d["io.dir_scans"],
        "flush.count": d["flush_count"],
        "flush.busy_s": r.total("flush_memtable"),
        "flush.bytes": d["flush_bytes"],
        "storage.random_reads": d["io.random_reads"],
        "storage.write_ops": d["io.write_ops"],
        "trace.unattributed_us_per_op": _ratio(
            (ops["raw_latency_s"] if serve else ops["raw_wall_s"]) * us - r.all_own() * us, requests
        ),
        "trace.overhead_ratio": _ratio(ops["traced_ops_per_s"], ops["untraced_ops_per_s"]),
    }
    for stage, family in STAGES.items():
        m[f"compaction.{stage}_s"] = r.own(family, "compaction")
    for cat in ("wal", "flush", "compaction", "manifest"):
        m[f"storage.bytes_written.{cat}"] = d.get(f"io.written.{cat}", 0)
    for cat in ("get", "scan", "compaction"):
        m[f"storage.bytes_read.{cat}"] = d.get(f"io.read.{cat}", 0)
    for cat in ("get", "scan", "flush", "compaction"):
        m[f"storage.device_s.{cat}"] = d.get(f"io.time.{cat}", 0.0)
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}
