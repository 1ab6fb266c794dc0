"""The served workload: ``served_mix``.

``repro.serve`` runs in a child process with its CLI defaults except
``--root`` and ``--port 0`` (four shards split by the first key byte, a
16 MiB memtable per shard, group commit, admission control), started
through ``serve_launcher.py``.  Two client connections from this asyncio
process run closed loops of gets, puts, a few deletes and a few scans;
each connection writes only the keys of its parity.  The whole dataset
fits in the memtables, so the run measures the wire codec, admission, the
executor hop, sharded routing, memtable and WAL, and never SSTables or
compaction.

The timed phase runs in :data:`ROUNDS` rounds, each against a freshly
started and loaded server replaying the same traces, and each op's
latency is its best over the rounds (``common.best_of``).  The server is
not deterministic, so that best also drops delays the program adds to
some requests at random; the percentiles of the pooled samples of every
round, which keep them, are printed beside the result but do not hold
still from run to run on a shared machine (see the README).  The server
is stopped (SIGSTOP) while the speed probe runs.  The run ends with
SIGKILL and one restart on the last round's store, after which every
acknowledged write must read back with its last value.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from common import (
    END_TO_END,
    PROBE_S,
    Checker,
    Speed,
    best_of,
    best_ops_per_s,
    latency_metrics,
    median,
    result_line,
    scale,
)
from gen import OP_DELETE, OP_GET, OP_PUT, OP_SCAN, OTHERS

HERE = Path(__file__).resolve().parent
PRELOAD = 20_000
NOMINAL_RATE = 4_000
MIX = {OP_GET: 0.48, OP_PUT: 0.45, OP_DELETE: 0.03, OP_SCAN: 0.04}
SCAN_ROWS = (1, 20)
CONNECTIONS = 2
ROUNDS = 3
#: Ops per throughput chunk of one connection.
CHUNK = 500
LOAD_BATCH = 250
START_TIMEOUT_S = 60.0


class Server:
    """One launcher child process serving ``root``."""

    def __init__(self, root: Path, dump_dir: Path, traced: bool, speed: Speed):
        self.dump_dir = dump_dir
        self.speed = speed
        self.dumps = 0
        dump_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(dump_dir / "server.log", "ab")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_launcher.py"),
                "--dump-dir", str(dump_dir), "--trace", str(int(traced)),
                "--", "--root", str(root), "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self.port = self._wait_listening()
        speed.children.add(self.proc.pid)

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            line = fd.readline().decode()
            if not line:
                break
            if "listening on" in line:
                return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError(f"server did not start; see {self.dump_dir / 'server.log'}")

    def dump(self) -> dict:
        """Ask the launcher for its counters and wait for the file."""
        self.dumps += 1
        path = self.dump_dir / f"dump-{self.dumps}.json"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not write its counters")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def kill(self) -> None:
        self.speed.children.discard(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def disk_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class ConnTrace:
    """One connection's seeded trace (see ``gen.make_served_trace``)."""

    def __init__(self, seed: int, parity: int, ops: int):
        self.parity = parity
        self.trace, self.final, self.deleted = gen.make_served_trace(
            seed=seed, preload=PRELOAD, ops=ops, parity=parity, mix=MIX, scan_rows=SCAN_ROWS,
        )


class Conn:
    """One connection's run of its trace in one round: its own-key model,
    checks and timings."""

    def __init__(self, spec: ConnTrace, other: ConnTrace, checker: Checker):
        self.parity = spec.parity
        self.trace = spec.trace
        self.final = spec.final
        self.other_deleted = other.deleted
        self.own = gen.Model(PRELOAD)
        for ordinal in range(self.parity, PRELOAD, 2):
            self.own.put(ordinal)
        self.checker = checker
        self.raw: list[float | None] = []
        self.failed = 0

    def check_other(self, ordinal: int, value) -> bool:
        if value is None:
            return ordinal in self.other_deleted
        return gen.value_matches_format(ordinal, value)

    def check_scan(self, rows, start: bytes, limit: int) -> bool:
        """Rows must be the sorted live keys from ``start``: own keys
        exactly as modelled, the other connection's keys well formed and
        missing only where it deletes them."""
        keys = [k for k, _ in rows]
        if len(rows) > limit or keys != sorted(set(keys)) or (keys and keys[0] < start):
            return False
        last = keys[-1] if len(rows) == limit else None
        got = dict(rows)
        universe = self.own.sorted_keys
        pos = bisect.bisect_left(universe, start)
        while pos < len(universe) and (last is None or universe[pos] <= last):
            key = universe[pos]
            ordinal = gen.ordinal_of(key)
            value = got.pop(key, None)
            if ordinal % 2 == self.parity:
                if value != self.own.get(ordinal):
                    return False
            elif not self.check_other(ordinal, value):
                return False
            pos += 1
        return not got

    async def run(self, client, first: int, last: int) -> None:
        """Run ops ``first..last-1`` of the trace, timing and checking each."""
        from repro.serve.client import ServeError

        clock = time.perf_counter
        for op, key, arg, expected in self.trace[first:last]:
            start = clock()
            try:
                if op == OP_GET:
                    result = await client.get(key)
                elif op == OP_PUT:
                    result = await client.put(key, arg)
                elif op == OP_DELETE:
                    result = await client.delete(key)
                else:
                    result = await client.scan(key, None, arg)
            except (ServeError, OSError) as exc:
                self.raw.append(None)
                self.failed += 1
                if self.failed <= 3:
                    print(f"served op failed: {exc!r}", file=sys.stderr)
                continue
            self.raw.append(clock() - start)
            ordinal = gen.ordinal_of(key)
            if op == OP_PUT:
                self.own.values[ordinal] = arg
            elif op == OP_DELETE:
                self.own.delete(ordinal)
            elif op == OP_GET:
                ok = result == expected if expected is not OTHERS else self.check_other(ordinal, result)
                self.checker.check(ok, ("get", key, result))
            else:
                self.checker.check(self.check_scan(result, key, arg), ("scan", key, arg))


async def _connect(port: int):
    from repro.serve.client import ServeClient

    return await ServeClient("127.0.0.1", port).connect()


async def _load(port: int, speed: Speed) -> None:
    from repro.serve import protocol

    client = await _connect(port)
    try:
        for first in range(0, PRELOAD, LOAD_BATCH):
            if first % (10 * LOAD_BATCH) == 0:
                speed.probe()
            await client.batch([
                (protocol.BATCH_PUT, gen.key_of(o), gen.value_of(o, 0))
                for o in range(first, min(first + LOAD_BATCH, PRELOAD))
            ])
    finally:
        await client.aclose()


async def _timed(port: int, conns: list[Conn], speed: Speed) -> tuple[list[dict], int]:
    """Run every connection's trace at once, in segments of :data:`CHUNK`
    ops per connection with a speed probe between segments (both clients
    idle).  Returns each connection's scaled tallies and the clients'
    retry count."""
    clients = [await _connect(port) for _ in conns]
    try:
        clock = time.perf_counter
        chunks, marks = [], []
        for first in range(0, len(conns[0].trace), CHUNK):
            marks.append(speed.probe())
            start = clock()
            await asyncio.gather(*(
                conn.run(client, first, first + CHUNK) for conn, client in zip(conns, clients)
            ))
            chunks.append(clock() - start)
        marks.append(speed.probe())
        tallies = [
            scale(conn.trace, conn.raw, chunks, marks, speed, conn.failed, CHUNK)
            for conn in conns
        ]
        return tallies, sum(client.retries for client in clients)
    finally:
        for client in clients:
            await client.aclose()


async def _serve_counters(port: int) -> dict:
    client = await _connect(port)
    try:
        return (await client.stats())["serve"]
    finally:
        await client.aclose()


async def _ping(port: int) -> None:
    client = await _connect(port)
    try:
        await client.ping()
    finally:
        await client.aclose()


async def _sweep(port: int) -> list[tuple[bytes, bytes]]:
    client = await _connect(port)
    rows: list[tuple[bytes, bytes]] = []
    try:
        start = b""
        while True:
            page = await client.scan(start, None, 2000)
            rows.extend(page)
            if len(page) < 2000:
                return rows
            start = page[-1][0] + b"\x00"
    finally:
        await client.aclose()


def _start(root: Path, dump_dir: Path, traced: bool, speed: Speed) -> Server:
    """Start a server and wait for its first PING answer."""
    server = Server(root, dump_dir, traced, speed)
    asyncio.run(_ping(server.port))
    return server


def _round(work: Path, specs: list[ConnTrace], checker: Checker, speed: Speed, traced: bool) -> dict:
    """Start and load a server on a fresh store, run every connection's
    trace and return the live server with everything measured."""
    root = work / "store"

    def set_up() -> Server:
        server = _start(root, work / "dumps", traced, speed)
        try:
            asyncio.run(_load(server.port, speed))
        except BaseException:
            server.kill()
            raise
        return server

    server, raw_setup, setup_s = speed.timed(set_up)
    try:
        # The stats calls fall outside the two dumps, so the difference of
        # the dumps covers the timed pass alone.
        serve0 = asyncio.run(_serve_counters(server.port))
        before = server.dump()
        conns = [Conn(spec, specs[1 - spec.parity], checker) for spec in specs]
        client_trace = None
        if traced:
            from layers import LayerTrace

            client_trace = LayerTrace()
            client_trace.install_codec()
        try:
            tallies, retries = asyncio.run(_timed(server.port, conns, speed))
        finally:
            if client_trace is not None:
                client_trace.restore()
        after = server.dump()
        serve1 = asyncio.run(_serve_counters(server.port))
    except BaseException:
        server.kill()
        raise
    c0, c1 = before["counters"], after["counters"]
    live = sum(len(gen.key_of(o)) + len(v) for conn in conns for o, v in conn.own.values.items())
    for conn in conns:
        checker.check(conn.own.values == conn.final.values, "client model drifted from its trace")
    return {
        "server": server, "root": root, "conns": conns, "tallies": tallies,
        "retries": retries, "setup_s": setup_s, "raw_setup_s": raw_setup,
        "before": before, "after": after, "serve0": serve0, "serve1": serve1,
        "client_trace": client_trace,
        # No SSTable is ever written here, so write_amp counts every byte
        # the store writes (WAL and manifest) per user byte.
        "written": c1["io.bytes_written"] - c0["io.bytes_written"],
        "user": c1["user_bytes_written"] - c0["user_bytes_written"],
        "device_s": c1["io.sim_time_s"] - c0["io.sim_time_s"],
        "space_amp": disk_bytes(root) / live,
        "rss_mb": after["rss_mb"],
    }


def _specs(seed: int, seconds: int) -> list[ConnTrace]:
    ops = seconds * NOMINAL_RATE // (ROUNDS * CONNECTIONS)
    return [ConnTrace(seed, parity, ops) for parity in range(CONNECTIONS)]


def _merge(tallies: list[dict]) -> dict:
    """One tally over every connection of a round (their chunks overlap,
    so the round's time is one connection's)."""
    merged = {
        "trace": [entry for t in tallies for entry in t["trace"]],
        "latencies": [x for t in tallies for x in t["latencies"]],
        "chunks": tallies[0]["chunks"],
        "wall_s": tallies[0]["wall_s"],
        "raw_wall_s": tallies[0]["raw_wall_s"],
    }
    for key in ("latency_s", "raw_latency_s", "attempted", "failed", "get", "put", "delete", "scan"):
        merged[key] = sum(t[key] for t in tallies)
    done = merged["attempted"] - merged["failed"]
    merged["ops_per_s"] = done / merged["wall_s"]
    merged["raw_ops_per_s"] = done / merged["raw_wall_s"]
    return merged


def run(seed: int, seconds: int, traced: bool) -> dict:
    work = HERE / ".work" / f"served-{os.getpid()}"
    checker = Checker("served_mix")
    speed = Speed()
    servers = []
    try:
        if traced:
            return _run_traced(work, _specs(seed, seconds), checker, speed, servers)
        specs = _specs(seed, seconds)
        rounds = []
        for i in range(ROUNDS):
            if servers:
                servers[-1].kill()
            rounds.append(_round(work / f"round-{i}", specs, checker, speed, traced=False))
            servers.append(rounds[-1]["server"])
        last = rounds[-1]
        expected = sorted(
            (gen.key_of(o), v) for conn in last["conns"] for o, v in conn.own.values.items()
        )
        servers[-1].kill()
        servers.append(_start(last["root"], work / "restart", False, speed))
        checker.check(asyncio.run(_sweep(servers[-1].port)) == expected, "sweep after kill and restart")
        merged = [_merge(r["tallies"]) for r in rounds]
        values = {
            "setup_s": median(r["setup_s"] for r in rounds),
            "ops_per_s": best_ops_per_s(merged),
            **latency_metrics(merged[0]["trace"], best_of([m["latencies"] for m in merged])),
            "write_amp": sum(r["written"] for r in rounds) / sum(r["user"] for r in rounds),
            "space_amp": median(r["space_amp"] for r in rounds),
            "device_s": median(r["device_s"] for r in rounds),
            "peak_rss_mb": median(r["rss_mb"] for r in rounds),
        }
        values = {metric: values[metric] for metric, _ in END_TO_END}
        notes = {
            "slowdown": median(speed.samples) / PROBE_S,
            "raw setup_s": median(r["raw_setup_s"] for r in rounds),
            "raw ops_per_s": median(m["raw_ops_per_s"] for m in merged),
        }
        pooled = latency_metrics(
            [entry for m in merged for entry in m["trace"]],
            [x for m in merged for x in m["latencies"]],
        )
        for name in ("get_p99_us", "put_p99_us", "put_p999_us", "scan_p99_us"):
            notes[f"pooled {name}"] = pooled[name]
        return result_line(
            checker.mismatches == 0,
            sum(m["attempted"] for m in merged),
            sum(m["failed"] for m in merged),
            values,
            dict(END_TO_END),
            notes,
        )
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)


#: Wrappers that must record calls on the served workload.
EXPECTED = (
    "ShardedDB.get", "ShardedDB.put", "ShardedDB.delete", "ShardedDB.scan",
    "DB.get", "DB.put", "DB.delete", "DB.scan", "MemTable.add", "MemTable.get",
    "WalWriter.add_records", "protocol.decode_request", "protocol.encode_frame",
    "protocol.decode_put", "protocol.decode_scan", "protocol.encode_entries",
    "protocol.encode_get", "protocol.encode_put", "protocol.decode_body",
    "protocol.decode_entries",
)


def _run_traced(
    work: Path, specs: list[ConnTrace], checker: Checker, speed: Speed, servers: list
) -> dict:
    """One untraced and one traced round."""
    from layers import Records, delta, per_layer_metrics

    plain = _round(work / "plain", specs, checker, speed, traced=False)
    servers.append(plain["server"])
    plain["server"].kill()
    r = _round(work / "traced", specs, checker, speed, traced=True)
    servers.append(r["server"])
    plain_ops, ops = _merge(plain["tallies"]), _merge(r["tallies"])
    # The launcher's trace is cumulative from server start (load included):
    # only the difference of the dumps around the timed pass counts.
    records = Records(r["after"]["layers"], r["client_trace"].snapshot()).subtract(
        Records(r["before"]["layers"])
    )
    silent = [w for w in EXPECTED if records.calls(w) == 0]
    if silent:
        raise SystemExit(f"served_mix: traced wrappers recorded no calls: {', '.join(silent)}")
    d = delta(r["after"]["counters"], r["before"]["counters"])
    writes = [b - a for a, b in zip(r["before"]["shard_writes"], r["after"]["shard_writes"])]
    serve = {
        "retries": r["retries"],
        "shed": r["serve1"]["shed"] - r["serve0"]["shed"],
        "deadline_exceeded": r["serve1"]["deadline_exceeded"] - r["serve0"]["deadline_exceeded"],
        "shards_used": sum(1 for w in writes if w > 0),
    }
    ops.update(untraced_ops_per_s=plain_ops["ops_per_s"], traced_ops_per_s=ops["ops_per_s"])
    metrics = per_layer_metrics(records, d, ops, serve)
    values = {k: v["value"] for k, v in metrics.items()}
    units = {k: v["unit"] for k, v in metrics.items()}
    return result_line(
        checker.mismatches == 0,
        ops["attempted"] + plain_ops["attempted"],
        ops["failed"] + plain_ops["failed"],
        values,
        units,
        {"slowdown": median(speed.samples) / PROBE_S},
    )
