"""Seeded input generator, independent of the engine.

Everything the program is fed comes from here: keys, values, Zipf choices
and whole operation traces.  Nothing imports ``repro``, so a change to the
program cannot change its inputs.

Keys are 16 bytes: one spread byte, ``b"key"``, and the ordinal as 12
digits.  The spread byte is a fixed hash of the ordinal, so key order is
scrambled against ordinal order and the keys fall evenly into every
first-byte range (``repro.serve`` splits its default four shards by the
first key byte).  Values are 100 bytes: ``b"%012d.%08d."`` of the ordinal
and a per-key version, then filler chosen by both, so any value can be
checked against the ordinal and version it claims.
"""

from __future__ import annotations

import bisect
import random
import zlib

KEY_LEN = 16
VALUE_LEN = 100
_HEADER_LEN = 22  # b"%012d.%08d."
_FILL = random.Random(0x5EED).randbytes(4096)

OP_GET, OP_PUT, OP_DELETE, OP_SCAN = 0, 1, 2, 3
OP_NAMES = ("get", "put", "delete", "scan")


def key_of(ordinal: int) -> bytes:
    """The key for ``ordinal`` (a pure function: every run uses the same keys)."""
    spread = ((ordinal * 0x9E3779B97F4A7C15) >> 24) & 0xFF
    return bytes((spread,)) + b"key%012d" % ordinal


def ordinal_of(key: bytes) -> int | None:
    """Inverse of :func:`key_of`; None for a byte string it did not make."""
    if len(key) != KEY_LEN or key[1:4] != b"key" or not key[4:].isdigit():
        return None
    ordinal = int(key[4:])
    return ordinal if key_of(ordinal) == key else None


def value_of(ordinal: int, version: int) -> bytes:
    """The value written for ``ordinal`` at ``version``."""
    head = b"%012d.%08d." % (ordinal, version)
    start = (ordinal * 7 + version * 13) % (len(_FILL) - VALUE_LEN)
    return head + _FILL[start:start + VALUE_LEN - _HEADER_LEN]


def value_matches_format(ordinal: int, value: bytes) -> bool:
    """True when ``value`` is a well-formed value of ``ordinal`` at some version."""
    if len(value) != VALUE_LEN or value[:13] != b"%012d." % ordinal:
        return False
    version = value[13:21]
    return version.isdigit() and value == value_of(ordinal, int(version))


def scan_digest(rows) -> tuple[int, int]:
    """(row count, crc32 of the concatenated rows): what a scan is checked by."""
    return len(rows), zlib.crc32(b"".join([k + v for k, v in rows]))


class Zipf:
    """Zipf(theta) ranks over ``n`` items drawn with ``rng``, scrambled onto
    ordinals by a fixed permutation so the hot keys are spread over the
    key space.  As in YCSB's scrambled Zipfian, the scramble does not
    depend on the seed: every seed has the same hot keys and draws its own
    sequence of requests to them."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        total = 0.0
        cdf = []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** theta
            cdf.append(total)
        self._cdf = cdf
        self._total = total
        self._rng = rng
        self._perm = list(range(n))
        random.Random(0x5CA1AB1E).shuffle(self._perm)

    def next(self) -> int:
        rank = bisect.bisect_left(self._cdf, self._rng.random() * self._total)
        return self._perm[min(rank, len(self._perm) - 1)]


class Model:
    """The benchmark's own dict model of the store (ordinal -> live value),
    plus the key universe in key order for expected scan results."""

    def __init__(self, universe: int):
        self.values: dict[int, bytes] = {}
        self._versions: dict[int, int] = {}
        self.sorted_keys = sorted(key_of(i) for i in range(universe))
        self._ordinal_at = [ordinal_of(k) for k in self.sorted_keys]

    def put(self, ordinal: int) -> bytes:
        version = self._versions.get(ordinal, -1) + 1
        self._versions[ordinal] = version
        value = self.values[ordinal] = value_of(ordinal, version)
        return value

    def delete(self, ordinal: int) -> None:
        self.values.pop(ordinal, None)

    def get(self, ordinal: int) -> bytes | None:
        return self.values.get(ordinal)

    def scan(self, start: bytes, limit: int) -> list[tuple[bytes, bytes]]:
        rows = []
        keys = self.sorted_keys
        ordinals = self._ordinal_at
        values = self.values
        pos = bisect.bisect_left(keys, start)
        while pos < len(keys) and len(rows) < limit:
            value = values.get(ordinals[pos])
            if value is not None:
                rows.append((keys[pos], value))
            pos += 1
        return rows

    def live_items(self) -> list[tuple[bytes, bytes]]:
        return self.scan(b"", len(self.sorted_keys))

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.live_items())


def preload_ordinals(n: int, rng: random.Random) -> list[int]:
    """Load order for ordinals [0, n): shuffled, so the load is not a
    sorted bulk insert."""
    order = list(range(n))
    rng.shuffle(order)
    return order


def make_trace(
    *,
    seed: int,
    preload: int,
    ops: int,
    mix: dict[int, float],
    insert_share: float,
    scan_rows: tuple[int, int],
    theta: float = 0.9,
):
    """A seeded op trace with the expected answer of every read.

    ``mix`` gives the shares of get, put and delete and scan; ``insert_share``
    is the part of the put share that writes a new ordinal past the
    preloaded ones.  Returns ``(trace, model)``: each trace entry is
    ``(op, key, arg, expected)`` where ``arg`` is the value of a put or the
    row limit of a scan, and ``expected`` is the value (or None) a get must
    return or the :func:`scan_digest` a scan must match.  ``model`` holds
    the state after the whole trace.
    """
    rng = random.Random(seed)
    inserts = int(ops * mix[OP_PUT] * insert_share) + 1
    model = Model(preload + inserts)
    for ordinal in range(preload):
        model.put(ordinal)
    zipf = Zipf(preload, theta, rng)
    next_new = preload
    limit_new = preload + inserts
    cuts = []
    acc = 0.0
    for op in (OP_GET, OP_PUT, OP_DELETE, OP_SCAN):
        acc += mix.get(op, 0.0)
        cuts.append(acc)
    trace = []
    for _ in range(ops):
        r = rng.random() * acc
        op = bisect.bisect_right(cuts, r)
        if op == OP_GET:
            ordinal = zipf.next()
            trace.append((OP_GET, key_of(ordinal), None, model.get(ordinal)))
        elif op == OP_PUT:
            if next_new < limit_new and rng.random() < insert_share:
                ordinal = next_new
                next_new += 1
            else:
                ordinal = zipf.next()
            trace.append((OP_PUT, key_of(ordinal), model.put(ordinal), None))
        elif op == OP_DELETE:
            ordinal = zipf.next()
            model.delete(ordinal)
            trace.append((OP_DELETE, key_of(ordinal), None, None))
        else:
            start = key_of(zipf.next())
            limit = rng.randint(*scan_rows)
            trace.append((OP_SCAN, start, limit, scan_digest(model.scan(start, limit))))
    return trace, model


#: Expected-answer marker of a get on a key another connection writes.
OTHERS = object()


def make_served_trace(*, seed: int, preload: int, ops: int, parity: int, mix, scan_rows, theta=0.9):
    """The trace of one served connection, which writes only the ordinals
    of its ``parity`` and reads the whole key space.

    Returns ``(trace, own, deleted)``: gets of its own keys carry the exact
    expected answer, gets of the other connection's keys carry
    :data:`OTHERS` and scans carry None (both are checked as they run);
    ``own`` is the model of its own keys after the trace and ``deleted``
    the ordinals it deletes at some point, which the other connection may
    read as missing."""
    if preload % 2:
        raise ValueError("preload must be even so both parities own as many keys")
    rng = random.Random(seed * 2 + parity)
    own = Model(preload)
    for ordinal in range(parity, preload, 2):
        own.put(ordinal)
    zipf = Zipf(preload, theta, rng)
    deleted: set[int] = set()
    cuts = []
    acc = 0.0
    for op in (OP_GET, OP_PUT, OP_DELETE, OP_SCAN):
        acc += mix.get(op, 0.0)
        cuts.append(acc)
    trace = []
    for _ in range(ops):
        op = bisect.bisect_right(cuts, rng.random() * acc)
        ordinal = zipf.next()
        if op == OP_GET:
            expected = own.get(ordinal) if ordinal % 2 == parity else OTHERS
            trace.append((OP_GET, key_of(ordinal), None, expected))
        elif op == OP_SCAN:
            trace.append((OP_SCAN, key_of(ordinal), rng.randint(*scan_rows), None))
        else:
            ordinal += parity - ordinal % 2
            if op == OP_PUT:
                trace.append((OP_PUT, key_of(ordinal), own.put(ordinal), None))
            else:
                own.delete(ordinal)
                deleted.add(ordinal)
                trace.append((OP_DELETE, key_of(ordinal), None, None))
    return trace, own, deleted
