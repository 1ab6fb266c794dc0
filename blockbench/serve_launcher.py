"""Start ``repro.serve`` for the benchmark.

Usage::

    python3 blockbench/serve_launcher.py --dump-dir DIR --trace 0|1 -- <repro.serve flags>

Calls the CLI's own ``repro.serve.__main__.main`` with the given flags.
The launcher adds two things around it: it keeps a reference to the
``ShardedDB`` the CLI opens, and on SIGUSR1 it writes the engine's
counters (``IOStats`` with ``syncs``, ``DBStats``, peak RSS) and, with
``--trace 1``, the per-layer trace records to ``DIR/dump-<n>.json``.
With ``--trace 1`` it also installs the layer wrappers before the server
starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description="benchmark launcher for repro.serve")
    parser.add_argument("--dump-dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[:split])
    serve_argv = argv[split + 1:]

    import repro.serve.__main__ as cli
    from layers import LayerTrace, engine_counters

    opened = []
    sharded_db = cli.ShardedDB

    def open_and_keep(*a, **kw):
        db = sharded_db(*a, **kw)
        opened.append(db)
        return db

    cli.ShardedDB = open_and_keep
    trace = LayerTrace() if args.trace else None
    if trace is not None:
        trace.install(served=True)
    dumps = 0

    def dump(_signum, _frame) -> None:
        nonlocal dumps
        shards = [db for _, db in opened[-1].shard_dbs()]
        doc = {
            "counters": engine_counters(shards, shared_caches=True),
            "shard_writes": [db.stats.user_writes for db in shards],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": trace.snapshot() if trace is not None else None,
        }
        dumps += 1
        path = args.dump_dir / f"dump-{dumps}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(serve_argv)


if __name__ == "__main__":
    raise SystemExit(main())
