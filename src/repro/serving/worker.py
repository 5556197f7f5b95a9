"""Shard worker entry point: ``python -m repro.serving.worker MANIFEST``.

Runs a :class:`~repro.serving.remote.ShardWorker` until interrupted and
prints ``... on <host>:<port> (...)`` once it listens, which
``start_workers`` reads.  The package never imports this module, so
``-m`` runs it without runpy's "found in sys.modules" warning.
"""

from __future__ import annotations

import argparse

from .remote import ShardWorker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a shard store's per-shard screening over TCP.")
    parser.add_argument("manifest",
                        help="shard-store manifest path (or its directory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (printed)")
    args = parser.parse_args(argv)
    worker = ShardWorker(args.manifest, host=args.host, port=args.port)
    host, port = worker.address
    print(f"shard worker serving {args.manifest} on {host}:{port} "
          f"({worker.store.num_shards} shards, "
          f"{worker.store.num_drugs} drugs)", flush=True)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Handler threads are not daemons: end open connections, or an
        # idle client would keep the process alive after Ctrl-C.
        worker.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
