"""Benchmark-owned launcher for one remote shard worker process.

    python3 perfbench/shard_worker.py MANIFEST [--trace SPANS.json]

Starts a :class:`repro.serving.ShardWorker` on an ephemeral localhost port
over the shard store at ``MANIFEST``, prints ``PORT <n>`` once it is bound,
and serves until its standard input closes.  With ``--trace`` the worker
side of the remote tier is wrapped like the client side (see
``layers.WORKER_LAYERS``) and, on exit, the spans plus the worker's peak
resident set are written to ``SPANS.json``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--trace", default=None,
                        help="write worker spans here on exit")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench import layers
        from perfbench.spans import Tracer

        import repro.serving  # noqa: F401  (bind every module first)
        tracer = Tracer()
        layers.install(tracer, layers.WORKER_LAYERS)

    from repro.serving import ShardWorker

    worker = ShardWorker(args.manifest, host="127.0.0.1", port=0)
    worker.start()
    print(f"PORT {worker.address[1]}", flush=True)
    try:
        sys.stdin.read()  # parent closes our stdin to stop us
    finally:
        worker.stop()
        if tracer is not None:
            from perfbench.spans import dump_spans

            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with open(args.trace, "w") as out:
                json.dump({"pid": os.getpid(), "peak_rss_mb": peak_mb,
                           "spans": dump_spans(tracer.spans)}, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
