"""Multi-host screening benchmark (and fault-tolerance regression gate).

Exercises the remote execution tier (``repro.serving.remote``): localhost
:class:`ShardWorker` processes serving a shard store over the stdlib TCP
transport, screened through the failover client
(:class:`RemoteShardExecutor`) and through a cold-booted service
(:meth:`DDIScreeningService.from_store`).

Gates (exit non-zero on violation, so CI can run ``--quick`` as a guard;
all three are always on, ``--quick`` only shrinks the catalog):

1. **Remote parity**: screens fanned out to live localhost workers return
   ``(indices, probabilities)`` bitwise-identical to the serial in-memory
   engine.
2. **Failover correctness**: under injected fault schedules — a dropped
   connection, a worker error, and a corrupted reply frame against every
   shard, plus the every-replica-down case — merged results stay bitwise
   identical (retry / replica failover / local mmap fallback), and the
   executor's stats prove the faults actually fired.
3. **Cold boot parity**: a service booted from the saved store + model
   archive screens bitwise-identically to the warm service that wrote
   them, with ``stats.corpus_encodes == 0`` (the corpus hypergraph is
   never re-encoded).

Timing rows (informational): serial vs remote latency (the transport tax
on a small catalog), faulted-screen latency (the retry tax), and the cold
boot wall time.

    PYTHONPATH=src python benchmarks/bench_remote_screening.py
    PYTHONPATH=src python benchmarks/bench_remote_screening.py --quick
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, save_model
from repro.serving import (DDIScreeningService, FaultPolicy, ShardWorker)


def _timeit(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _hits(results) -> list[list[tuple[int, float]]]:
    return [[(h.index, h.probability) for h in hits] for hits in results]


def _dead_addresses(count: int) -> list[tuple[str, int]]:
    """Localhost ports with no listener (bind, read the port, close)."""
    import socket
    addresses = []
    for _ in range(count):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addresses.append(probe.getsockname())
        probe.close()
    return addresses


def _check_fault_schedules(service, manifest, queries, top_k, reference,
                           num_shards, failures) -> float:
    """Gate 2: every schedule stays bitwise; returns faulted-screen secs."""
    schedules = [(action, shard) for action in ("drop", "error", "corrupt")
                 for shard in range(num_shards)]
    faulted_s = []
    for action, shard in schedules:
        policy = FaultPolicy.single(action, shard=shard)
        with ShardWorker(manifest, fault_policy=policy) as w1, \
                ShardWorker(manifest, fault_policy=policy) as w2:
            service.connect_workers([w1, w2], backoff_base_s=0.002,
                                    breaker_threshold=10)
            try:
                start = time.perf_counter()
                got = _hits(service.screen_batch(queries, top_k=top_k))
                faulted_s.append(time.perf_counter() - start)
                stats = dict(service.remote.stats)
            finally:
                service.disconnect_workers()
        label = f"{action} on shard {shard}"
        if got != reference:
            failures.append(f"faulted screen diverges ({label})")
        if not policy.fired:
            failures.append(f"fault schedule never fired ({label})")
        if stats["retries"] < 1:
            failures.append(f"no retry recorded ({label})")

    # Every replica down: the local mmap fallback must answer, bitwise.
    service.connect_workers(_dead_addresses(2), timeout_s=0.3,
                            backoff_base_s=0.002)
    try:
        got = _hits(service.screen_batch(queries, top_k=top_k))
        stats = dict(service.remote.stats)
    finally:
        service.disconnect_workers()
    if got != reference:
        failures.append("all-workers-down screen diverges from serial")
    if stats["local_fallbacks"] != num_shards:
        failures.append(
            f"expected {num_shards} local fallbacks with every worker "
            f"down, saw {stats['local_fallbacks']}")
    print(f"failover: {len(schedules)} fault schedules + all-down local "
          f"fallback vs serial engine — "
          f"{'OK' if not failures else 'FAILED'}")
    return statistics.median(faulted_s)


def run(num_drugs: int, hidden_dim: int, top_k: int, num_shards: int,
        num_workers: int, repeats: int, seed: int = 0) -> int:
    failures: list[str] = []
    rng = np.random.default_rng(seed)
    print(f"building {num_drugs}-drug catalog (hidden_dim={hidden_dim}, "
          f"{num_shards} shards) ...", flush=True)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    model.eval()

    with tempfile.TemporaryDirectory() as tmp:
        service = DDIScreeningService(model, builder, corpus,
                                      num_shards=num_shards, block_size=64)
        manifest = service.save_shards(Path(tmp) / "store",
                                       num_shards=num_shards)
        if not service.open_shards(manifest, strict=True):
            failures.append("open_shards refused its own store")
            return _report(failures, {})
        queries = [int(q) for q in rng.choice(
            num_drugs, size=min(8, num_drugs), replace=False)]
        reference = _hits(service.screen_batch(queries, top_k=top_k))
        serial_s = _timeit(
            lambda: service.screen_batch(queries, top_k=top_k), repeats)

        # ------------------------------------------------------------------
        # 1: remote parity + transport latency on live localhost workers
        # ------------------------------------------------------------------
        workers = [ShardWorker(manifest).start()
                   for _ in range(num_workers)]
        try:
            service.connect_workers(workers, backoff_base_s=0.002)
            remote = _hits(service.screen_batch(queries, top_k=top_k))
            if remote != reference:
                failures.append("remote screen diverges from the serial "
                                "in-memory engine")
            remote_s = _timeit(
                lambda: service.screen_batch(queries, top_k=top_k), repeats)
            health = service.remote.probe_health()
            if any(meta is None for meta in health.values()):
                failures.append("health probe failed on a live worker")
        finally:
            service.disconnect_workers()
        print(f"remote parity: {num_workers} workers x {len(queries)} "
              f"queries — {'OK' if not failures else 'FAILED'}")

        # ------------------------------------------------------------------
        # 2: failover correctness under injected fault schedules
        # ------------------------------------------------------------------
        faulted_s = _check_fault_schedules(service, manifest, queries,
                                           top_k, reference, num_shards,
                                           failures)
        for worker in workers:
            worker.stop()

        # ------------------------------------------------------------------
        # 3: cold boot parity (no corpus re-encode)
        # ------------------------------------------------------------------
        artifact = Path(tmp) / "model.npz"
        save_model(artifact, model, builder)
        start = time.perf_counter()
        cold = DDIScreeningService.from_store(manifest, artifact)
        boot_s = time.perf_counter() - start
        cold_hits = _hits(cold.screen_batch(queries, top_k=top_k))
        if cold_hits != reference:
            failures.append("cold-booted service diverges from the warm "
                            "service that wrote the store")
        if cold.stats.corpus_encodes != 0:
            failures.append(
                f"cold boot re-encoded the corpus "
                f"({cold.stats.corpus_encodes} encodes; expected 0)")
        print(f"cold boot: store + model archive -> bitwise screens, "
              f"corpus_encodes={cold.stats.corpus_encodes} — "
              f"{'OK' if not failures else 'FAILED'}")
        service.close()

    rows = {
        f"serial in-memory screen ({len(queries)} queries)":
            f"{serial_s * 1e3:9.2f} ms",
        f"remote screen ({num_workers} localhost workers)":
            f"{remote_s * 1e3:9.2f} ms",
        "faulted screen (1 injected fault, median)":
            f"{faulted_s * 1e3:9.2f} ms",
        "cold boot (load model + attach store)":
            f"{boot_s * 1e3:9.2f} ms",
    }
    return _report(failures, rows)


def _report(failures: list[str], rows: dict[str, str]) -> int:
    width = 52
    if rows:
        print()
        print(f"{'benchmark':{width}s} {'value':>14s}")
        print("-" * (width + 15))
        for label, value in rows.items():
            print(f"{label:{width}s} {value}")
        print("-" * (width + 15))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run")
    parser.add_argument("--drugs", type=int, default=None,
                        help="catalog size (default: 600, quick: 200)")
    parser.add_argument("--hidden-dim", type=int, default=None,
                        help="embedding width (default: 32, quick: 16)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: 4, quick: 3)")
    parser.add_argument("--workers", type=int, default=2,
                        help="localhost shard workers")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 8, quick: 3)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.drugs is not None and args.drugs < 10:
        parser.error("--drugs must be >= 10")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")

    def default(value, quick, full):
        return (quick if args.quick else full) if value is None else value

    return run(default(args.drugs, 200, 600),
               default(args.hidden_dim, 16, 32),
               args.top_k,
               default(args.shards, 3, 4),
               args.workers,
               default(args.repeats, 3, 8),
               seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
