"""Async serving gateway benchmark (and regression gate).

Exercises :class:`repro.serving.ScreeningGateway` — the asyncio front door
that coalesces concurrent ``screen`` / ``score_pairs`` / ``screen_smiles``
requests into dynamic micro-batches — against the same service called
serially.

Gates (exit non-zero on violation, so CI can run ``--quick`` as a guard):

1. **Bitwise parity**: every flush composition returns exactly what the
   serial service returns — homogeneous batches, heterogeneous ``top_k``,
   heterogeneous ``exclude`` (indices and drug ids), symmetric/approx
   flag groups sharing one flush, and kind-mixed flushes (screen + pairs
   + SMILES).  During the throughput phase every response is *also*
   checked against its precomputed serial answer, so the compositions
   that arise from real flush timing are gated too.  Coalesced
   ``score_pairs`` must equal one vectorized call over the concatenated
   batch bitwise (vs per-request serial calls the guarantee is
   last-ulp; checked with allclose).  Always on, including ``--quick``.
2. **Micro-batching throughput**: with 32 closed-loop clients, the
   batched gateway (``max_batch=32``) sustains >= ``--min-speedup`` x
   the QPS of the unbatched gateway (``max_batch=1`` — the same asyncio
   path minus coalescing).  Skipped (reported only) when
   ``os.cpu_count() < 2``.
3. **Bounded tail latency**: batched p99 (from
   ``ServiceStats.gateway_latency``) stays under
   ``2 * clients * serial_single_screen`` — i.e. bounded by a small
   number of flush durations, never unbounded queueing.

    PYTHONPATH=src python benchmarks/bench_gateway.py
    PYTHONPATH=src python benchmarks/bench_gateway.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import os
import statistics
import sys
import time

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.serving import DDIScreeningService, LatencyWindow, ScreeningGateway


def _hits(results) -> list[list[tuple[int, float]]]:
    return [[(h.index, h.probability) for h in hits] for hits in results]


def build_service(num_drugs: int, hidden_dim: int, seed: int):
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus)
    service.refresh()  # warm the cache outside every measured path
    return corpus, service


# ---------------------------------------------------------------------------
# Gate 1: flush-composition parity
# ---------------------------------------------------------------------------
def check_parity(corpus, service, seed: int, failures: list[str]) -> int:
    """Deterministic flush compositions, each compared to serial calls.

    Every submission in one ``gather`` runs before the batcher task does
    (the first submission creates or wakes it behind the others), and
    ``max_batch`` exceeds every group, so one ``gather`` is one flush —
    the composition under test is exactly the composition scored.
    """
    rng = np.random.default_rng(seed)
    n = service.num_drugs
    ids = service._drug_ids

    def screens(specs):
        async def main():
            async with ScreeningGateway(service, max_batch=64) as gateway:
                return await asyncio.gather(
                    *[gateway.screen(q, top_k=k, exclude=e, symmetric=s)
                      for q, k, e, s in specs])
        return asyncio.run(main())

    compositions = {
        "homogeneous": [(int(q), 5, (), False)
                        for q in rng.choice(n, size=8, replace=False)],
        "heterogeneous top_k": [(int(q), int(k), (), False)
                                for q, k in zip(rng.choice(n, size=8),
                                                [1, 3, 9, 5, 2, 7, 4, 6])],
        "heterogeneous exclude": [
            (0, 5, (), False),
            (1, 5, (2, 3), False),
            (2, 5, (ids[0], 9), False),
            (3, 5, tuple(int(x) for x in rng.choice(n, size=4)), False)],
        # Symmetric and plain screens land in one flush but separate
        # coalescing groups — both must stay bitwise.
        "mixed flags": [(4, 5, (), False), (4, 5, (), True),
                        (5, 3, (), False), (5, 3, (), True)],
    }
    for label, specs in compositions.items():
        expected = [service.screen(q, top_k=k, exclude=e, symmetric=s)
                    for q, k, e, s in specs]
        if _hits(screens(specs)) != _hits(expected):
            failures.append(f"gateway parity: {label} flush diverges "
                            f"from serial screen")

    # Kind-mixed flush: screens + concatenated pairs + a SMILES encode.
    pair_lists = [np.array([[0, 1], [2, 3], [4, 5]]), np.array([[6, 7]])]
    expected_screens = [service.screen(6, top_k=4),
                        service.screen(7, top_k=2, exclude=(1,))]
    expected_pairs = service.score_pairs(np.concatenate(pair_lists))
    expected_smiles = service.screen_smiles(corpus[3], top_k=4)

    async def mixed():
        async with ScreeningGateway(service, max_batch=64) as gateway:
            return await asyncio.gather(
                gateway.screen(6, top_k=4),
                gateway.screen(7, top_k=2, exclude=(1,)),
                *[gateway.score_pairs(p) for p in pair_lists],
                gateway.screen_smiles(corpus[3], top_k=4))

    out = asyncio.run(mixed())
    if _hits(out[:2]) != _hits(expected_screens):
        failures.append("gateway parity: screens in a kind-mixed flush "
                        "diverge from serial")
    coalesced = np.concatenate(out[2:4])
    if not np.array_equal(coalesced, expected_pairs):
        failures.append("gateway parity: coalesced score_pairs != one "
                        "vectorized call over the concatenated batch")
    serial_pairs = np.concatenate([service.score_pairs(p)
                                   for p in pair_lists])
    if not np.allclose(coalesced, serial_pairs, rtol=1e-12, atol=0):
        failures.append("gateway parity: coalesced score_pairs not "
                        "allclose to per-request serial calls")
    if _hits([out[4]]) != _hits([expected_smiles]):
        failures.append("gateway parity: screen_smiles in a kind-mixed "
                        "flush diverges from serial")
    return len(compositions) + 1


# ---------------------------------------------------------------------------
# Gates 2 + 3: closed-loop load
# ---------------------------------------------------------------------------
async def _closed_loop(gateway, expected: dict, clients: int,
                       per_client: int, failures: list[str],
                       label: str) -> float:
    """``clients`` loops, each awaiting ``per_client`` screens in turn.

    Every response is checked against its precomputed serial answer —
    after the clock stops, so the parity gate costs no measured time —
    which makes whatever flush compositions the timing produces
    parity-gated too.
    """
    keys = sorted(expected)
    received: list[tuple[tuple, list]] = []

    async def one(client: int) -> None:
        for i in range(per_client):
            key = keys[(client * 7 + i * 3) % len(keys)]
            received.append((key, await gateway.screen(key[0],
                                                       top_k=key[1])))

    start = time.perf_counter()
    await asyncio.gather(*[one(c) for c in range(clients)])
    elapsed = time.perf_counter() - start
    for key, hits in received:
        if _hits([hits]) != _hits([expected[key]]):
            failures.append(f"{label}: response for query={key[0]} "
                            f"top_k={key[1]} diverges from serial")
            break
    return clients * per_client / elapsed


def measure_load(service, expected, max_batch: int, clients: int,
                 per_client: int, repeats: int, failures: list[str],
                 label: str):
    """Median QPS over ``repeats`` runs + the last run's latency window."""

    async def one_run():
        # Fresh window/histogram per run so the percentiles and the
        # reported batch sizes describe this phase only.
        service.stats.gateway_latency = LatencyWindow()
        service.stats.gateway_batch_sizes = {}
        async with ScreeningGateway(service,
                                    max_batch=max_batch) as gateway:
            await _closed_loop(gateway, expected, 4, 2, failures,
                               label + " warmup")
            return await _closed_loop(gateway, expected, clients,
                                      per_client, failures, label)

    qps, window = [], None
    for _ in range(repeats):
        qps.append(asyncio.run(one_run()))
        window = service.stats.gateway_latency
    return statistics.median(qps), window


def run(num_drugs: int, hidden_dim: int, clients: int, per_client: int,
        repeats: int, max_batch: int, min_speedup: float,
        seed: int = 0) -> int:
    failures: list[str] = []
    cpus = os.cpu_count() or 1

    print(f"building {num_drugs}-drug catalog (hidden_dim={hidden_dim}) "
          f"...", flush=True)
    corpus, service = build_service(num_drugs, hidden_dim, seed)

    compositions = check_parity(corpus, service, seed, failures)
    print(f"parity: {compositions} deterministic flush compositions vs "
          f"serial service — {'OK' if not failures else 'FAILED'}",
          flush=True)

    # Serial answers for every (query, top_k) the load phase can issue.
    rng = np.random.default_rng(seed)
    queries = [int(q) for q in rng.choice(num_drugs, size=16, replace=False)]
    expected = {(q, k): service.screen(q, top_k=k)
                for q in queries for k in (3, 5)}

    # Serial single-screen latency: the unit the p99 bound is built from.
    for _ in range(5):
        service.screen(queries[0], top_k=5)
    start = time.perf_counter()
    for _ in range(20):
        service.screen(queries[0], top_k=5)
    serial_single_s = (time.perf_counter() - start) / 20

    print(f"closed loop: {clients} clients x {per_client} requests, "
          f"median of {repeats} runs ...", flush=True)
    unbatched_qps, unbatched_window = measure_load(
        service, expected, 1, clients, per_client, repeats, failures,
        "unbatched")
    batched_qps, batched_window = measure_load(
        service, expected, max_batch, clients, per_client, repeats,
        failures, "batched")
    speedup = batched_qps / unbatched_qps if unbatched_qps else float("inf")

    # Gate 3: batched p99 bounded by a few flush durations.
    p99_bound_s = 2 * clients * serial_single_s
    p99_s = batched_window.p99
    if not np.isnan(p99_s) and p99_s > p99_bound_s:
        failures.append(f"batched p99 {p99_s * 1e3:.1f} ms exceeds bound "
                        f"{p99_bound_s * 1e3:.1f} ms — unbounded queueing")

    width = 56
    print()
    print(f"{'benchmark':{width}s} {'value':>14s}")
    print("-" * (width + 15))
    rows = [
        ("serial screen, single query",
         f"{serial_single_s * 1e6:9.0f} us"),
        (f"unbatched gateway QPS (max_batch=1)",
         f"{unbatched_qps:9.0f} /s"),
        (f"batched gateway QPS (max_batch={max_batch})",
         f"{batched_qps:9.0f} /s"),
        ("unbatched p50 / p99",
         f"{unbatched_window.p50 * 1e3:5.1f} / {unbatched_window.p99 * 1e3:5.1f} ms"),
        ("batched   p50 / p99",
         f"{batched_window.p50 * 1e3:5.1f} / {batched_window.p99 * 1e3:5.1f} ms"),
        ("batched p99 bound (2 x clients x serial)",
         f"{p99_bound_s * 1e3:9.1f} ms"),
        ("batch-size histogram (last batched run)",
         str(dict(sorted(service.stats.gateway_batch_sizes.items())))),
    ]
    for label, value in rows:
        print(f"{label:{width}s} {value:>14s}")
    print("-" * (width + 15))
    gated = cpus >= 2
    gate = "gated" if gated else f"skipped: {cpus} cpu"
    print(f"{'micro-batching speedup':{width}s} {speedup:9.2f} x   "
          f"(floor {min_speedup:.2f}x, {gate})")
    if gated and speedup < min_speedup:
        failures.append(f"batched QPS only {speedup:.2f}x unbatched "
                        f"(floor {min_speedup:.2f}x) at {clients} clients")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run (fewer requests/repeats)")
    parser.add_argument("--drugs", type=int, default=100,
                        help="catalog size (default: 100)")
    parser.add_argument("--hidden-dim", type=int, default=128,
                        help="embedding width (default: 128)")
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent closed-loop clients (default: 32)")
    parser.add_argument("--per-client", type=int, default=None,
                        help="requests per client (default: 16, quick: 6)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per mode (default: 5, quick: 3)")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="QPS-ratio floor (0 disables; default: 3.0)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.drugs < 20:
        parser.error("--drugs must be >= 20")
    if args.clients < 1 or args.max_batch < 1:
        parser.error("--clients and --max-batch must be >= 1")

    def default(value, quick, full):
        return (quick if args.quick else full) if value is None else value

    per_client = default(args.per_client, 6, 16)
    repeats = default(args.repeats, 3, 5)
    return run(args.drugs, args.hidden_dim, args.clients, per_client,
               repeats, args.max_batch, args.min_speedup, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
