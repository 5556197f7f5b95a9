"""Out-of-core screening benchmark (and regression gate).

Exercises the memory-mapped tier of the blockwise/sharded screening
engine: the **shard store** (``repro.serving.store``) persists the
catalog's embedding rows and precomputed candidate projections as raw
per-shard ``.npy`` files plus a JSON manifest, reopened with
``np.load(..., mmap_mode="r")`` so screening streams candidate blocks from
disk.  Peak *heap* allocations during a screen must stay O(block + k) — a
small fraction of the store's bytes — which is what lets a catalog
(projections included) larger than RAM flow through the engine.  (The
mapped file pages themselves live in the OS page cache and are
reclaimable; the gate measures traced allocations, like the engine's
existing memory gate.)

Gates (exit non-zero on violation, so CI can run ``--quick`` as a guard):

1. **Bitwise parity**: for every tested (num_shards, block_size) plan the
   memory-mapped store returns the same ``(indices, probabilities)`` as
   the in-memory engine, for ``screen_batch`` and for a symmetric
   single-query ``screen``.  Always on, including ``--quick``.
2. **Out-of-core memory**: peak traced allocation while screening the
   memory-mapped catalog < 1/10 of the store's bytes on disk (i.e.
   O(block + k), not O(catalog)).

Shard worker processes, the out-of-process placement, are benchmarked by
``bench_remote_screening.py``.

    PYTHONPATH=src python benchmarks/bench_out_of_core.py
    PYTHONPATH=src python benchmarks/bench_out_of_core.py --quick
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.core.decoder import MLPDecoder, make_screen_kernel
from repro.serving import DDIScreeningService, ShardStore, exact_score_fn


def _timeit(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _peak_bytes(fn) -> int:
    """Peak traced allocation while running ``fn`` once."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _rss_kb() -> int | None:
    """Current VmRSS in KiB (linux), for the informational report."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _hits(results) -> list[list[tuple[int, float]]]:
    return [[(h.index, h.probability) for h in hits] for hits in results]


def check_service_parity(num_drugs: int, hidden_dim: int, top_k: int,
                         seed: int, failures: list[str]) -> None:
    """Gate 1: the mapped store returns bitwise the in-memory hits."""
    rng = np.random.default_rng(seed)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, _, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus, block_size=64)
    queries = [int(q) for q in
               rng.choice(num_drugs, size=min(8, num_drugs), replace=False)]
    exclude = (int(rng.integers(num_drugs)), int(rng.integers(num_drugs)))
    reference = _hits(service.screen_batch(queries, top_k=top_k,
                                           exclude=exclude))
    ref_single = _hits([service.screen(queries[0], top_k=top_k,
                                       symmetric=True)])[0]

    plans = [(1, 64), (3, 37), (5, 17), (4, num_drugs + 10)]
    for num_shards, block_size in plans:
        with tempfile.TemporaryDirectory() as tmp:
            service.save_shards(tmp, num_shards=num_shards)
            if not service.open_shards(tmp):
                failures.append(f"open_shards refused its own store "
                                f"(shards={num_shards})")
                continue
            service.block_size = block_size
            label = f"shards={num_shards}, block={block_size}"
            mapped = _hits(service.screen_batch(queries, top_k=top_k,
                                                exclude=exclude))
            if mapped != reference:
                failures.append(f"mmap screen_batch diverges ({label})")
            single = _hits([service.screen(queries[0], top_k=top_k,
                                           symmetric=True)])[0]
            if single != ref_single:
                failures.append(f"symmetric mmap screen diverges ({label})")
    print(f"parity: {len(plans)} (shards, block) plans x {len(queries)} "
          f"queries vs in-memory engine — "
          f"{'OK' if not failures else 'FAILED'}")


def build_synthetic_store(root: Path, num_rows: int, dim: int,
                          num_shards: int, block_size: int, seed: int):
    """A large random catalog + MLP projections persisted as a shard store.

    Synthetic embeddings keep the out-of-core phase independent of corpus
    generation/encoding cost — the screening engine only ever sees
    (embeddings, projections) arrays.
    """
    rng = np.random.default_rng(seed)
    decoder = MLPDecoder(dim, dim, np.random.default_rng(seed))
    embeddings = rng.standard_normal((num_rows, dim))
    projections = decoder.candidate_projections(embeddings)
    manifest = ShardStore.save(root, embeddings, projections,
                               num_shards=num_shards, block_size=block_size,
                               drug_ids=[f"drug_{i}" for i in range(num_rows)],
                               smiles=["C"] * num_rows)
    queries = embeddings[rng.choice(num_rows, size=16, replace=False)]
    query_proj = decoder.project_queries(queries, sides=("as_left",))
    kernel = make_screen_kernel(decoder)
    return manifest, kernel, query_proj, len(queries)


def run(num_drugs: int, hidden_dim: int, top_k: int, store_rows: int,
        store_dim: int, num_shards: int, block_size: int, repeats: int,
        seed: int = 0) -> int:
    failures: list[str] = []

    # ------------------------------------------------------------------
    # 1: bitwise parity of the mapped store (always gated)
    # ------------------------------------------------------------------
    print(f"building {num_drugs}-drug catalog (hidden_dim={hidden_dim}) "
          f"for the parity gate ...", flush=True)
    check_service_parity(num_drugs, hidden_dim, top_k, seed, failures)

    # ------------------------------------------------------------------
    # 2: out-of-core memory on a synthetic store big enough to measure
    # ({store_rows} x {store_dim}).
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        print(f"writing synthetic shard store ({store_rows} x {store_dim}, "
              f"{num_shards} shards) ...", flush=True)
        manifest, kernel, query_proj, num_queries = build_synthetic_store(
            Path(tmp), store_rows, store_dim, num_shards, block_size, seed)
        store = ShardStore(manifest)
        store_mb = store.nbytes() / 1e6
        catalog = store.catalog(block_size)
        score = exact_score_fn(kernel, query_proj)

        def mapped_screen():
            return catalog.screen(score, num_queries, top_k)

        mmap_peak = _peak_bytes(mapped_screen)
        if mmap_peak >= store.nbytes() / 10:
            failures.append(
                f"mmap screen peak {mmap_peak / 1e6:.2f} MB not < 1/10 of "
                f"the {store_mb:.1f} MB store — not O(block + k)")
        mapped_s = _timeit(mapped_screen, repeats)

    width = 56
    rss = _rss_kb()
    print()
    print(f"{'benchmark':{width}s} {'value':>14s}")
    print("-" * (width + 15))
    rows = [
        (f"synthetic store on disk ({store_rows} x {store_dim}, "
         f"{num_shards} shards)", f"{store_mb:9.1f} MB"),
        (f"mmap screen ({num_queries} queries, block={block_size})",
         f"{mapped_s * 1e3:9.1f} ms"),
        ("mmap screen peak traced allocation",
         f"{mmap_peak / 1e6:9.2f} MB"),
    ]
    if rss is not None:
        rows.append(("process RSS after all phases (informational)",
                     f"{rss / 1024:9.1f} MB"))
    for label, value in rows:
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
                        help="small CI-sized run (smaller catalog and store)")
    parser.add_argument("--drugs", type=int, default=None,
                        help="parity-gate catalog size "
                             "(default: 800, quick: 260)")
    parser.add_argument("--hidden-dim", type=int, default=None,
                        help="parity-gate embedding width "
                             "(default: 64, quick: 16)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--store-rows", type=int, default=None,
                        help="synthetic store rows "
                             "(default: 120000, quick: 24000)")
    parser.add_argument("--store-dim", type=int, default=None,
                        help="synthetic store width (default: 64, quick: 32)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--block-size", type=int, default=2048)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 10, quick: 4)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.shards < 1 or args.block_size < 1:
        parser.error("--shards, --block-size must be >= 1")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.drugs is not None and args.drugs < 10:
        parser.error("--drugs must be >= 10")
    if args.store_rows is not None and args.store_rows < 100:
        parser.error("--store-rows must be >= 100")
    def default(value, quick, full):
        return (quick if args.quick else full) if value is None else value

    num_drugs = default(args.drugs, 260, 800)
    hidden_dim = default(args.hidden_dim, 16, 64)
    store_rows = default(args.store_rows, 24000, 120000)
    store_dim = default(args.store_dim, 32, 64)
    repeats = default(args.repeats, 4, 10)
    return run(num_drugs, hidden_dim, args.top_k, store_rows, store_dim,
               args.shards, args.block_size, repeats, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
