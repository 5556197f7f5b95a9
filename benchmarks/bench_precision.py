"""Precision-tier benchmark: float32 serving and the sketch prefilter.

The screening engine's exact float64 path is the accuracy reference; this
script measures what each precision dial buys and verifies the accuracy
gates that make the dials safe to turn:

1. **float32 serving** (``precision="float32"``): embeddings, decoder
   weights, and candidate projections downcast once at cache-build time;
   the whole blockwise screen runs float32, halving memory bandwidth on
   the GEMM-bound hot loop.  Gate: batched screens at least
   ``--min-f32-speedup`` faster than float64 with top-k rank agreement
   >= ``--min-agreement`` against the float64 reference.
2. **MLP sketch prefilter** (``approx=True``): shortlists via a low-rank
   sketch GEMM over the split-weight operands, then exact-reranks
   ``top_k * oversample`` survivors.  Gate: at least
   ``--min-approx-speedup`` faster than the exact screen with
   recall@k >= ``--min-recall``.

Measured numbers are written to a machine-readable ``BENCH_precision.json``
(``BENCH_precision_quick.json`` under ``--quick``) so the perf trajectory
is tracked across PRs.

    PYTHONPATH=src python benchmarks/bench_precision.py          # full gate
    PYTHONPATH=src python benchmarks/bench_precision.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.serving import DDIScreeningService, rank_agreement

def _timeit(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _index_lists(batch_hits) -> list[list[int]]:
    return [[h.index for h in hits] for hits in batch_hits]


def _mean_agreement(reference: list[list[int]],
                    candidate: list[list[int]]) -> float:
    return float(np.mean([rank_agreement(r, c)
                          for r, c in zip(reference, candidate)]))


def run(num_drugs: int, hidden_dim: int, top_k: int, num_queries: int,
        oversample: int, repeats: int, min_f32_speedup: float,
        min_approx_speedup: float, min_agreement: float, min_recall: float,
        output: str, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    print(f"generating {num_drugs}-drug catalog "
          f"(hidden_dim={hidden_dim}) ...", flush=True)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=hidden_dim,
                         hidden_dim=hidden_dim, seed=seed)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    print(f"hypergraph: {hypergraph}")
    queries = [int(q) for q in
               rng.choice(num_drugs, size=num_queries, replace=False)]
    failures: list[str] = []

    # ------------------------------------------------------------------
    # Reference: exact float64 screens (MLP decoder, the paper's best)
    # ------------------------------------------------------------------
    exact = DDIScreeningService(model, builder, corpus)
    print("encoding float64 reference cache ...", flush=True)
    reference = _index_lists(exact.screen_batch(queries, top_k=top_k))
    f64_s = _timeit(lambda: exact.screen_batch(queries, top_k=top_k),
                    repeats)

    # ------------------------------------------------------------------
    # 1: float32 serving tier
    # ------------------------------------------------------------------
    low = DDIScreeningService(model, builder, corpus, precision="float32")
    print("encoding float32 serving cache ...", flush=True)
    f32_hits = _index_lists(low.screen_batch(queries, top_k=top_k))
    f32_s = _timeit(lambda: low.screen_batch(queries, top_k=top_k), repeats)
    f32_speedup = f64_s / f32_s
    f32_agreement = _mean_agreement(reference, f32_hits)
    if f32_speedup < min_f32_speedup:
        failures.append(f"float32 speedup {f32_speedup:.2f}x below the "
                        f"{min_f32_speedup}x floor")
    if f32_agreement < min_agreement:
        failures.append(f"float32 rank agreement {f32_agreement:.4f} below "
                        f"{min_agreement}")

    # ------------------------------------------------------------------
    # 2: MLP sketch prefilter on the float32 tier (exact rerank)
    # ------------------------------------------------------------------
    # Tiers compose: the shortlist pass and the exact rerank both run in
    # the float32 serving tier; recall is still judged against the exact
    # float64 reference ranking.
    approx_hits = _index_lists(low.screen_batch(
        queries, top_k=top_k, approx=True, approx_oversample=oversample))
    approx_s = _timeit(
        lambda: low.screen_batch(queries, top_k=top_k, approx=True,
                                 approx_oversample=oversample), repeats)
    approx_speedup = f64_s / approx_s
    approx_recall = _mean_agreement(reference, approx_hits)
    if approx_speedup < min_approx_speedup:
        failures.append(f"sketch-prefilter speedup {approx_speedup:.2f}x "
                        f"below the {min_approx_speedup}x floor")
    if approx_recall < min_recall:
        failures.append(f"sketch-prefilter recall@{top_k} "
                        f"{approx_recall:.4f} below {min_recall}")

    width = 52
    per_query = 1e3 / num_queries
    print()
    print(f"{'tier (' + str(num_drugs) + ' drugs, ' + str(num_queries) + ' queries, top-' + str(top_k) + ')':{width}s} "
          f"{'ms/query':>10s} {'speedup':>9s} {'accuracy':>9s}")
    print("-" * (width + 31))
    rows = [
        ("exact float64 (reference)", f64_s, 1.0, 1.0),
        ("float32 serving", f32_s, f32_speedup, f32_agreement),
        ("float32 + sketch prefilter + exact rerank", approx_s,
         approx_speedup, approx_recall),
    ]
    for label, seconds, speedup, accuracy in rows:
        print(f"{label:{width}s} {seconds * per_query:9.3f}  {speedup:8.2f}x "
              f"{accuracy:8.2%}")
    print("-" * (width + 31))

    results = {
        "config": {
            "num_drugs": num_drugs,
            "hidden_dim": hidden_dim,
            "top_k": top_k,
            "num_queries": num_queries,
            "oversample": oversample,
            "repeats": repeats,
            "seed": seed,
        },
        "screen_ms": {
            "float64": f64_s * 1000,
            "float32": f32_s * 1000,
            "sketch_approx": approx_s * 1000,
        },
        "float32": {"speedup": f32_speedup, "rank_agreement": f32_agreement},
        "sketch": {"speedup": approx_speedup, "recall": approx_recall},
        "gates": {
            "min_f32_speedup": min_f32_speedup,
            "min_approx_speedup": min_approx_speedup,
            "min_agreement": min_agreement,
            "min_recall": min_recall,
        },
        "failures": failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized smoke run with relaxed timing floors")
    parser.add_argument("--drugs", type=int, default=None,
                        help="catalog size (default: 2000, quick: 400)")
    parser.add_argument("--hidden-dim", type=int, default=None,
                        help="embedding width (default: 128, quick: 64)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--queries", type=int, default=None,
                        help="query-batch size (default: 16, quick: 8)")
    parser.add_argument("--oversample", type=int, default=8,
                        help="approx shortlist factor (default: 8)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 10, quick: 3)")
    parser.add_argument("--min-f32-speedup", type=float, default=None)
    parser.add_argument("--min-approx-speedup", type=float, default=None)
    parser.add_argument("--min-agreement", type=float, default=0.99)
    parser.add_argument("--min-recall", type=float, default=0.95)
    # --quick writes to a separate file by default so a smoke run never
    # clobbers the committed full-gate record.
    parser.add_argument("--output", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.oversample < 1:
        parser.error("--oversample must be >= 1")
    if args.quick:
        # CI smoke: small enough to finish in seconds.  Timing floors are
        # loose — shared runners are variance-prone and small catalogs
        # amortise BLAS less — but the accuracy gates stay at full
        # strength (they do not depend on machine speed).
        defaults = {"drugs": 400, "hidden_dim": 64, "queries": 8,
                    "repeats": 3, "min_f32_speedup": 0.7,
                    "min_approx_speedup": 1.2}
    else:
        defaults = {"drugs": 2000, "hidden_dim": 128, "queries": 16,
                    "repeats": 10, "min_f32_speedup": 1.5,
                    "min_approx_speedup": 3.0}

    def resolve(name):
        value = getattr(args, name)
        return defaults[name] if value is None else value

    output = args.output or ("BENCH_precision_quick.json" if args.quick
                             else "BENCH_precision.json")
    return run(
        num_drugs=resolve("drugs"),
        hidden_dim=resolve("hidden_dim"),
        top_k=args.top_k,
        num_queries=resolve("queries"),
        oversample=args.oversample,
        repeats=resolve("repeats"),
        min_f32_speedup=resolve("min_f32_speedup"),
        min_approx_speedup=resolve("min_approx_speedup"),
        min_agreement=args.min_agreement,
        min_recall=args.min_recall,
        output=output,
        seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
