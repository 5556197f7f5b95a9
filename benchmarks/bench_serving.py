"""Serving-path benchmark: cached-embedding scoring vs naive full re-encode.

Measures the repeat pair-scoring hot path on a synthetic drug catalog:

- **naive**: ``model.predict_proba(hypergraph, pairs)`` — re-encodes the
  entire corpus hypergraph on every call (the training-time API).
- **service**: ``DDIScreeningService.score_pairs(pairs)`` — encodes once,
  then every call is a vectorized decoder pass over cached embeddings
  (including the per-call staleness check, which compares the model's
  parameter arrays with the ones the cache was encoded from).

Also times incremental registration and top-k screening, and verifies score
parity between the two paths.  Exits non-zero if parity exceeds 1e-8 or the
speedup falls below the floor (10x at the default 500-drug scale), so CI can
run it as a regression gate:

    PYTHONPATH=src python benchmarks/bench_serving.py          # full (500 drugs)
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.serving import DDIScreeningService


def _timeit(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run(num_drugs: int, num_pairs: int, repeats: int, min_speedup: float,
        seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    print(f"generating {num_drugs}-drug catalog ...", flush=True)
    corpus = [r.smiles for r in
              MoleculeGenerator(seed=seed).generate_corpus(num_drugs)]
    config = HyGNNConfig(parameter=4, embed_dim=64, hidden_dim=64, seed=seed)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    model.eval()
    service = DDIScreeningService(model, builder, corpus)
    pairs = rng.integers(0, num_drugs, size=(num_pairs, 2))

    print(f"hypergraph: {hypergraph}")
    naive_s = _timeit(lambda: model.predict_proba(hypergraph, pairs), repeats)
    served_s = _timeit(lambda: service.score_pairs(pairs), repeats)
    speedup = naive_s / served_s

    parity = float(np.abs(model.predict_proba(hypergraph, pairs)
                          - service.score_pairs(pairs)).max())

    new_drug = [r.smiles for r in
                MoleculeGenerator(seed=seed + 1).generate_corpus(1)][0]
    start = time.perf_counter()
    service.register_drug(new_drug, drug_id="bench_candidate",
                          allow_unknown=True)
    register_s = time.perf_counter() - start
    screen_s = _timeit(lambda: service.screen("bench_candidate", top_k=10),
                       max(3, repeats // 2))

    width = 44
    print()
    print(f"{'benchmark (' + str(num_drugs) + ' drugs)':{width}s} "
          f"{'median':>12s}")
    print("-" * (width + 13))
    rows = [
        (f"naive predict_proba ({num_pairs} pairs)", naive_s),
        (f"service score_pairs ({num_pairs} pairs)", served_s),
        ("register one new drug (incremental)", register_s),
        ("screen 1 drug vs catalog (top-10)", screen_s),
    ]
    for label, seconds in rows:
        print(f"{label:{width}s} {seconds * 1e3:9.3f} ms")
    print("-" * (width + 13))
    print(f"{'repeat-scoring speedup':{width}s} {speedup:9.1f} x   "
          f"(floor {min_speedup:.0f}x)")
    print(f"{'max |service - naive| score gap':{width}s} {parity:12.2e}   "
          f"(floor 1e-08)")
    print(f"stats: {service.stats.as_dict()}")

    failures = []
    if parity > 1e-8:
        failures.append(f"score parity {parity:.2e} exceeds 1e-8")
    if speedup < min_speedup:
        failures.append(f"speedup {speedup:.1f}x below {min_speedup:.0f}x")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (fewer drugs, lower floor)")
    parser.add_argument("--drugs", type=int, default=None,
                        help="catalog size (default: 500, smoke: 100)")
    parser.add_argument("--pairs", type=int, default=256,
                        help="pairs per scoring call")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions (default: 20, smoke: 5)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="failure floor (default: 10, smoke: 3)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.drugs is not None and args.drugs < 2:
        parser.error("--drugs must be >= 2 (pairs need two drugs)")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    num_drugs = args.drugs or (100 if args.smoke else 500)
    repeats = args.repeats or (5 if args.smoke else 20)
    min_speedup = args.min_speedup or (3.0 if args.smoke else 10.0)
    return run(num_drugs, args.pairs, repeats, min_speedup, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
