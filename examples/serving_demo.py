"""Train → save → serve: the production-shaped DDI screening path.

Trains a small HyGNN, persists it with ``serialize.save_model``, then stands
up a :class:`~repro.serving.DDIScreeningService` from the artifact alone —
the deployment story: the serving process never sees the training code, just
the ``.npz`` weights+vocabulary bundle and the catalog SMILES.  The service
encodes the catalog once, answers batched pair queries from cached
embeddings, registers a brand-new drug without re-encoding anything, and
screens it against the whole catalog.  Finally it persists a shard store
plus serving context and restarts from them without a corpus encode;
approximate screens return the same bits in memory, from the mapped store
and after the restart.

    python examples/serving_demo.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import HyGNN, HyGNNConfig, Trainer, save_model
from repro.data import balanced_pairs_and_labels, load_dataset, random_split
from repro.serving import DDIScreeningService


def main() -> None:
    # ------------------------------------------------------------------
    # Train and persist (the "offline" half of the pipeline).
    # ------------------------------------------------------------------
    dataset = load_dataset("twosides", scale=0.12, seed=0)
    pairs, labels = balanced_pairs_and_labels(dataset, seed=0)
    split = random_split(len(pairs), seed=0)
    config = HyGNNConfig(method="kmer", parameter=4, epochs=120, patience=30)
    model, hypergraph, builder = HyGNN.for_corpus(dataset.smiles, config)
    trainer = Trainer(model, config)
    trainer.fit(hypergraph, pairs, labels, split)
    summary = trainer.evaluate(hypergraph, pairs[split.test],
                               labels[split.test])
    print(f"trained on {dataset.num_drugs} drugs; test metrics: {summary}")

    artifact = Path(tempfile.mkdtemp()) / "hygnn.npz"
    save_model(artifact, model, builder)
    print(f"saved artifact: {artifact} ({artifact.stat().st_size / 1024:.0f} KiB)")

    # ------------------------------------------------------------------
    # Serve from the artifact (the "online" half).
    # ------------------------------------------------------------------
    service = DDIScreeningService.from_artifact(
        artifact, dataset.smiles,
        drug_ids=[d.drug_id for d in dataset.drugs])

    query_pairs = pairs[split.test][:512]
    start = time.perf_counter()
    naive = model.predict_proba(hypergraph, query_pairs)
    naive_ms = (time.perf_counter() - start) * 1e3
    service.score_pairs(query_pairs)  # first call pays the one-off encode
    start = time.perf_counter()
    served = service.score_pairs(query_pairs)
    served_ms = (time.perf_counter() - start) * 1e3
    print(f"\nscoring {len(query_pairs)} pairs: naive {naive_ms:.1f} ms, "
          f"cached service {served_ms:.2f} ms "
          f"({naive_ms / served_ms:.0f}x), "
          f"max score gap {np.abs(naive - served).max():.1e}")

    # ------------------------------------------------------------------
    # A drug still in development arrives: register it incrementally.
    # ------------------------------------------------------------------
    candidate = "CC(=O)Oc1ccccc1C(=O)NCCN1CCOCC1"  # novel SMILES
    start = time.perf_counter()
    service.register_drug(candidate, drug_id="CANDIDATE-001")
    register_ms = (time.perf_counter() - start) * 1e3
    print(f"\nregistered CANDIDATE-001 in {register_ms:.2f} ms "
          f"(corpus encodes so far: {service.stats.corpus_encodes})")

    print("\ntop predicted interaction partners for CANDIDATE-001:")
    name_of = {d.drug_id: d.name for d in dataset.drugs}
    for hit in service.screen("CANDIDATE-001", top_k=5):
        name = name_of.get(hit.drug_id, hit.drug_id)
        print(f"  {name:28s} P(interact)={hit.probability:.3f}")

    # ------------------------------------------------------------------
    # Scale knobs: screening streams candidate blocks through a sharded
    # catalog with precomputed decoder projections — peak memory is
    # O(block + k), and results are bitwise-identical for ANY block size
    # or shard count.  screen_batch scores a whole query batch against
    # each block in one pass.
    # ------------------------------------------------------------------
    sharded = DDIScreeningService.from_artifact(
        artifact, dataset.smiles,
        drug_ids=[d.drug_id for d in dataset.drugs],
        block_size=256, num_shards=4)
    queries = [d.drug_id for d in dataset.drugs[:16]]
    start = time.perf_counter()
    batched = sharded.screen_batch(queries, top_k=5)
    batch_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    singles = [sharded.screen(q, top_k=5) for q in queries]
    single_ms = (time.perf_counter() - start) * 1e3
    assert all([(h.index, h.probability) for h in b]
               == [(h.index, h.probability) for h in s]
               for b, s in zip(batched, singles))  # bitwise-identical
    print(f"\nscreen_batch({len(queries)} queries, 4 shards, block=256): "
          f"{batch_ms:.1f} ms vs {single_ms:.1f} ms looped "
          f"({single_ms / batch_ms:.1f}x) — identical hits")

    # ------------------------------------------------------------------
    # Out-of-core tier: persist the shards as memory-mapped .npy files +
    # manifest, reopen them, and hand exact screens to two local shard
    # worker processes.  Every plan returns bitwise-identical hits, and an
    # approximate screen (sketch prefilter + exact rerank) takes the same
    # path over the mapped store as over memory.
    # ------------------------------------------------------------------
    approx_memory = sharded.screen_batch(queries, top_k=5, approx=True)
    store_dir = Path(tempfile.mkdtemp()) / "catalog_store"
    manifest = sharded.save_shards(store_dir, num_shards=4)
    assert sharded.open_shards(manifest)
    mapped = sharded.screen_batch(queries, top_k=5)
    approx_mapped = sharded.screen_batch(queries, top_k=5, approx=True)
    start = time.perf_counter()
    sharded.start_workers(2)
    start_s = time.perf_counter() - start
    remote = sharded.screen_batch(queries, top_k=5)
    assert all([(h.index, h.probability) for h in m]
               == [(h.index, h.probability) for h in b]
               for m, b in zip(mapped, batched))
    assert all([(h.index, h.probability) for h in r]
               == [(h.index, h.probability) for h in b]
               for r, b in zip(remote, batched))
    # A backup copy is written from the served rows while the workers
    # serve: the attached store, its catalog version and the workers stay.
    version = sharded.catalog_version
    sharded.save_shards(store_dir.parent / "backup", num_shards=4)
    remote_screens = sharded.stats.remote_screens
    again = sharded.screen_batch(queries, top_k=5)
    assert sharded.remote is not None and sharded.catalog_version == version
    assert sharded.stats.remote_screens == remote_screens + len(queries)
    assert all([(h.index, h.probability) for h in a]
               == [(h.index, h.probability) for h in b]
               for a, b in zip(again, batched))
    sharded.close()  # stops the worker processes
    store_kib = sum(f.stat().st_size
                    for f in store_dir.iterdir()) / 1024
    print(f"\nshard store: {manifest.parent.name}/ ({store_kib:.0f} KiB on "
          f"disk, mmap'd) — in-memory, memory-mapped, and 2-worker screens "
          f"all bitwise-identical (workers started in {start_s:.1f} s)")

    # ------------------------------------------------------------------
    # Restart without re-encoding: the shard store plus a serving context
    # (model archive, frozen encoder context, drug list) is a complete
    # serving state.  from_store gathers the catalog rows from the shard
    # files, so the restarted service answers with the same bits.
    # ------------------------------------------------------------------
    context = sharded.save_serving_context(store_dir.parent / "context.npz")
    start = time.perf_counter()
    restarted = DDIScreeningService.from_store(manifest, context)
    restart_ms = (time.perf_counter() - start) * 1e3
    rebooted = restarted.screen_batch(queries, top_k=5)
    approx_rebooted = restarted.screen_batch(queries, top_k=5, approx=True)
    assert all([(h.index, h.probability) for h in r]
               == [(h.index, h.probability) for h in b]
               for r, b in zip(rebooted, batched))
    for approx in (approx_mapped, approx_rebooted):
        assert all([(h.index, h.probability) for h in a]
                   == [(h.index, h.probability) for h in m]
                   for a, m in zip(approx, approx_memory))
    assert restarted.shard_store is not None
    assert restarted.stats.corpus_encodes == 0
    print(f"\nrestarted from the store + serving context in "
          f"{restart_ms:.0f} ms with no corpus encode; {len(rebooted)} "
          f"exact and {len(approx_rebooted)} approximate screens "
          f"bitwise-identical (approximate: in memory, mapped, restarted)")

    print(f"\nservice stats: {service.stats.as_dict()}")


if __name__ == "__main__":
    main()
