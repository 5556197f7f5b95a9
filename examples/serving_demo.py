"""Train → save → serve: the production-shaped DDI screening path.

Trains a small HyGNN, persists it with ``serialize.save_model``, then stands
up a :class:`~repro.serving.DDIScreeningService` from the artifact alone —
the deployment story: the serving process never sees the training code, just
the ``.npz`` weights+vocabulary bundle and the catalog SMILES.  The service
encodes the catalog once, answers batched pair queries from cached
embeddings, registers a brand-new drug without re-encoding anything, and
screens it against the whole catalog.  Finally it persists a shard store,
registers a drug through it, and restarts from the store and the artifact
without a corpus encode: exact and approximate screens, of the new drug
too, return the same bits after the restart.

    python examples/serving_demo.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import HyGNN, HyGNNConfig, Trainer, save_model
from repro.data import balanced_pairs_and_labels, load_dataset, random_split
from repro.serving import DDIScreeningService


def _same_hits(a, b) -> bool:
    """Bitwise equality of two screen_batch results."""
    return all([(h.index, h.probability) for h in x]
               == [(h.index, h.probability) for h in y]
               for x, y in zip(a, b, strict=True))


def main() -> None:
    # Every file the demo writes lives here and goes when it ends.
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        # ------------------------------------------------------------------
        # Train and persist (the "offline" half of the pipeline).
        # ------------------------------------------------------------------
        dataset = load_dataset("twosides", scale=0.12, seed=0)
        pairs, labels = balanced_pairs_and_labels(dataset, seed=0)
        split = random_split(len(pairs), seed=0)
        config = HyGNNConfig(method="kmer", parameter=4, epochs=120,
                             patience=30)
        model, hypergraph, builder = HyGNN.for_corpus(dataset.smiles, config)
        trainer = Trainer(model, config)
        trainer.fit(hypergraph, pairs, labels, split)
        summary = trainer.evaluate(hypergraph, pairs[split.test],
                                   labels[split.test])
        print(f"trained on {dataset.num_drugs} drugs; test metrics: {summary}")

        artifact = scratch / "hygnn.npz"
        save_model(artifact, model, builder)
        print(f"saved artifact: {artifact} "
              f"({artifact.stat().st_size / 1024:.0f} KiB)")

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
        assert _same_hits(batched, singles)  # bitwise-identical
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
        store_dir = scratch / "catalog_store"
        manifest = sharded.save_shards(store_dir, num_shards=4)
        assert sharded.open_shards(manifest)
        mapped = sharded.screen_batch(queries, top_k=5)
        approx_mapped = sharded.screen_batch(queries, top_k=5, approx=True)
        start = time.perf_counter()
        sharded.start_workers(2)
        start_s = time.perf_counter() - start
        remote = sharded.screen_batch(queries, top_k=5)
        assert _same_hits(mapped, batched) and _same_hits(remote, batched)
        assert _same_hits(approx_mapped, approx_memory)
        # A backup copy is written from the served rows while the workers
        # serve: the attached store, its catalog version and the workers stay.
        version = sharded.catalog_version
        sharded.save_shards(store_dir.parent / "backup", num_shards=4)
        remote_screens = sharded.stats.remote_screens
        again = sharded.screen_batch(queries, top_k=5)
        assert sharded.remote is not None
        assert sharded.catalog_version == version
        assert sharded.stats.remote_screens == remote_screens + len(queries)
        assert _same_hits(again, batched)
        sharded.close()  # stops the worker processes
        store_kib = sum(f.stat().st_size
                        for f in store_dir.iterdir()) / 1024
        print(f"\nshard store: {manifest.parent.name}/ ({store_kib:.0f} KiB "
              f"on disk, mmap'd) — in-memory, memory-mapped, and 2-worker "
              f"screens all bitwise-identical (workers started in "
              f"{start_s:.1f} s)")

        # ------------------------------------------------------------------
        # Restart without re-encoding: the shard store is the one record of
        # the catalog (rows, drug records, frozen encoder context) at every
        # committed version.  A drug registered while it is attached is
        # appended through as a new version, and the store plus the model
        # artifact restart into the same bits, the new drug's screens too.
        # ------------------------------------------------------------------
        sharded.register_drug(candidate, drug_id="CANDIDATE-001")
        live_queries = queries + ["CANDIDATE-001"]
        live_exact = sharded.screen_batch(live_queries, top_k=5)
        live_approx = sharded.screen_batch(live_queries, top_k=5, approx=True)
        start = time.perf_counter()
        restarted = DDIScreeningService.from_store(manifest, artifact)
        restart_ms = (time.perf_counter() - start) * 1e3
        assert _same_hits(restarted.screen_batch(live_queries, top_k=5),
                          live_exact)
        assert _same_hits(restarted.screen_batch(live_queries, top_k=5,
                                                 approx=True), live_approx)
        assert restarted.catalog_version == sharded.catalog_version == 1
        assert restarted.shard_store is not None
        assert restarted.stats.corpus_encodes == 0
        print(f"\nregistered CANDIDATE-001 through the store (version "
              f"{sharded.catalog_version}), then restarted from the store + "
              f"artifact in {restart_ms:.0f} ms with no corpus encode; "
              f"{len(live_queries)} exact and approximate screens, the new "
              f"drug's included, bitwise-identical")

        print(f"\nservice stats: {service.stats.as_dict()}")


if __name__ == "__main__":
    main()
