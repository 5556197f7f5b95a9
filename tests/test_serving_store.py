"""Tests for the out-of-core screening tier: the memory-mapped shard store
(`repro.serving.store`), its wiring through `DDIScreeningService`
(`save_shards` / `open_shards` / `start_workers`), and the serving-layer
bugfixes that rode along (globally unique cache versions, split
prefilter/exact stats, deterministic exclusion resolution).

The contract under test everywhere: every execution plan — in-memory,
memory-mapped, local shard worker processes — returns **bitwise**
identical ``(indices, probabilities)``.
"""

import json

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, save_model
from repro.core.decoder import MLPDecoder, make_screen_kernel
from repro.nn import Tensor
from repro.core.encoder import EncoderContext
from repro.serving import (DDIScreeningService, EmbeddingCache,
                           ShardedEmbeddingCatalog, ShardStore, ShardWorker,
                           exact_score_fn)


def _corpus(n=36, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module", params=["mlp", "dot"])
def setup(request):
    corpus = _corpus()
    config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12, seed=5,
                         decoder=request.param)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, config, model, hypergraph, builder


def _service(setup, **kwargs):
    corpus, _, model, _, builder = setup
    return DDIScreeningService(model, builder, corpus, **kwargs)


def _hits(results):
    return [[(h.index, h.probability) for h in hits] for hits in results]


def _drugs(count):
    """Drug ids and SMILES for ``count`` synthetic rows."""
    return {"drug_ids": [f"drug_{i}" for i in range(count)],
            "smiles": ["C" * (1 + i % 4) for i in range(count)]}


def _synthetic(seed=0, n=90, d=8):
    rng = np.random.default_rng(seed)
    decoder = MLPDecoder(d, d, np.random.default_rng(seed))
    embeddings = rng.standard_normal((n, d))
    return decoder, embeddings, decoder.candidate_projections(embeddings)


# ---------------------------------------------------------------------------
# shard store format
# ---------------------------------------------------------------------------
class TestShardStore:
    def test_round_trip_metadata_and_bytes(self, tmp_path):
        decoder, emb, proj = _synthetic(n=53)
        manifest = ShardStore.save(tmp_path / "store", emb, proj,
                                   num_shards=4, block_size=17,
                                   fingerprint="float64:0123abcd",
                                   catalog_digest="abc123",
                                   **_drugs(53))
        assert manifest.name == "manifest.json"
        store = ShardStore(manifest)
        assert store.num_drugs == 53
        assert store.drugs() == tuple(_drugs(53).values())
        assert store.encoder_context() is None  # raw rows carry none
        assert store.embed_dim == emb.shape[1]
        assert store.num_shards == 4
        assert store.block_size == 17
        assert store.fingerprint == "float64:0123abcd"
        assert store.catalog_digest == "abc123"
        assert store.projection_names == sorted(proj)
        # Shard row ranges follow the in-memory catalog's default split.
        reference = ShardedEmbeddingCatalog(emb, proj, num_shards=4)
        for opened, expected in zip(
                (store.open_shard(i) for i in range(4)), reference.shards):
            np.testing.assert_array_equal(opened.indices, expected.indices)
            np.testing.assert_array_equal(np.asarray(opened.embeddings),
                                          expected.embeddings)
            for name in proj:
                np.testing.assert_array_equal(
                    np.asarray(opened.projections[name]),
                    expected.projections[name])
        assert store.nbytes() > emb.nbytes  # projections counted too

    def test_open_accepts_directory_or_manifest(self, tmp_path):
        _, emb, proj = _synthetic(n=10)
        ShardStore.save(tmp_path / "s", emb, proj, **_drugs(10))
        assert ShardStore(tmp_path / "s").num_drugs == 10
        assert ShardStore(tmp_path / "s" / "manifest.json").num_drugs == 10

    def test_shards_are_memory_mapped(self, tmp_path):
        _, emb, proj = _synthetic(n=20)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=2, **_drugs(20)))
        shard = store.open_shard(0)
        # Plain ndarray views whose base is the mapping: mapped, not copied.
        assert isinstance(shard.embeddings.base, np.memmap)
        assert all(isinstance(m.base, np.memmap)
                   for m in shard.projections.values())
        assert store.open_shard(0) is shard  # memoized

    def test_alias_projection_not_written_twice(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((30, 6))
        manifest = ShardStore.save(tmp_path / "dot", emb, {"emb": emb},
                                   num_shards=3, **_drugs(30))
        spec = json.loads(manifest.read_text())
        assert spec["aliases"] == ["emb"]
        assert all(not s["projections"] for s in spec["shards"])
        shard = ShardStore(manifest).open_shard(1)
        assert shard.projections["emb"] is shard.embeddings

    def test_rejects_bad_inputs(self, tmp_path):
        _, emb, proj = _synthetic(n=8)
        drugs = _drugs(8)
        with pytest.raises(ValueError, match="non-empty"):
            ShardStore.save(tmp_path / "a", np.zeros((0, 4)), **_drugs(0))
        with pytest.raises(ValueError, match="num_shards"):
            ShardStore.save(tmp_path / "b", emb, num_shards=0, **drugs)
        with pytest.raises(ValueError, match="projection"):
            ShardStore.save(tmp_path / "c", emb, {"p": emb[:3]}, **drugs)
        with pytest.raises(ValueError, match="file-name"):
            ShardStore.save(tmp_path / "d", emb, {"../evil": emb}, **drugs)
        with pytest.raises(ValueError, match="7 drug ids and 8 SMILES"):
            ShardStore.save(tmp_path / "e", emb, proj, smiles=drugs["smiles"],
                            drug_ids=drugs["drug_ids"][:7])

    def test_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="shard-store manifest"):
            ShardStore(path)
        path.write_text(json.dumps(["not", "a", "manifest"]))
        with pytest.raises(ValueError, match="shard-store manifest"):
            ShardStore(path)

    def test_malformed_manifest_raises_value_error(self, tmp_path):
        """Every corruption mode must surface as ValueError so the
        best-effort opener (open_shards without strict) can swallow it."""
        from repro.serving.store import STORE_FORMAT
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": STORE_FORMAT}))  # keys missing
        with pytest.raises(ValueError, match="missing manifest keys"):
            ShardStore(path)
        path.write_text(json.dumps({
            "format": STORE_FORMAT, "num_drugs": "not-a-number",
            "embed_dim": 4, "block_size": 8, "projections": [],
            "aliases": [], "shards": []}))
        with pytest.raises(ValueError, match="malformed"):
            ShardStore(path)

    def test_more_shards_than_rows_skips_empties(self, tmp_path):
        _, emb, proj = _synthetic(n=3)
        store = ShardStore(ShardStore.save(tmp_path / "s", emb, proj,
                                           num_shards=10, **_drugs(3)))
        assert store.num_shards == 3
        assert store.num_drugs == 3


# ---------------------------------------------------------------------------
# memory-mapped catalog: bitwise parity with the in-memory engine
# ---------------------------------------------------------------------------
class TestMappedCatalog:
    def test_screen_bitwise_matches_in_memory(self, tmp_path):
        decoder, emb, proj = _synthetic(seed=3, n=120)
        kernel = make_screen_kernel(decoder)
        queries = emb[[4, 77]]
        query_proj = decoder.project_queries(queries, sides=("as_left",))
        score = exact_score_fn(kernel, query_proj)
        reference = ShardedEmbeddingCatalog(emb, proj, num_shards=3,
                                            block_size=13).screen(score, 2, 9)
        manifest = ShardStore.save(tmp_path / "s", emb, proj, num_shards=3,
                                   **_drugs(120))
        for block_size in (5, 13, 1000):
            mapped = ShardStore(manifest).catalog(block_size)
            assert isinstance(mapped, ShardedEmbeddingCatalog)
            results = mapped.screen(score, 2, 9)
            for (ri, rs), (mi, ms) in zip(reference, results):
                np.testing.assert_array_equal(mi, ri)
                np.testing.assert_array_equal(ms, rs)

    def test_rows_gather_matches_in_memory(self, tmp_path):
        decoder, emb, proj = _synthetic(seed=7, n=64)
        manifest = ShardStore.save(tmp_path / "s", emb, proj, num_shards=5,
                                   **_drugs(64))
        mapped = ShardStore(manifest).catalog(8)
        reference = ShardedEmbeddingCatalog(emb, proj)
        for indices in (np.array([63, 0, 17, 17, 40, 2]),  # cross-shard
                        np.array([15, 13, 14, 14]),  # inside shard 1 only
                        np.array([], dtype=np.int64)):
            got = mapped.rows(indices)
            want = reference.rows(indices)
            assert set(got) == set(want) == set(proj)
            for name in want:
                assert got[name].shape == (len(indices),) \
                    + proj[name].shape[1:]
                np.testing.assert_array_equal(got[name], want[name])
                np.testing.assert_array_equal(want[name],
                                              proj[name][indices])
        with pytest.raises(IndexError):
            mapped.rows(np.array([64]))


# ---------------------------------------------------------------------------
# service wiring: save_shards / open_shards / started shard workers
# ---------------------------------------------------------------------------
class TestServiceStore:
    def test_mmap_round_trip_bitwise_parity(self, setup, tmp_path):
        service = _service(setup, block_size=7, num_shards=2)
        queries = [0, 9, "drug_17"]
        reference = _hits(service.screen_batch(queries, top_k=6,
                                               exclude=(3,)))
        manifest = service.save_shards(tmp_path / "store", num_shards=4)
        assert service.open_shards(manifest)
        assert service._store is not None
        mapped = _hits(service.screen_batch(queries, top_k=6, exclude=(3,)))
        assert mapped == reference
        single = service.screen(9, top_k=6, exclude=(3,))
        assert [(h.index, h.probability) for h in single] == reference[1]

    def test_parallel_screens_bitwise_match_serial(self, setup, tmp_path):
        service = _service(setup, block_size=5)
        queries = [1, 4, 20]
        reference = _hits(service.screen_batch(queries, top_k=8,
                                               symmetric=True))
        service.save_shards(tmp_path / "store", num_shards=3)
        assert service.open_shards(tmp_path / "store")
        try:
            service.start_workers(2)
            children = list(service._worker_processes)
            remote = _hits(service.screen_batch(queries, top_k=8,
                                                symmetric=True))
            assert remote == reference
            assert service.stats.remote_screens == len(queries)
        finally:
            service.close()
        assert all(child.poll() is not None for child in children)

    def test_parallel_demanded_without_store_raises(self, setup):
        service = _service(setup)
        with pytest.raises(RuntimeError, match="shard store"):
            service.start_workers(1)

    def test_open_shards_rejects_mismatches(self, setup, tmp_path):
        corpus, _, model, _, builder = setup
        service = _service(setup)
        manifest = service.save_shards(tmp_path / "store")
        # Different catalog -> digest mismatch.
        other = DDIScreeningService(model, builder, corpus[:-1])
        assert not other.open_shards(manifest)
        with pytest.raises(ValueError, match="different drug catalog"):
            other.open_shards(manifest, strict=True)
        # Different weights -> fingerprint mismatch.
        original = model.encoder.node_embedding.data
        try:
            model.encoder.node_embedding.data = original + 0.25
            fresh = _service(setup)
            assert not fresh.open_shards(manifest)
            with pytest.raises(ValueError, match="fingerprint"):
                fresh.open_shards(manifest, strict=True)
        finally:
            model.encoder.node_embedding.data = original
        # Garbage path -> False unless strict.
        assert not service.open_shards(tmp_path / "nope")
        with pytest.raises(OSError):
            service.open_shards(tmp_path / "nope", strict=True)
        # Truncated manifest -> False unless strict (best-effort contract).
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(
            json.dumps({"format": "repro.serving.shard-store/v1"}))
        assert not service.open_shards(bad)
        with pytest.raises(ValueError, match="missing manifest keys"):
            service.open_shards(bad, strict=True)

    def test_artifacts_carry_one_digest_string(self, setup, tmp_path):
        """A store written here round-trips strictly, and boots with the
        model archive; the same store carrying another digest string is
        rejected."""
        _, _, model, _, builder = setup
        service = _service(setup, num_shards=2)
        expected = _hits([service.screen(3, top_k=5)])[0]
        manifest = service.save_shards(tmp_path / "store")
        artifact = tmp_path / "model.npz"
        save_model(artifact, model, builder)
        digest = json.loads(manifest.read_text())["fingerprint"]
        assert digest == service._fingerprint()
        assert digest.startswith(f"{service.precision}:")
        assert _service(setup).open_shards(manifest, strict=True)
        cold = DDIScreeningService.from_store(manifest, artifact)
        assert _hits([cold.screen(3, top_k=5)])[0] == expected
        assert cold.stats.corpus_encodes == 0

        other = f"{service.precision}:{'0' * 32}"
        payload = json.loads(manifest.read_text())
        payload["fingerprint"] = other
        manifest.write_text(json.dumps(payload))
        fresh = _service(setup)
        assert not fresh.open_shards(manifest)
        for load in (lambda: fresh.open_shards(manifest, strict=True),
                     lambda: DDIScreeningService.from_store(manifest,
                                                            artifact)):
            with pytest.raises(ValueError, match="fingerprint"):
                load()

    def test_open_shards_releases_in_memory_projections(self, setup,
                                                        tmp_path):
        """Attaching the store must drop the redundant in-RAM candidate
        precompute (the dominant working-set share) — that is what makes
        the service tier actually out-of-core — without detaching the
        store it just attached."""
        service = _service(setup, num_shards=2)
        reference = _hits([service.screen(1, top_k=5)])[0]
        service.save_shards(tmp_path / "store")
        assert service._cache.projections is not None
        assert service.open_shards(tmp_path / "store")
        assert service._cache.projections is None
        hits = _hits([service.screen(1, top_k=5)])[0]
        assert service._store is not None  # still attached after screening
        assert hits == reference
        # Detach (weights moved) -> lazy in-memory recompute still works.
        service.invalidate()
        hits = _hits([service.screen(1, top_k=5)])[0]
        assert service._store is None
        assert hits == reference

    def test_registration_appends_through_to_store(self, setup, tmp_path):
        """A registration lands in the attached store as a committed
        append segment (the living-catalog contract) instead of
        detaching it."""
        corpus, _, model, _, _ = setup
        service = _service(setup, num_shards=2)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        before_version = service.catalog_version
        service.screen(0, top_k=3)
        index = service.register_drug(corpus[5], drug_id="late-twin")
        hits = service.screen(5, top_k=service.num_drugs)
        assert index in [h.index for h in hits]  # sees the new drug
        assert service._store is not None  # store followed the catalog
        assert service.catalog_version == before_version + 1
        assert service._store.num_drugs == service.num_drugs
        assert service.stats.appends_committed == 1

    def test_weight_update_detaches_stale_store(self, setup, tmp_path):
        corpus, _, model, _, _ = setup
        service = _service(setup)
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store")
        before = service.screen(2, top_k=4)
        original = model.encoder.node_embedding.data
        try:
            model.encoder.node_embedding.data = original + 0.1
            after = service.screen(2, top_k=4)
            assert service._store is None
            assert ([h.probability for h in before]
                    != [h.probability for h in after])
        finally:
            model.encoder.node_embedding.data = original


    def test_invalidate_detaches_the_store_at_once(self, setup, tmp_path):
        service = _service(setup)
        assert service.open_shards(service.save_shards(tmp_path / "store"),
                                   strict=True)
        service.invalidate()
        assert service.shard_store is None
        assert service.catalog_version is None

    def test_failed_append_through_detaches_and_serves_in_memory(
            self, setup, tmp_path, monkeypatch):
        """A registration whose append-through fails still lands; the
        store, which no longer holds every served row, detaches and its
        workers stop."""
        corpus = setup[0]
        service = _service(setup, num_shards=2)
        assert service.open_shards(service.save_shards(tmp_path / "store"),
                                   strict=True)
        try:
            service.start_workers(1)
            children = list(service._worker_processes)

            def failing_append(self, *args, **kwargs):
                raise OSError("disk full")

            monkeypatch.setattr(ShardStore, "append", failing_append)
            index = service.register_drug(corpus[3], drug_id="late")
        finally:
            service.close()
        assert service.num_drugs == index + 1
        assert service.shard_store is None
        assert service.catalog_version is None
        assert service.remote is None
        assert all(child.poll() is not None for child in children)
        assert service.stats.appends_committed == 0
        in_memory = _service(setup, num_shards=2)
        in_memory.register_drug(corpus[3], drug_id="late")
        assert _hits(service.screen_batch(["late"], top_k=8)) == \
            _hits(in_memory.screen_batch(["late"], top_k=8))

    def test_save_shards_to_a_backup_keeps_the_store_serving(self, setup,
                                                             tmp_path):
        """Saving a copy writes the served rows and leaves the attached
        store, its workers and every screen untouched; the copy boots
        into the same bits."""
        corpus, _, model, _, builder = setup
        artifact = tmp_path / "model.npz"
        save_model(artifact, model, builder)
        service = _service(setup, num_shards=2, block_size=8)
        assert service.open_shards(service.save_shards(tmp_path / "store"),
                                   strict=True)
        service.register_drugs(corpus[3:5], drug_ids=["late_0", "late_1"])
        queries = [0, 9, "late_1"]
        with ShardWorker(service.shard_store.path) as worker:
            service.connect_workers([worker])
            try:
                exact = _hits(service.screen_batch(queries, top_k=6))
                approx = _hits(service.screen_batch(queries, top_k=6,
                                                    approx=True))
                store, version = service.shard_store, service.catalog_version
                remote_screens = service.stats.remote_screens
                backup = service.save_shards(tmp_path / "backup")
                assert service.shard_store is store
                assert service.catalog_version == version
                assert _hits(service.screen_batch(queries, top_k=6)) == exact
                assert service.remote is not None
                assert service.stats.remote_screens == \
                    remote_screens + len(queries)
                assert _hits(service.screen_batch(queries, top_k=6,
                                                  approx=True)) == approx
                service.register_drug(corpus[5], drug_id="late_2")
                assert service.catalog_version == version + 1
            finally:
                service.disconnect_workers()
        cold = DDIScreeningService.from_store(backup, artifact)
        assert cold.stats.corpus_encodes == 0
        assert _hits(cold.screen_batch(queries, top_k=6)) == exact
        assert _hits(cold.screen_batch(queries, top_k=6,
                                       approx=True)) == approx

    def test_save_shards_refuses_the_attached_store_directory(
            self, setup, tmp_path):
        corpus = setup[0]
        service = _service(setup, num_shards=2)
        root = tmp_path / "store"
        assert service.open_shards(service.save_shards(root), strict=True)
        service.register_drug(corpus[3], drug_id="late")
        for target in (root, service.shard_store.root,
                       tmp_path / "other" / ".." / "store"):
            with pytest.raises(ValueError, match="compact_shards"):
                service.save_shards(target)
        assert service.catalog_version == 1
        reopened = ShardStore(root)
        assert reopened.version == 1 and reopened.versions() == [0, 1]
        assert reopened.verify() == []


# ---------------------------------------------------------------------------
# start_workers argument checks
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_bad_worker_count_rejected(self):
        corpus = _corpus(n=12)
        model, _, builder = HyGNN.for_corpus(
            corpus, HyGNNConfig(parameter=4, embed_dim=8, hidden_dim=8))
        service = DDIScreeningService(model, builder, corpus)
        with pytest.raises(ValueError, match="count"):
            service.start_workers(0)


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------
class TestCacheVersionUniqueness:
    """The `_catalog` memoization key can never collide across caches."""

    def _cache_with(self, emb):
        cache = EmbeddingCache()
        context = EncoderContext(layer_node_feats=(Tensor(np.zeros((2, 2))),))
        cache.install((), context, emb)
        return cache

    def test_versions_globally_unique_across_instances(self):
        c1 = self._cache_with(np.zeros((2, 3)))
        c2 = self._cache_with(np.zeros((2, 3)))
        assert c1.version != c2.version
        seen = {c1.version, c2.version}
        c1.drop()
        assert c1.version not in seen


class TestApproxStats:
    def test_prefilter_and_rescore_counted_separately(self, setup):
        service = _service(setup)
        service.screen(0, top_k=3)  # warm the cache
        n = service.num_drugs
        base_scored = service.stats.pairs_scored
        base_prefilter = service.stats.prefilter_pairs
        service.screen(0, top_k=3, approx=True, approx_oversample=4)
        # The whole catalog went through the prefilter once ...
        assert service.stats.prefilter_pairs - base_prefilter == n
        # ... but only the shortlist (top_k * oversample, minus nothing
        # here) was exact-scored — not num_drugs.
        rescored = service.stats.pairs_scored - base_scored
        assert rescored == 12
        assert rescored < n

    def test_exact_mode_counts_eligible_pairs(self, setup):
        service = _service(setup)
        service.screen(0, top_k=3)
        base = service.stats.pairs_scored
        # The query itself is always excluded, so one screen charges
        # num_drugs - 1 exact evaluations, not num_drugs.
        service.screen(1, top_k=3)
        assert service.stats.pairs_scored - base == service.num_drugs - 1
        assert service.stats.prefilter_pairs == 0


class TestResolveExcludeDeterminism:
    def test_resolved_indices_sorted_and_unique(self, setup):
        service = _service(setup)
        resolved = service._resolve_exclude(
            ("drug_7", 3, "drug_1", 19, 3, "drug_19"))
        np.testing.assert_array_equal(resolved, [1, 3, 7, 19])
        again = service._resolve_exclude(
            (19, "drug_3", 7, "drug_19", 1, "drug_3"))
        np.testing.assert_array_equal(again, [1, 3, 7, 19])
