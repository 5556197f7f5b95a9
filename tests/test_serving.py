"""Tests for the DDI screening service: cache parity, invalidation,
incremental registration, top-k screening, and artifact round-trips."""

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, Trainer, save_model
from repro.core.encoder import HyGNNEncoder
from repro.data import balanced_pairs_and_labels, make_benchmark, random_split
from repro.serving import DDIScreeningService
from repro.serving import service as service_module


def _corpus(n=40, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module")
def setup():
    corpus = _corpus()
    # k=4 keeps the vocabulary small enough that freshly generated "new"
    # drugs share substructures with the corpus (k=9 windows rarely recur).
    config = HyGNNConfig(parameter=4, embed_dim=16, hidden_dim=16, seed=3)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, config, model, hypergraph, builder


@pytest.fixture
def service(setup):
    corpus, _, model, _, builder = setup
    return DDIScreeningService(model, builder, corpus)


@pytest.fixture
def query_pairs(setup):
    corpus, *_ = setup
    rng = np.random.default_rng(0)
    return rng.integers(0, len(corpus), size=(64, 2))


class TestCacheParity:
    def test_scores_match_predict_proba(self, setup, service, query_pairs):
        _, _, model, hypergraph, _ = setup
        served = service.score_pairs(query_pairs)
        naive = model.predict_proba(hypergraph, query_pairs)
        np.testing.assert_allclose(served, naive, rtol=0, atol=1e-8)

    def test_scores_match_bitwise(self, setup, service, query_pairs):
        _, _, model, hypergraph, _ = setup
        assert np.array_equal(service.score_pairs(query_pairs),
                              model.predict_proba(hypergraph, query_pairs))

    def test_repeat_queries_hit_cache(self, service, query_pairs):
        service.score_pairs(query_pairs)
        service.score_pairs(query_pairs)
        service.score_pairs(query_pairs)
        assert service.stats.corpus_encodes == 1
        assert service.stats.cache_hits >= 2

    def test_id_pairs_match_index_pairs(self, service):
        by_id = service.score_id_pairs([("drug_0", "drug_3"),
                                        ("drug_7", "drug_1")])
        by_index = service.score_pairs(np.array([[0, 3], [7, 1]]))
        np.testing.assert_array_equal(by_id, by_index)


class TestCacheInvalidation:
    def test_weight_update_invalidates(self, setup, query_pairs):
        corpus, _, model, hypergraph, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        before = service.score_pairs(query_pairs)
        original = model.encoder.node_embedding.data
        try:
            model.encoder.node_embedding.data = original + 0.05
            after = service.score_pairs(query_pairs)
            fresh = model.predict_proba(hypergraph, query_pairs)
            assert not np.array_equal(before, after)
            np.testing.assert_array_equal(after, fresh)
            assert service.stats.invalidations == 1
            assert service.stats.corpus_encodes == 2
        finally:
            model.encoder.node_embedding.data = original

    def test_training_invalidates(self):
        bench = make_benchmark(scale=0.05, seed=1)
        ds = bench.twosides
        pairs, labels = balanced_pairs_and_labels(ds, seed=1)
        split = random_split(len(pairs), seed=1)
        config = HyGNNConfig(epochs=3, embed_dim=16, hidden_dim=16)
        model, hypergraph, builder = HyGNN.for_corpus(ds.smiles, config)
        service = DDIScreeningService(model, builder, ds.smiles)
        before = service.score_pairs(pairs[:16])
        Trainer(model, config).fit(hypergraph, pairs, labels, split)
        after = service.score_pairs(pairs[:16])
        np.testing.assert_array_equal(
            after, model.predict_proba(hypergraph, pairs[:16]))
        assert not np.array_equal(before, after)

    def test_explicit_invalidate_forces_rebuild(self, setup, query_pairs):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        first = service.score_pairs(query_pairs)
        service.invalidate()
        second = service.score_pairs(query_pairs)
        np.testing.assert_array_equal(first, second)
        assert service.stats.corpus_encodes == 2
        assert service.stats.invalidations == 1

    def test_row_swap_through_load_state_dict_rebuilds(self):
        """Swapping two middle rows of the substructure table keeps the
        table's sums, so a checksum of sums can miss it; array identity
        cannot, because ``load_state_dict`` binds new arrays."""
        corpus = _corpus(300, seed=5)
        config = HyGNNConfig(parameter=4, embed_dim=32, hidden_dim=32,
                             seed=3)
        model, _, builder = HyGNN.for_corpus(corpus, config)
        service = DDIScreeningService(model, builder, corpus)
        queries = list(range(len(corpus)))
        before = service.screen_batch(queries, top_k=5)
        state = model.state_dict()
        table = state["encoder.node_embedding"]
        n = len(table)
        table[[n // 2, n // 2 + 1]] = table[[n // 2 + 1, n // 2]]
        model.load_state_dict(state)
        fresh = DDIScreeningService(model, builder, corpus)
        after = service.screen_batch(queries, top_k=5)
        assert after == fresh.screen_batch(queries, top_k=5)
        assert after != before
        assert service.stats.corpus_encodes == 2

    def test_in_place_edits_of_served_weights_raise(self, setup):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        before = service.screen(0, top_k=5)
        table = model.encoder.node_embedding
        with pytest.raises(ValueError, match="read-only"):
            table.data[[0, 1]] = table.data[[1, 0]]
        for param in model.parameters():
            with pytest.raises(ValueError, match="read-only"):
                param.data += 0.05
        assert service.screen(0, top_k=5) == before
        assert service.stats.corpus_encodes == 1

    def test_requests_never_hash_the_weights(self, setup, monkeypatch,
                                             tmp_path):
        corpus, _, model, _, builder = setup
        calls = []
        digest = service_module.weights_fingerprint

        def counting(*args, **kwargs):
            calls.append(args)
            return digest(*args, **kwargs)

        monkeypatch.setattr(service_module, "weights_fingerprint", counting)
        service = DDIScreeningService(model, builder, corpus)
        new_drugs = _corpus(4, seed=77)
        for _ in range(2):
            service.screen_batch([0, 3], top_k=4)
            service.screen_smiles_batch(new_drugs[:2], top_k=4,
                                        allow_unknown=True)
            service.score_pairs(np.array([[0, 1], [2, 3]]))
        service.register_drugs(new_drugs[2:], allow_unknown=True)
        assert calls == []
        service.save_shards(tmp_path / "store")
        assert service.open_shards(tmp_path / "store", strict=True)
        assert len(calls) == 1


class TestIncrementalRegistration:
    def test_registration_does_not_reencode_catalog(self, setup, monkeypatch):
        corpus, _, model, _, builder = setup
        new_drugs = _corpus(4, seed=77)
        service = DDIScreeningService(model, builder, corpus)
        service.score_pairs(np.array([[0, 1]]))
        catalog_before = service.embeddings.copy()

        calls = {"count": 0}
        original_encode = HyGNNEncoder.encode_with_context

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return original_encode(self, *args, **kwargs)

        monkeypatch.setattr(HyGNNEncoder, "encode_with_context", counting)
        for i, smiles in enumerate(new_drugs):
            service.register_drug(smiles, drug_id=f"new_{i}")
        assert calls["count"] == 0  # no corpus re-encode during registration
        assert service.stats.corpus_encodes == 1
        assert service.stats.incremental_encodes == len(new_drugs)
        # Existing rows are bitwise-untouched.
        np.testing.assert_array_equal(
            service.embeddings[:len(corpus)], catalog_before)

    def test_incremental_matches_full_rebuild(self, setup):
        corpus, _, model, _, builder = setup
        new_drugs = _corpus(3, seed=88)
        one_by_one = DDIScreeningService(model, builder, corpus)
        for i, smiles in enumerate(new_drugs):
            one_by_one.register_drug(smiles, drug_id=f"n{i}")
        # Full rebuild: a fresh service (cold cache) registering the same
        # drugs in one batch.  Per-edge results are independent, so batch
        # size only perturbs BLAS summation order (ULP-level).
        # "@@@@" has no known substructure: registered anyway, its row is
        # zero.
        one_by_one.register_drug("@@@@", drug_id="junk", allow_unknown=True)
        rebuilt = DDIScreeningService(model, builder, corpus)
        rebuilt.register_drugs(new_drugs + ["@@@@"],
                               drug_ids=["n0", "n1", "n2", "junk"],
                               allow_unknown=True)
        np.testing.assert_allclose(one_by_one.embeddings, rebuilt.embeddings,
                                   rtol=0, atol=1e-12)
        # A forced in-place rebuild re-encodes the registered drugs from
        # their SMILES in one batch — bitwise equal to the batch path —
        # and the drug with no known substructure keeps its zero row.
        batch = rebuilt.embeddings.copy()
        for service in (one_by_one, rebuilt):
            service.refresh(force=True)
            np.testing.assert_array_equal(service.embeddings, batch)
            np.testing.assert_array_equal(service.embeddings[-1],
                                          np.zeros(batch.shape[1]))
        pairs = np.array([[len(corpus), 0], [len(corpus) + 2, 5]])
        np.testing.assert_allclose(one_by_one.score_pairs(pairs),
                                   rebuilt.score_pairs(pairs),
                                   rtol=0, atol=1e-12)

    def test_registered_drug_embedding_is_inductive(self, setup):
        """A corpus drug re-registered as 'new' gets its exact catalog row."""
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        index = service.register_drug(corpus[5], drug_id="copy_of_5")
        np.testing.assert_allclose(service.embeddings[index],
                                   service.embeddings[5],
                                   rtol=0, atol=1e-12)

    def test_unknown_substructures_rejected(self, setup):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        with pytest.raises(ValueError):
            service.register_drug("@@@@", drug_id="junk")
        index = service.register_drug("@@@@", drug_id="junk",
                                      allow_unknown=True)
        np.testing.assert_array_equal(service.embeddings[index],
                                      np.zeros(service.embeddings.shape[1]))

    def test_duplicate_drug_id_rejected(self, setup):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        with pytest.raises(ValueError):
            service.register_drug(corpus[0], drug_id="drug_0")


class TestScreening:
    def test_top_k_matches_brute_force(self, setup, service):
        corpus, _, model, hypergraph, _ = setup
        query = 4
        candidates = [j for j in range(len(corpus)) if j != query]
        pairs = np.array([[query, j] for j in candidates])
        probs = model.predict_proba(hypergraph, pairs)
        expected = [candidates[r] for r in np.argsort(-probs, kind="stable")[:5]]
        hits = service.screen(query, top_k=5)
        assert [h.index for h in hits] == expected
        for hit, rank in zip(hits, np.argsort(-probs, kind="stable")[:5]):
            assert hit.probability == pytest.approx(probs[rank], abs=1e-12)

    def test_screen_excludes_self(self, service):
        hits = service.screen(0, top_k=service.num_drugs)
        assert 0 not in [h.index for h in hits]
        assert len(hits) == service.num_drugs - 1

    def test_screen_by_id_and_exclude(self, service):
        hits = service.screen("drug_2", top_k=3, exclude=("drug_0", 1))
        assert {h.index for h in hits}.isdisjoint({0, 1, 2})

    def test_screen_probabilities_sorted(self, service):
        probs = [h.probability for h in service.screen(7, top_k=10)]
        assert probs == sorted(probs, reverse=True)

    def test_screen_top_k_zero_returns_empty(self, service):
        assert service.screen(0, top_k=0) == []
        assert service.screen(0, top_k=-3) == []

    def test_screen_independent_of_engine_layout(self, setup, service):
        """Block size and shard count are execution details, not semantics."""
        corpus, _, model, _, builder = setup
        tiled = DDIScreeningService(model, builder, corpus, block_size=3,
                                    num_shards=4)
        for query in (0, 13):
            expected = [(h.index, h.probability)
                        for h in service.screen(query, top_k=7)]
            assert [(h.index, h.probability)
                    for h in tiled.screen(query, top_k=7)] == expected

    def test_screen_batch_matches_screen(self, service):
        batched = service.screen_batch(["drug_3", 8], top_k=4)
        for query, hits in zip([3, 8], batched):
            assert [(h.index, h.probability) for h in hits] == \
                [(h.index, h.probability)
                 for h in service.screen(query, top_k=4)]

    def test_symmetric_screening_averages_orders(self, setup, service):
        corpus, _, _, _, _ = setup
        asym = {h.index: h.probability for h in
                service.screen(3, top_k=len(corpus))}
        sym = {h.index: h.probability for h in
               service.screen(3, top_k=len(corpus), symmetric=True)}
        flipped = service.score_pairs(
            np.array([[j, 3] for j in sorted(asym)]))
        for j, flip in zip(sorted(asym), flipped):
            assert sym[j] == pytest.approx(0.5 * (asym[j] + flip), abs=1e-12)

    def test_screen_smiles_matches_registration(self, setup):
        corpus, _, model, _, builder = setup
        new = _corpus(1, seed=101)[0]
        transient = DDIScreeningService(model, builder, corpus)
        hits_transient = transient.screen_smiles(new, top_k=5)
        assert transient.num_drugs == len(corpus)  # nothing registered
        registered = DDIScreeningService(model, builder, corpus)
        registered.register_drug(new, drug_id="q")
        hits_registered = registered.screen("q", top_k=5)
        assert ([h.index for h in hits_transient]
                == [h.index for h in hits_registered])
        for a, b in zip(hits_transient, hits_registered):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)


class TestServeFromArtifact:
    def test_save_load_serve_bitwise_roundtrip(self, tmp_path, setup,
                                               query_pairs):
        corpus, _, model, hypergraph, builder = setup
        path = tmp_path / "model.npz"
        save_model(path, model, builder)
        service = DDIScreeningService.from_artifact(path, corpus)
        np.testing.assert_array_equal(
            service.score_pairs(query_pairs),
            model.predict_proba(hypergraph, query_pairs))

    def test_espf_roundtrip_bitwise(self, tmp_path):
        corpus = _corpus(30, seed=42)
        config = HyGNNConfig(method="espf", parameter=5, embed_dim=16,
                             hidden_dim=16)
        model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
        path = tmp_path / "espf.npz"
        save_model(path, model, builder)
        service = DDIScreeningService.from_artifact(path, corpus)
        pairs = np.array([[0, 1], [5, 20], [12, 3]])
        np.testing.assert_array_equal(
            service.score_pairs(pairs),
            model.predict_proba(hypergraph, pairs))
        # The reloaded ESPF tokenizer drives registration identically too.
        new = _corpus(1, seed=7)[0]
        direct = DDIScreeningService(model, builder, corpus)
        service.register_drug(new, drug_id="x")
        direct.register_drug(new, drug_id="x")
        np.testing.assert_array_equal(service.embeddings, direct.embeddings)

    def test_trained_artifact_roundtrip(self, tmp_path):
        bench = make_benchmark(scale=0.05, seed=2)
        ds = bench.twosides
        pairs, labels = balanced_pairs_and_labels(ds, seed=2)
        split = random_split(len(pairs), seed=2)
        config = HyGNNConfig(epochs=5, embed_dim=16, hidden_dim=16)
        model, hypergraph, builder = HyGNN.for_corpus(ds.smiles, config)
        Trainer(model, config).fit(hypergraph, pairs, labels, split)
        path = tmp_path / "trained.npz"
        save_model(path, model, builder)
        service = DDIScreeningService.from_artifact(path, ds.smiles)
        np.testing.assert_array_equal(
            service.score_pairs(pairs[:32]),
            model.predict_proba(hypergraph, pairs[:32]))


class TestValidation:
    def test_empty_catalog_rejected(self, setup):
        _, _, model, _, builder = setup
        with pytest.raises(ValueError):
            DDIScreeningService(model, builder, [])

    def test_mismatched_builder_rejected(self, setup):
        corpus, config, model, _, _ = setup
        _, _, other_builder = HyGNN.for_corpus(_corpus(10, seed=1), config)
        with pytest.raises(ValueError):
            DDIScreeningService(model, other_builder, corpus)

    def test_pair_index_out_of_range(self, service):
        with pytest.raises(IndexError):
            service.score_pairs(np.array([[0, service.num_drugs]]))

    def test_unknown_drug_id(self, service):
        with pytest.raises(KeyError):
            service.index_of("nope")

    def test_embeddings_view_is_read_only(self, service):
        with pytest.raises(ValueError):
            service.embeddings[0, 0] = 1.0

    def test_service_does_not_flip_training_mode(self, setup):
        corpus, _, model, _, builder = setup
        model.train()
        try:
            service = DDIScreeningService(model, builder, corpus)
            assert model.training  # construction is side-effect free
            service.score_pairs(np.array([[0, 1]]))
            assert model.training  # scoring restores the caller's mode
        finally:
            model.eval()

    def test_cached_context_is_detached(self, service):
        """The cache must not pin the corpus-encode autograd graph."""
        service.score_pairs(np.array([[0, 1]]))
        for tensor in service._cache.context.layer_node_feats:
            assert not tensor.requires_grad
            assert tensor._parents == ()


class TestServingBugSweep:
    """Pins for the serving-layer bug sweep.

    Three classes of silent misbehaviour: booleans accepted as catalog
    indices (``True`` screened drug 1), ``pairs_scored`` overcounting
    excluded candidates, and the vectorized id lookup widening only the
    query side of the dtype comparison.
    """

    def test_screen_rejects_bool_query(self, service):
        with pytest.raises(TypeError, match="bool"):
            service.screen(True)
        with pytest.raises(TypeError, match="bool"):
            service.screen(np.True_)

    def test_screen_batch_rejects_bool_query(self, service):
        with pytest.raises(TypeError, match="bool"):
            service.screen_batch([0, False])

    def test_score_pairs_rejects_bool_pairs(self, service):
        with pytest.raises(TypeError, match="bool"):
            service.score_pairs(np.array([[True, False]]))

    def test_exclude_rejects_bools(self, service):
        with pytest.raises(TypeError, match="bool"):
            service.screen(0, exclude=(True,))

    def test_top_k_rejects_bools(self, service):
        with pytest.raises(TypeError):
            service.screen(0, top_k=True)

    def test_pairs_scored_counts_eligible_pairs_only(self, setup):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        service.refresh()
        n = service.num_drugs
        base = service.stats.pairs_scored
        service.screen(0, top_k=3)
        # The query itself is always excluded, so n - 1 pairs are scored.
        assert service.stats.pairs_scored - base == n - 1
        base = service.stats.pairs_scored
        service.screen(0, top_k=3, exclude=(1, 2))
        assert service.stats.pairs_scored - base == n - 3
        base = service.stats.pairs_scored
        service.screen(0, top_k=3, symmetric=True)
        assert service.stats.pairs_scored - base == 2 * (n - 1)

    def test_id_lookup_widens_both_sides(self, service):
        ids = service._drug_ids
        # A query id longer than every catalog id is compared in full,
        # never truncated to a catalog id's length.
        long_id = max(ids, key=len) + "_longer_than_any_catalog_id"
        with pytest.raises(KeyError, match="unknown drug id"):
            service.score_id_pairs([(ids[0], long_id)])
        # Valid ids still resolve from a string array wider than any
        # catalog id.
        wide = np.asarray([[ids[0], ids[1]]], dtype="<U128")
        np.testing.assert_array_equal(
            service.score_id_pairs(wide),
            service.score_pairs([[service.index_of(ids[0]),
                                  service.index_of(ids[1])]]))

    def test_id_lookup_mixed_batch_names_the_unknown(self, service):
        ids = service._drug_ids
        long_id = "z" * 64
        with pytest.raises(KeyError, match="unknown drug id"):
            service.score_id_pairs([(ids[0], ids[1]), (long_id, ids[2])])
