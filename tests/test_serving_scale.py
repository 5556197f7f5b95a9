"""Tests for the scale-aware screening engine: deterministic top-k
selection, sharded catalogs, blockwise/batched/approximate screening, and
persistence of the precomputed decoder projections.

The engine's exact mode promises *bitwise* determinism: identical scores
and rankings for every block size, shard count, and query-batch size —
all equal to the single-block reference ``HyGNN.screen_probs``.  These tests pin that contract down.
"""

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.core.decoder import make_decoder, make_screen_kernel
from repro.serving import (CatalogShard, DDIScreeningService,
                           ShardedEmbeddingCatalog, merge_top_k)
from repro.serving.shards import screen_shard
from repro.serving.topk import batch_top_k_sets


def _corpus(n=40, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module", params=["mlp", "dot"])
def setup(request):
    corpus = _corpus()
    config = HyGNNConfig(parameter=4, embed_dim=16, hidden_dim=16, seed=3,
                         decoder=request.param)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, config, model, hypergraph, builder


def _service(setup, **kwargs):
    corpus, _, model, _, builder = setup
    return DDIScreeningService(model, builder, corpus, **kwargs)


def _legacy_screen(service, model, query, top_k, symmetric=False):
    """The pre-engine screen path: full pair materialization + stable argsort."""
    n = service.num_drugs
    candidates = np.arange(n, dtype=np.int64)
    pairs = np.stack([np.full_like(candidates, query), candidates], axis=1)
    probs = model.predict_proba_from_embeddings(service.embeddings, pairs)
    if symmetric:
        probs = 0.5 * (probs + model.predict_proba_from_embeddings(
            service.embeddings, pairs[:, ::-1]))
    order = [j for j in np.argsort(-probs, kind="stable") if j != query]
    return [(int(j), probs[j]) for j in order[:top_k]]


# ---------------------------------------------------------------------------
# top-k selection: the engine against the stable argsort it reproduces
# ---------------------------------------------------------------------------
def _screen_scores(scores, padded, block_size, start=0):
    """``screen_shard`` over a ``(Q, n)`` score matrix as one contiguous
    shard holding global rows ``start .. start + n``."""
    scores = np.atleast_2d(scores)
    n = scores.shape[1]
    shard = CatalogShard(indices=np.arange(start, start + n, dtype=np.int64),
                         embeddings=np.zeros((n, 0)),
                         projections={"col": np.arange(n)})
    return screen_shard(shard, block_size,
                        lambda _emb, proj: scores[:, proj["col"]],
                        len(scores), padded)


def _stable_top_k(scores, k):
    return np.argsort(-scores, kind="stable")[:max(k, 0)]


class TestTopK:
    def test_matches_stable_argsort_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(1, 200))
            # Heavy quantization forces many exact ties.
            scores = np.round(rng.random(n), 1)
            k = int(rng.integers(0, n + 2))
            indices, _ = _screen_scores(scores, [k], block_size=n)[0]
            np.testing.assert_array_equal(indices, _stable_top_k(scores, k))

    def test_empty_and_degenerate(self):
        for scores, k in ((np.zeros(0), 5), (np.array([1.0, 2.0]), 0),
                          (np.array([1.0, 2.0]), -1)):
            indices, _ = _screen_scores(scores, [k], block_size=4)[0]
            assert len(indices) == 0
        indices, _ = _screen_scores(np.array([1.0, 2.0]), [10],
                                    block_size=4)[0]
        np.testing.assert_array_equal(indices, [1, 0])

    def test_all_equal_scores_prefer_low_indices(self):
        indices, _ = _screen_scores(np.full(10, 0.5), [3], block_size=4)[0]
        np.testing.assert_array_equal(indices, [0, 1, 2])

    def test_streaming_independent_of_blocking(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.random(500), 2)
        expected = _stable_top_k(scores, 17)
        for block in (1, 7, 100, 500, 1000):
            indices, values = _screen_scores(scores, [17], block)[0]
            np.testing.assert_array_equal(indices, expected)
            np.testing.assert_array_equal(values, scores[expected])

    def test_merge_equals_global_selection(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.random(300), 2)
        expected = _stable_top_k(scores, 9)
        shard_results = [
            _screen_scores(scores[part], [9], block_size=64,
                           start=int(part[0]))[0]
            for part in np.array_split(np.arange(300), 4)]
        merged_idx, merged_sc = merge_top_k(shard_results, 9)
        np.testing.assert_array_equal(merged_idx, expected)
        np.testing.assert_array_equal(merged_sc, scores[expected])

    def test_batch_top_k_sets_matches_scalar_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            num_queries = int(rng.integers(1, 8))
            n = int(rng.integers(1, 120))
            k = int(rng.integers(0, n + 2))
            # Heavy quantization forces many exact ties.
            scores = np.round(rng.random((num_queries, n)), 1)
            cols = batch_top_k_sets(scores, k)
            for qi in range(num_queries):
                np.testing.assert_array_equal(
                    cols[qi], np.sort(_stable_top_k(scores[qi], k)))

    def test_batched_screen_shard_matches_stable_argsort(self):
        """The vectorised per-shard screen is bitwise the stable argsort
        for every blocking, tie pattern, and per-query budget mix."""
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 100))
            num_queries = int(rng.integers(1, 6))
            block = int(rng.integers(1, 40))
            dtype = rng.choice([np.float32, np.float64])
            scores = rng.integers(0, 4, size=(num_queries, n)).astype(dtype)
            padded = [int(rng.integers(0, 13)) for _ in range(num_queries)]
            got = _screen_scores(scores, padded, block)
            for qi, k in enumerate(padded):
                want = _stable_top_k(scores[qi], k)
                got_idx, got_sc = got[qi]
                np.testing.assert_array_equal(got_idx, want)
                np.testing.assert_array_equal(got_sc, scores[qi, want])
                assert got_sc.dtype == (dtype if k else np.float64)


# ---------------------------------------------------------------------------
# sharded catalog
# ---------------------------------------------------------------------------
class TestShardedCatalog:
    def _catalog_and_scores(self, seed=0, n=120, d=8):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, d))
        query = rng.standard_normal(d)
        scores = np.round(emb @ query, 1)  # ties likely after rounding

        def score_block(emb_block, _proj):
            return np.round(emb_block @ query, 1)[None, :]

        return emb, scores, score_block

    def test_screen_matches_argsort(self):
        emb, scores, fn = self._catalog_and_scores()
        catalog = ShardedEmbeddingCatalog(emb, block_size=13, num_shards=3)
        (indices, values), = catalog.screen(fn, 1, 10)
        expected = np.argsort(-scores, kind="stable")[:10]
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(values, scores[expected])

    def test_identical_across_shard_counts(self):
        emb, scores, fn = self._catalog_and_scores(seed=3)
        reference = None
        for num_shards in (1, 2, 4, 5, len(emb), len(emb) + 3):
            catalog = ShardedEmbeddingCatalog(emb, block_size=17,
                                              num_shards=num_shards)
            assert catalog.num_shards == min(num_shards, len(emb))
            (indices, values), = catalog.screen(fn, 1, 12)
            if reference is None:
                reference = (indices, values)
            np.testing.assert_array_equal(indices, reference[0])
            np.testing.assert_array_equal(values, reference[1])

    def test_exclusions_and_short_catalogs(self):
        emb, scores, fn = self._catalog_and_scores(seed=5, n=6)
        catalog = ShardedEmbeddingCatalog(emb, block_size=2, num_shards=2)
        exclude = np.array([0, 3])
        (indices, _), = catalog.screen(fn, 1, 10, exclude=exclude)
        assert set(indices.tolist()).isdisjoint({0, 3})
        assert len(indices) == 4  # fewer than top_k eligible -> fewer hits

    def test_int_list_exclude_is_shared_not_per_query(self):
        emb, scores, fn2 = self._catalog_and_scores(seed=9, n=12)

        def fn(emb_block, _proj):
            base = fn2(emb_block, _proj)
            return np.concatenate([base, base], axis=0)  # 2 queries

        catalog = ShardedEmbeddingCatalog(emb, block_size=5)
        results = catalog.screen(fn, 2, 12, exclude=[3, 5])
        for indices, _ in results:  # both rows excluded for BOTH queries
            assert set(indices.tolist()).isdisjoint({3, 5})

    def test_one_dim_score_fn_rejected_on_every_block(self):
        """A (block,)-shaped score fn must fail loudly on multi-block
        catalogs, not just when the catalog happens to fit one block."""
        emb = np.random.default_rng(0).standard_normal((10, 4))
        catalog = ShardedEmbeddingCatalog(emb, block_size=4)
        with pytest.raises(ValueError, match="expected"):
            catalog.screen(lambda e, _p: np.zeros(len(e)), 2, 3)
        # 1-D returns are still fine for a single query (atleast_2d).
        (indices, _), = catalog.screen(lambda e, _p: np.zeros(len(e)), 1, 3)
        np.testing.assert_array_equal(indices, [0, 1, 2])

    def test_default_shards_are_views(self):
        emb = np.arange(60, dtype=np.float64).reshape(20, 3)
        proj = {"p": emb * 2.0}
        catalog = ShardedEmbeddingCatalog(emb, proj, num_shards=3)
        for shard in catalog.shards:
            assert shard.embeddings.base is not None
            assert np.shares_memory(shard.embeddings, emb)
            assert np.shares_memory(shard.projections["p"], proj["p"])

    def test_mismatched_projection_rows_rejected(self):
        with pytest.raises(ValueError, match="projection"):
            ShardedEmbeddingCatalog(np.zeros((5, 2)),
                                    {"p": np.zeros((4, 2))})


# ---------------------------------------------------------------------------
# engine screening: bitwise invariance and legacy parity
# ---------------------------------------------------------------------------
class TestEngineParity:
    def test_engine_matches_legacy_ranking(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, block_size=7, num_shards=3)
        for symmetric in (False, True):
            hits = service.screen(4, top_k=8, symmetric=symmetric)
            legacy = _legacy_screen(service, model, 4, 8, symmetric=symmetric)
            assert [h.index for h in hits] == [j for j, _ in legacy]
            for hit, (_, prob) in zip(hits, legacy):
                # The dot kernel is bitwise the legacy op; the MLP split
                # kernel is the same real-valued function with a different
                # BLAS reduction order (ULP-level differences only).
                if model.config.decoder == "dot":
                    assert hit.probability == prob
                else:
                    assert hit.probability == pytest.approx(prob, abs=1e-12)

    def test_bitwise_invariant_to_block_and_shard_choices(self, setup):
        reference = None
        for block_size, num_shards in [(1024, 1), (1, 1), (7, 3), (16, 5),
                                       (1000, 4)]:
            service = _service(setup, block_size=block_size,
                               num_shards=num_shards)
            hits = service.screen(2, top_k=10)
            key = [(h.index, h.probability) for h in hits]
            if reference is None:
                reference = key
            assert key == reference, (block_size, num_shards)

    def test_engine_matches_single_block_reference(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, block_size=5, num_shards=4)
        reference = model.screen_probs(
            service.embeddings[3], model.candidate_projections(
                service.embeddings))[0]
        hits = service.screen(3, top_k=len(corpus))
        for hit in hits:
            assert hit.probability == reference[hit.index]

    def test_tied_probabilities_break_by_index(self, setup):
        corpus, _, model, _, builder = setup
        # Duplicate SMILES produce bitwise-identical embeddings, hence
        # exactly tied probabilities -> ties must resolve by ascending index.
        duplicated = corpus + [corpus[0], corpus[1], corpus[0]]
        service = DDIScreeningService(model, builder, duplicated,
                                      block_size=3, num_shards=2)
        hits = service.screen(5, top_k=len(duplicated))
        legacy = _legacy_screen(service, model, 5, len(duplicated))
        assert [h.index for h in hits] == [j for j, _ in legacy]

    def test_screen_batch_matches_individual_screens(self, setup):
        service = _service(setup, block_size=11, num_shards=2)
        queries = [0, 5, "drug_9", 17]
        batched = service.screen_batch(queries, top_k=6)
        assert len(batched) == len(queries)
        for query, hits in zip(queries, batched):
            single = service.screen(query, top_k=6)
            assert [(h.index, h.probability) for h in hits] == \
                [(h.index, h.probability) for h in single]

    def test_screen_batch_symmetric_and_exclude(self, setup):
        service = _service(setup, block_size=13)
        batched = service.screen_batch([1, 2], top_k=4, exclude=(3, "drug_0"),
                                       symmetric=True)
        for qi, hits in zip([1, 2], batched):
            single = service.screen(qi, top_k=4, exclude=(3, "drug_0"),
                                    symmetric=True)
            assert [(h.index, h.probability) for h in hits] == \
                [(h.index, h.probability) for h in single]
            assert {h.index for h in hits}.isdisjoint({0, 3, qi})

    def test_screen_batch_empty(self, setup):
        assert _service(setup).screen_batch([], top_k=3) == []

    def test_screen_smiles_rides_the_engine(self, setup):
        corpus, _, model, _, builder = setup
        new = _corpus(1, seed=101)[0]
        transient = _service(setup, block_size=9, num_shards=2)
        hits_transient = transient.screen_smiles(new, top_k=5)
        assert transient.num_drugs == len(corpus)
        registered = _service(setup)
        registered.register_drug(new, drug_id="q")
        hits_registered = registered.screen("q", top_k=5)
        assert [h.index for h in hits_transient] == \
            [h.index for h in hits_registered]
        for a, b in zip(hits_transient, hits_registered):
            assert a.probability == b.probability

    def test_engine_rebuilds_after_weight_update(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, block_size=8, num_shards=2)
        before = service.screen(1, top_k=5)
        original = model.encoder.node_embedding.data
        try:
            model.encoder.node_embedding.data = original + 0.05
            after = service.screen(1, top_k=5)
            legacy = _legacy_screen(service, model, 1, 5)
            assert [h.index for h in after] == [j for j, _ in legacy]
            assert [h.probability for h in before] != \
                [h.probability for h in after]
        finally:
            model.encoder.node_embedding.data = original

    def test_engine_sees_registered_drugs(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, block_size=6, num_shards=3)
        service.screen(0, top_k=3)  # build the engine for the base catalog
        index = service.register_drug(corpus[7], drug_id="twin_of_7")
        hits = service.screen(7, top_k=service.num_drugs)
        assert index in [h.index for h in hits]
        legacy = _legacy_screen(service, model, 7, service.num_drugs)
        assert [h.index for h in hits] == [j for j, _ in legacy]


class TestScreenEdgeCases:
    """Degenerate screening shapes the out-of-core tier must honor
    identically to the in-memory engine (see also the mmap round-trip
    parity tests in tests/test_serving_store.py)."""

    def test_top_k_zero(self, setup):
        service = _service(setup, block_size=4, num_shards=2)
        assert service.screen(0, top_k=0) == []
        assert service.screen_batch([1, 2], top_k=0) == [[], []]

    def test_top_k_exceeds_catalog(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, block_size=6, num_shards=3)
        hits = service.screen(4, top_k=10 * len(corpus))
        assert len(hits) == len(corpus) - 1  # everything except the query
        legacy = _legacy_screen(service, model, 4, len(corpus))
        assert [h.index for h in hits] == [j for j, _ in legacy]

    def test_single_drug_catalog(self, setup):
        corpus, _, model, _, builder = setup
        service = DDIScreeningService(model, builder, corpus[:1])
        assert service.screen(0, top_k=5) == []  # only itself, excluded
        pairs = service.score_pairs(np.array([[0, 0]]))
        assert pairs.shape == (1,)

    def test_every_candidate_excluded(self, setup):
        service = _service(setup, block_size=5, num_shards=2)
        everyone = tuple(range(service.num_drugs))
        assert service.screen(3, top_k=4, exclude=everyone) == []
        batched = service.screen_batch([0, 7], top_k=4, exclude=everyone)
        assert batched == [[], []]

    def test_edge_cases_survive_mmap_round_trip(self, setup, tmp_path):
        service = _service(setup, block_size=5, num_shards=2)
        service.save_shards(tmp_path / "store", num_shards=3)
        assert service.open_shards(tmp_path / "store")
        assert service.screen(0, top_k=0) == []
        everyone = tuple(range(service.num_drugs))
        assert service.screen(3, top_k=4, exclude=everyone) == []
        hits = service.screen(4, top_k=10 * service.num_drugs)
        assert len(hits) == service.num_drugs - 1


class TestApproximateMode:
    def test_dot_approx_with_full_oversample_matches_exact(self, setup):
        _, config, *_ = setup
        if config.decoder != "dot":
            pytest.skip("dot-decoder test: the inner-product prefilter")
        service = _service(setup, block_size=9, num_shards=2)
        exact = service.screen(3, top_k=5)
        approx = service.screen(3, top_k=5, approx=True,
                                approx_oversample=service.num_drugs)
        assert [(h.index, h.probability) for h in approx] == \
            [(h.index, h.probability) for h in exact]

    def test_dot_approx_default_oversample_finds_top(self, setup):
        _, config, *_ = setup
        if config.decoder != "dot":
            pytest.skip("dot-decoder test: the inner-product prefilter")
        service = _service(setup)
        exact = service.screen(6, top_k=3)
        approx = service.screen(6, top_k=3, approx=True)
        # The prefilter ranks by the same inner products (different BLAS
        # reduction); with 4x oversampling the true top-3 must survive.
        assert [h.index for h in approx] == [h.index for h in exact]
        for a, e in zip(approx, exact):
            assert a.probability == e.probability  # exact rerank

    def test_mlp_approx_with_full_oversample_matches_exact(self, setup):
        _, config, *_ = setup
        if config.decoder != "mlp":
            pytest.skip("sketch prefilter test targets the MLP decoder")
        service = _service(setup, block_size=9, num_shards=2)
        exact = service.screen(3, top_k=5)
        # Full oversampling shortlists the entire catalog, so the sketch
        # surrogate cannot drop anyone and the exact rerank must reproduce
        # exact mode bitwise.
        approx = service.screen(3, top_k=5, approx=True,
                                approx_oversample=service.num_drugs)
        assert [(h.index, h.probability) for h in approx] == \
            [(h.index, h.probability) for h in exact]

    def test_mlp_approx_symmetric_reranks_two_sided(self, setup):
        _, config, *_ = setup
        if config.decoder != "mlp":
            pytest.skip("sketch prefilter test targets the MLP decoder")
        service = _service(setup)
        exact = service.screen(5, top_k=4, symmetric=True)
        approx = service.screen(5, top_k=4, symmetric=True, approx=True,
                                approx_oversample=service.num_drugs)
        # Shortlisting is forward-orientation only, but the rerank averages
        # both orientations like exact mode does.
        assert [(h.index, h.probability) for h in approx] == \
            [(h.index, h.probability) for h in exact]

    def test_bad_oversample_rejected(self, setup):
        with pytest.raises(ValueError, match="approx_oversample"):
            _service(setup).screen(0, top_k=3, approx=True,
                                   approx_oversample=0)

    def test_score_rows_matches_score_block_bitwise(self, setup):
        """The gather-rerank kernel reports exactly the exact-mode logits
        for the same pairs, in both orientations."""
        _, config, model, *_ = setup
        decoder = model.decoder
        kernel = make_screen_kernel(decoder)
        rng = np.random.default_rng(8)
        emb = rng.standard_normal((50, config.embed_dim))
        cand = decoder.candidate_projections(emb)
        query_proj = decoder.project_queries(
            emb[:4], sides=("as_left", "as_right"))
        rows = rng.integers(0, 50, size=(4, 13))
        gathered = {name: value[rows] for name, value in cand.items()}
        for reverse in (False, True):
            full = kernel.score_block(query_proj, cand, reverse=reverse)
            np.testing.assert_array_equal(
                kernel.score_rows(query_proj, gathered, reverse=reverse),
                np.take_along_axis(full, rows, axis=1))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_score_rows_ignore_padding(self, setup, dtype):
        """A row's logit does not depend on how many rows share its gather,
        so padding shortlists to a common length changes no bits."""
        _, config, *_ = setup
        rng = np.random.default_rng(9)
        decoder = make_decoder(config.decoder, 32, 128, rng)
        kernel = make_screen_kernel(decoder)
        emb = rng.standard_normal((300, 32)).astype(dtype)
        cand = decoder.candidate_projections(emb)
        query_proj = decoder.project_queries(emb[:3], sides=("as_left",))
        rows = rng.integers(0, 300, size=(3, 57))
        full = kernel.score_rows(
            query_proj, {name: value[rows] for name, value in cand.items()})
        assert full.dtype == dtype
        for cut in (1, 4, 13, 30, 56):
            part = kernel.score_rows(query_proj, {
                name: value[rows[:, :cut]] for name, value in cand.items()})
            np.testing.assert_array_equal(part, full[:, :cut])

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_mixed_batches_rerank_like_single_queries(self, setup,
                                                      precision):
        """A batch mixing budgets, excludes and shortlist lengths (zero
        included) reranks every query bitwise as if it were screened
        alone, with and without symmetric scoring."""
        service = _service(setup, block_size=9, num_shards=2,
                           precision=precision)
        n = service.num_drugs
        rng = np.random.default_rng(21)
        for _ in range(12):
            queries = [int(q) for q in rng.integers(0, n, rng.integers(1, 5))]
            top_ks = [int(rng.choice([0, 5, 10, 20])) for _ in queries]
            excludes = [tuple(int(e) for e in rng.choice(
                n, int(rng.choice([0, 3, n])), replace=False))
                for _ in queries]
            symmetric = bool(rng.integers(2))
            batch = service.screen_batch(queries, top_k=top_ks,
                                         exclude=excludes,
                                         symmetric=symmetric, approx=True)
            for query, top_k, exclude, hits in zip(queries, top_ks,
                                                   excludes, batch):
                alone = service.screen(query, top_k=top_k, exclude=exclude,
                                       symmetric=symmetric, approx=True)
                assert [(h.index, h.probability) for h in hits] == \
                    [(h.index, h.probability) for h in alone]


# ---------------------------------------------------------------------------
# vectorized lookups and validation messages
# ---------------------------------------------------------------------------
class TestVectorizedLookups:
    def test_score_id_pairs_matches_index_pairs(self, setup):
        service = _service(setup)
        id_pairs = [("drug_0", "drug_3"), ("drug_7", "drug_1"),
                    ("drug_19", "drug_19")]
        np.testing.assert_array_equal(
            service.score_id_pairs(id_pairs),
            service.score_pairs(np.array([[0, 3], [7, 1], [19, 19]])))

    def test_score_id_pairs_empty(self, setup):
        assert len(_service(setup).score_id_pairs([])) == 0

    def test_score_id_pairs_after_registration(self, setup):
        corpus, *_ = setup
        service = _service(setup)
        service.score_id_pairs([("drug_0", "drug_1")])  # build the table
        index = service.register_drug(corpus[0], drug_id="zz_late")
        scores = service.score_id_pairs([("zz_late", "drug_2")])
        np.testing.assert_array_equal(
            scores, service.score_pairs(np.array([[index, 2]])))

    def test_unknown_id_names_pair_position(self, setup):
        service = _service(setup)
        with pytest.raises(KeyError, match=r"'nope'.*pair 1"):
            service.score_id_pairs([("drug_0", "drug_1"),
                                    ("nope", "drug_2")])

    def test_check_pairs_reports_offending_index(self, setup):
        service = _service(setup)
        n = service.num_drugs
        with pytest.raises(IndexError, match=rf"pair 1, position 0.*{n}"):
            service.score_pairs(np.array([[0, 1], [n, 2]]))
        with pytest.raises(IndexError, match="pair 0, position 1.*-4"):
            service.score_pairs(np.array([[0, -4]]))


# ---------------------------------------------------------------------------
# persistence of the precomputed projections
# ---------------------------------------------------------------------------
class TestProjectionPersistence:
    def test_dot_projections_alias_embeddings(self, setup):
        """The dot decoder's identity 'projection' must never duplicate the
        embedding matrix — not in memory, not on append.  (On disk:
        ``TestShardStore::test_alias_projection_not_written_twice``.)"""
        corpus, config, _, _, _ = setup
        if config.decoder != "dot":
            pytest.skip("aliasing applies to the dot decoder")
        service = _service(setup)
        service.screen(0, top_k=2)
        assert service._cache.projections["emb"] is service._cache.embeddings
        service.register_drug(corpus[1], drug_id="alias-check")
        assert service._cache.projections["emb"] is service._cache.embeddings

    def test_registration_appends_projection_rows(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup)
        service.screen(0, top_k=2)
        index = service.register_drug(corpus[3], drug_id="extra")
        projections = service._cache.projections
        assert all(len(matrix) == service.num_drugs
                   for matrix in projections.values())
        recomputed = model.candidate_projections(service.embeddings)
        for name in recomputed:
            np.testing.assert_allclose(projections[name], recomputed[name],
                                       rtol=0, atol=1e-12)
        assert index == len(corpus)


class TestServiceValidation:
    def test_bad_engine_knobs_rejected(self, setup):
        corpus, _, model, _, builder = setup
        with pytest.raises(ValueError, match="block_size"):
            DDIScreeningService(model, builder, corpus, block_size=0)
        with pytest.raises(ValueError, match="num_shards"):
            DDIScreeningService(model, builder, corpus, num_shards=0)

    def test_more_shards_than_drugs(self, setup):
        corpus, _, model, _, _ = setup
        service = _service(setup, num_shards=len(corpus) + 25, block_size=1)
        legacy = _legacy_screen(service, model, 0, 5)
        hits = service.screen(0, top_k=5)
        assert [h.index for h in hits] == [j for j, _ in legacy]
