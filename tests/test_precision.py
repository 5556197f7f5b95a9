"""Precision-tier tests: dtype stability of the serving kernels, the MLP
sketch prefilter, and artifact isolation between tiers.

The contracts pinned here back the two speed/accuracy dials of the
screening service (``precision="float32"``, ``approx=True``): float32
inputs must flow through scoring and top-k selection without silently
widening, the sketch shortlist must keep the exact top-k, and float32
artifacts must never validate against float64 services.
"""

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.nn import functional as F
from repro.serving import (CatalogShard, DDIScreeningService, merge_top_k,
                           rank_agreement, recall_at_k, resolve_precision)
from repro.serving.shards import screen_shard

DTYPES = [np.float32, np.float64]


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


def _screen_scores(scores, k, block_size):
    """``screen_shard`` over a 1-D score row as one contiguous shard."""
    n = len(scores)
    shard = CatalogShard(indices=np.arange(n, dtype=np.int64),
                         embeddings=np.zeros((n, 0)),
                         projections={"col": np.arange(n)})
    return screen_shard(shard, block_size,
                        lambda _emb, proj: scores[None, proj["col"]],
                        1, [k])[0]


# ---------------------------------------------------------------------------
# dtype stability of the scoring / selection primitives
# ---------------------------------------------------------------------------
class TestDtypeStability:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_stable_sigmoid_preserves_dtype(self, dtype):
        z = np.linspace(-40, 40, 17, dtype=dtype)
        probs = F.stable_sigmoid(z)
        assert probs.dtype == dtype
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_screen_shard_preserves_dtype(self, dtype):
        rng = np.random.default_rng(0)
        indices, scores = _screen_scores(rng.random(40).astype(dtype), 5,
                                         block_size=8)
        assert scores.dtype == dtype
        assert len(indices) == 5

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_merge_top_k_preserves_dtype(self, dtype):
        shards = [(np.array([0, 1]), np.array([0.9, 0.1], dtype=dtype)),
                  (np.array([2, 3]), np.array([0.5, 0.4], dtype=dtype))]
        _, scores = merge_top_k(shards, 3)
        assert scores.dtype == dtype

    def test_top_k_accepts_integer_scores(self):
        # Integer score blocks promote to float64.
        indices, scores = _screen_scores(
            np.array([3, 1, 2], dtype=np.int32), 2, block_size=3)
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(indices, [0, 2])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_score_block_preserves_dtype(self, setup, dtype):
        _, config, model, *_ = setup
        decoder = model.decoder
        rng = np.random.default_rng(7)
        emb = rng.standard_normal((12, config.embed_dim)).astype(dtype)
        cand_proj = decoder.candidate_projections(emb)
        query_proj = decoder.project_queries(emb[:3], sides=("as_left",))
        scores = decoder.score_block(query_proj, cand_proj)
        assert scores.shape == (3, 12)
        assert scores.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_float32_scores_match_float64_closely(self, setup, dtype):
        if dtype != np.float32:
            pytest.skip("comparison runs once, against the float64 path")
        _, config, model, *_ = setup
        decoder = model.decoder
        rng = np.random.default_rng(7)
        emb64 = rng.standard_normal((12, config.embed_dim))
        ref = decoder.score_block(
            decoder.project_queries(emb64[:3], sides=("as_left",)),
            decoder.candidate_projections(emb64))
        emb32 = emb64.astype(np.float32)
        got = decoder.score_block(
            decoder.project_queries(emb32[:3], sides=("as_left",)),
            decoder.candidate_projections(emb32))
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)


class TestResolvePrecision:
    def test_known_precisions(self):
        assert resolve_precision("float64") == np.float64
        assert resolve_precision("float32") == np.float32

    @pytest.mark.parametrize("bad", ["float16", "int8", "double", ""])
    def test_unknown_precision_rejected(self, bad):
        with pytest.raises(ValueError, match="precision"):
            resolve_precision(bad)

    def test_service_rejects_unknown_precision(self, setup):
        with pytest.raises(ValueError, match="precision"):
            _service(setup, precision="float16")

    def test_service_reports_precision(self, setup):
        assert _service(setup).precision == "float64"
        service = _service(setup, precision="float32")
        assert service.precision == "float32"
        assert service.embeddings.dtype == np.float32


# ---------------------------------------------------------------------------
# the MLP sketch prefilter
# ---------------------------------------------------------------------------
class TestSketchPrefilter:
    def test_shortlist_keeps_exact_topk(self, setup):
        _, config, *_ = setup
        if config.decoder != "mlp":
            pytest.skip("sketch prefilter targets the MLP decoder")
        service = _service(setup, block_size=9, num_shards=2)
        hits = 0.0
        for query in range(0, service.num_drugs, 5):
            exact = service.screen(query, top_k=5)
            approx = service.screen(query, top_k=5, approx=True,
                                    approx_oversample=8)
            hits += recall_at_k([h.index for h in exact],
                                [h.index for h in approx])
        assert hits / len(range(0, service.num_drugs, 5)) >= 0.9

    def test_approx_after_registration_still_screens(self, setup):
        corpus, config, model, _, builder = setup
        if config.decoder != "mlp":
            pytest.skip("sketch prefilter targets the MLP decoder")
        service = DDIScreeningService(model, builder, corpus[:30])
        service.screen(0, top_k=3, approx=True)  # builds the sketch
        service.register_drugs(corpus[30:])
        hits = service.screen(0, top_k=3, approx=True)
        assert len(hits) == 3
        # The append reused the existing factors — the sketch was never
        # dropped and recomputed from scratch.
        assert service._cache.sketch_factors is not None


# ---------------------------------------------------------------------------
# precision in artifact validation
# ---------------------------------------------------------------------------
class TestArtifactIsolation:
    def test_float32_store_never_attaches_to_float64_service(
            self, setup, tmp_path):
        low = _service(setup, precision="float32")
        manifest = low.save_shards(tmp_path / "store")
        exact = _service(setup)
        assert not exact.open_shards(manifest)
        with pytest.raises(ValueError, match="fingerprint"):
            exact.open_shards(manifest, strict=True)
        assert low.open_shards(manifest, strict=True)
        # ... and the reverse direction.
        exact_manifest = exact.save_shards(tmp_path / "exact")
        assert not low.open_shards(exact_manifest)
        with pytest.raises(ValueError, match="fingerprint"):
            low.open_shards(exact_manifest, strict=True)


# ---------------------------------------------------------------------------
# gate helpers
# ---------------------------------------------------------------------------
class TestGateHelpers:
    def test_rank_agreement_is_set_overlap(self):
        assert rank_agreement([1, 2, 3], [3, 2, 1]) == 1.0
        assert rank_agreement([1, 2, 3, 4], [1, 2, 9, 8]) == 0.5
        assert rank_agreement([], []) == 1.0

    def test_recall_at_k_truncates(self):
        assert recall_at_k([1, 2, 3, 4], [1, 2, 9, 8], k=2) == 1.0
        assert recall_at_k([1, 2], [2, 1]) == 1.0
