"""Precision-tier tests: dtype stability of the serving kernels, int8
quantization invariants, the MLP sketch prefilter, and manifest hygiene.

The contracts pinned here back the three speed/accuracy dials of the
screening service (``precision="float32"``, ``approx=True``,
``quantize="int8"``): float32 inputs must flow through scoring and top-k
selection without silently widening, int8 round-trips must stay inside
half a column scale, the sketch shortlist must keep the exact top-k, and
low-precision artifacts must never validate against exact-tier services.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.nn import functional as F
from repro.serving import (DDIScreeningService, ShardStore, TopKAccumulator,
                           dequantize_int8, merge_top_k, quantize_int8,
                           rank_agreement, recall_at_k, resolve_precision,
                           top_k_desc)

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
    def test_topk_accumulator_preserves_dtype(self, dtype):
        rng = np.random.default_rng(0)
        acc = TopKAccumulator(5)
        for start in range(0, 40, 8):
            block = rng.random(8).astype(dtype)
            acc.update(block, np.arange(start, start + 8, dtype=np.int64))
        indices, scores = acc.result()
        assert scores.dtype == dtype
        assert len(indices) == 5

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_merge_top_k_preserves_dtype(self, dtype):
        shards = [(np.array([0, 1]), np.array([0.9, 0.1], dtype=dtype)),
                  (np.array([2, 3]), np.array([0.5, 0.4], dtype=dtype))]
        _, scores = merge_top_k(shards, 3)
        assert scores.dtype == dtype

    def test_top_k_accepts_integer_scores(self):
        # Integer blocks (quantized paths, tests) promote to float64.
        acc = TopKAccumulator(2)
        acc.update(np.array([3, 1, 2], dtype=np.int32),
                   np.arange(3, dtype=np.int64))
        _, scores = acc.result()
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(top_k_desc(np.array([3, 1, 2]), 2),
                                      [0, 2])

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
# int8 quantization invariants
# ---------------------------------------------------------------------------
finite_matrices = st.tuples(
    st.integers(1, 12), st.integers(1, 6), st.integers(0, 2 ** 31 - 1),
    st.floats(1e-6, 1e6),
).map(lambda spec: np.random.default_rng(spec[2]).uniform(
    -spec[3], spec[3], size=(spec[0], spec[1])))


class TestInt8Quantization:
    @settings(max_examples=60, deadline=None)
    @given(matrix=finite_matrices)
    def test_round_trip_error_within_half_scale(self, matrix):
        codes, scales = quantize_int8(matrix)
        assert codes.dtype == np.int8
        assert scales.shape == (matrix.shape[1],)
        restored = dequantize_int8(codes, scales, dtype=np.float64)
        error = np.abs(restored - matrix)
        # Nearest-code rounding: every entry reconstructs within half its
        # column's scale (tiny slack for the float64 divide/multiply).
        bound = scales / 2 + 1e-9 * np.maximum(np.abs(matrix), 1.0)
        assert np.all(error <= bound)

    def test_zero_columns_get_unit_scale(self):
        matrix = np.zeros((5, 3))
        matrix[:, 1] = np.linspace(-2, 2, 5)
        codes, scales = quantize_int8(matrix)
        assert scales[0] == 1.0 and scales[2] == 1.0
        assert np.all(codes[:, [0, 2]] == 0)
        assert codes[:, 1].max() == 127 and codes[:, 1].min() == -127

    def test_dequantize_default_dtype_is_float32(self):
        codes, scales = quantize_int8(np.ones((2, 2)))
        assert dequantize_int8(codes, scales).dtype == np.float32

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_int8(np.arange(5.0))


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
# precision / quantization in artifact validation
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

    def test_quantized_store_serves_approx_and_falls_back_exact(
            self, setup, tmp_path):
        service = _service(setup, block_size=7, num_shards=3)
        reference = service.screen(2, top_k=6)
        manifest = service.save_shards(tmp_path / "q8", quantize="int8")
        store = ShardStore(manifest)
        assert store.is_quantized and store.quantization == "int8"
        assert service.open_shards(manifest, strict=True)
        # Exact mode ignores the int8 pages and reproduces the in-memory
        # screen bitwise.
        fallback = service.screen(2, top_k=6)
        assert [(h.index, h.probability) for h in fallback] == \
            [(h.index, h.probability) for h in reference]
        # Approximate mode prefilters on the store and exact-reranks.
        approx = service.screen(2, top_k=6, approx=True,
                                approx_oversample=service.num_drugs)
        assert [(h.index, h.probability) for h in approx] == \
            [(h.index, h.probability) for h in reference]

    def test_quantized_store_is_much_smaller(self, setup, tmp_path):
        service = _service(setup)
        exact = ShardStore(service.save_shards(tmp_path / "exact"))
        quantized = ShardStore(
            service.save_shards(tmp_path / "q8", quantize="int8"))
        assert quantized.nbytes() <= exact.nbytes() / 6


# ---------------------------------------------------------------------------
# malformed quantization manifests
# ---------------------------------------------------------------------------
def _corrupt(manifest_path, mutate):
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _drop_scheme(manifest):
    manifest["quantization"]["scheme"] = "int3"


def _drop_embedding_scales(manifest):
    del manifest["quantization"]["scales"]["embeddings"]


def _wrong_scale_width(manifest):
    manifest["quantization"]["scales"]["embeddings"] = [1.0, 2.0]


def _drop_projection_scales(manifest):
    manifest["quantization"]["scales"]["projections"] = {}


def _non_mapping(manifest):
    manifest["quantization"] = "int8"


class TestMalformedQuantizationManifest:
    MUTATIONS = [_drop_scheme, _drop_embedding_scales, _wrong_scale_width,
                 _non_mapping]

    @pytest.mark.parametrize("mutate", MUTATIONS,
                             ids=lambda m: m.__name__.lstrip("_"))
    def test_open_is_best_effort_unless_strict(self, setup, tmp_path, mutate):
        service = _service(setup)
        manifest = service.save_shards(tmp_path / "q8", quantize="int8")
        _corrupt(manifest, mutate)
        with pytest.raises(ValueError, match="malformed manifest"):
            ShardStore(manifest)
        fresh = _service(setup)
        assert not fresh.open_shards(manifest)  # tolerated: no attach
        with pytest.raises(ValueError, match="malformed manifest"):
            fresh.open_shards(manifest, strict=True)

    def test_missing_projection_scales_rejected(self, setup, tmp_path):
        _, config, *_ = setup
        if config.decoder != "mlp":
            pytest.skip("the dot store's only projection aliases the "
                        "embeddings, which need no separate scales")
        service = _service(setup)
        manifest = service.save_shards(tmp_path / "q8", quantize="int8")
        _corrupt(manifest, _drop_projection_scales)
        with pytest.raises(ValueError, match="malformed manifest"):
            ShardStore(manifest)
        assert not _service(setup).open_shards(manifest)

    def test_unquantized_store_has_no_scales(self, setup, tmp_path):
        service = _service(setup)
        store = ShardStore(service.save_shards(tmp_path / "exact"))
        assert not store.is_quantized
        assert store.quantization is None
        with pytest.raises(ValueError, match="not quantized"):
            store.scales()


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
