"""End-to-end integration tests across module boundaries.

These exercise the same pipelines the experiments run, at tiny scale:
dataset generation → hypergraph → training → evaluation → persistence.
"""

import os

import numpy as np
import pytest

from repro.core import HyGNN, HyGNNConfig, Trainer, train_hygnn
from repro.core.serialize import load_model, save_model
from repro.data import (balanced_pairs_and_labels, cold_start_split,
                        load_benchmark, load_dataset, random_split)
from repro.hypergraph import DrugHypergraphBuilder
from repro.metrics import roc_auc_score


@pytest.fixture(scope="module")
def tiny_run():
    """One trained model shared by the read-only integration tests."""
    dataset = load_dataset("twosides", scale=0.06, seed=0)
    pairs, labels = balanced_pairs_and_labels(dataset, seed=0)
    split = random_split(len(pairs), seed=0)
    config = HyGNNConfig(method="kmer", parameter=5, epochs=120, patience=30,
                         embed_dim=32, hidden_dim=32)
    model, hypergraph, history, summary = train_hygnn(
        dataset.smiles, pairs, labels, split, config)
    return dataset, pairs, labels, split, config, model, hypergraph, summary


class TestFullPipeline:
    def test_learns_above_chance(self, tiny_run):
        *_, summary = tiny_run
        assert summary.roc_auc > 65.0

    def test_probabilities_valid(self, tiny_run):
        dataset, pairs, _, split, _, model, hypergraph, _ = tiny_run
        probs = model.predict_proba(hypergraph, pairs[split.test])
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.isfinite(probs).all()

    def test_symmetric_pairs_score_identically_with_dot(self):
        """Dot decoder is order-invariant: score(x,y) == score(y,x)."""
        dataset = load_dataset("twosides", scale=0.06, seed=0)
        config = HyGNNConfig(method="kmer", parameter=5, decoder="dot",
                             epochs=2, embed_dim=16, hidden_dim=16)
        model, hypergraph, _ = HyGNN.for_corpus(dataset.smiles, config)
        pairs = np.array([[0, 1], [2, 3]])
        flipped = pairs[:, ::-1].copy()
        np.testing.assert_allclose(model.predict_proba(hypergraph, pairs),
                                   model.predict_proba(hypergraph, flipped))

    def test_training_is_deterministic_across_processes(self, tiny_run):
        dataset, pairs, labels, split, config, _, _, summary = tiny_run
        _, _, _, summary2 = train_hygnn(dataset.smiles, pairs, labels,
                                        split, config)
        assert summary == summary2

    def test_attention_is_probability_per_drug(self, tiny_run):
        *_, model, hypergraph, _ = tiny_run
        weights = model.encoder.substructure_attention(hypergraph)
        for edge in range(min(hypergraph.num_edges, 10)):
            mask = hypergraph.edge_ids == edge
            if mask.any():
                assert weights[mask].sum() == pytest.approx(1.0)


class TestColdStartPipeline:
    def test_unseen_drugs_scored_from_structure(self):
        dataset = load_dataset("twosides", scale=0.08, seed=1)
        pairs, labels = balanced_pairs_and_labels(dataset, seed=1)
        split, unseen = cold_start_split(pairs, dataset.num_drugs, seed=1)
        unseen_set = set(unseen.tolist())
        config = HyGNNConfig(method="kmer", parameter=5, epochs=120,
                             patience=30, embed_dim=32, hidden_dim=32)
        builder = DrugHypergraphBuilder(method=config.method,
                                        parameter=config.parameter)
        builder.fit([d.smiles for i, d in enumerate(dataset.drugs)
                     if i not in unseen_set])
        hypergraph = builder.transform(dataset.smiles)
        model = HyGNN(num_substructures=builder.num_nodes, config=config)
        trainer = Trainer(model, config)
        trainer.fit(hypergraph, pairs, labels, split)
        scores = model.predict_proba(hypergraph, pairs[split.test])
        assert roc_auc_score(labels[split.test], scores) > 0.6


class TestPersistence:
    @pytest.mark.parametrize("method,parameter", [("kmer", 5), ("espf", 5)])
    def test_roundtrip_preserves_predictions(self, tmp_path, method,
                                             parameter):
        dataset = load_dataset("twosides", scale=0.06, seed=0)
        pairs, _ = balanced_pairs_and_labels(dataset, seed=0)
        config = HyGNNConfig(method=method, parameter=parameter, epochs=3,
                             embed_dim=16, hidden_dim=16)
        model, hypergraph, builder = HyGNN.for_corpus(dataset.smiles, config)
        before = model.predict_proba(hypergraph, pairs[:25])

        path = tmp_path / "model.npz"
        save_model(path, model, builder)
        restored_model, restored_builder = load_model(path)
        restored_hg = restored_builder.transform(dataset.smiles)
        after = restored_model.predict_proba(restored_hg, pairs[:25])
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_roundtrip_preserves_config(self, tmp_path):
        dataset = load_dataset("twosides", scale=0.06, seed=0)
        config = HyGNNConfig(method="kmer", parameter=7, decoder="dot",
                             epochs=2, embed_dim=16, hidden_dim=16)
        model, _, builder = HyGNN.for_corpus(dataset.smiles, config)
        path = tmp_path / "model.npz"
        save_model(path, model, builder)
        restored, restored_builder = load_model(path)
        assert restored.config == config
        assert restored_builder.parameter == 7

    def test_restored_builder_tokenizes_new_drugs(self, tmp_path):
        dataset = load_dataset("twosides", scale=0.06, seed=0)
        config = HyGNNConfig(method="espf", parameter=5, epochs=2,
                             embed_dim=16, hidden_dim=16)
        model, _, builder = HyGNN.for_corpus(dataset.smiles, config)
        path = tmp_path / "model.npz"
        save_model(path, model, builder)
        _, restored_builder = load_model(path)
        novel = "CCOc1ccccc1N"
        assert (restored_builder.drug_token_sets([novel])
                == builder.drug_token_sets([novel]))

    def test_load_never_unpickles(self, tmp_path):
        """Format 1 kept the vocabulary in pickled object arrays: such an
        archive is refused before any object in it is unpickled."""
        import json
        from dataclasses import asdict

        class Unpickles:
            def __reduce__(self):  # unpickling creates ``marker``
                return open, (str(marker), "w")

        dataset = load_dataset("twosides", scale=0.06, seed=0)
        config = HyGNNConfig(method="kmer", parameter=5, epochs=1,
                             embed_dim=16, hidden_dim=16)
        model, _, builder = HyGNN.for_corpus(dataset.smiles, config)
        marker, path = tmp_path / "unpickled", tmp_path / "model.npz"
        meta = {"format_version": 1, "config": asdict(model.config),
                "builder": {"method": "kmer", "parameter": 5},
                "num_substructures": model.encoder.num_substructures}
        vocab = builder.vocabulary
        tokens = np.array([Unpickles(), *list(vocab)[1:]], dtype=object)
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                              dtype=np.uint8),
                 vocab_tokens=tokens,
                 vocab_indices=np.array(list(vocab.values())),
                 espf_merges=np.array([], dtype=object),
                 **{f"param:{name}": value
                    for name, value in model.state_dict().items()})
        with pytest.raises(ValueError, match="format 1"):
            load_model(path)
        assert not marker.exists()

    def test_load_rejects_future_format(self, tmp_path):
        import json
        path = tmp_path / "bad.npz"
        meta = np.frombuffer(json.dumps(
            {"format_version": 999}).encode(), dtype=np.uint8)
        np.savez(path, __meta__=meta)
        with pytest.raises(ValueError):
            load_model(path)


class TestCrossDatasetConsistency:
    def test_shared_drugs_have_identical_smiles(self):
        benchmark = load_benchmark(scale=0.07, seed=0)
        ts, db = benchmark.twosides, benchmark.drugbank
        for local, uni in enumerate(ts.universe_indices):
            assert ts.drugs[local].smiles == db.drugs[uni].smiles

    def test_model_trained_on_one_corpus_scores_other(self):
        """Transfer sanity: a TWOSIDES-trained model ranks DrugBank pairs
        (restricted to shared drugs) above chance."""
        benchmark = load_benchmark(scale=0.08, seed=0)
        ts, db = benchmark.twosides, benchmark.drugbank
        pairs, labels = balanced_pairs_and_labels(ts, seed=0)
        split = random_split(len(pairs), seed=0)
        config = HyGNNConfig(method="kmer", parameter=5, epochs=120,
                             patience=30, embed_dim=32, hidden_dim=32)
        model, hypergraph, _, _ = train_hygnn(ts.smiles, pairs, labels,
                                              split, config)
        # Build an eval set from DrugBank labels over TWOSIDES drugs.
        ts_map = {int(u): i for i, u in enumerate(ts.universe_indices)}
        eval_pairs, eval_labels = [], []
        rng = np.random.default_rng(0)
        for i, j in db.positive_pairs[:400]:
            if int(i) in ts_map and int(j) in ts_map:
                eval_pairs.append((ts_map[int(i)], ts_map[int(j)]))
                eval_labels.append(1.0)
        n_pos = len(eval_pairs)
        while len(eval_pairs) < 2 * n_pos:
            a, b = rng.integers(ts.num_drugs, size=2)
            if a != b and not ts.is_positive(int(a), int(b)):
                eval_pairs.append((int(a), int(b)))
                eval_labels.append(0.0)
        scores = model.predict_proba(hypergraph, np.array(eval_pairs))
        assert roc_auc_score(np.array(eval_labels), scores) > 0.6
