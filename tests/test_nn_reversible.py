"""Recompute-in-backward checkpointing and the reversible HyGNN encoder.

Covers the three layers of the memory-lean training stack:

- ``repro.nn.functional.invertible_checkpoint`` — the registry op whose
  forward frees its input and whose backward reconstructs it via the
  recorded inverse before replaying the subgraph with gradients;
- ``ReversibleHyGNNEncoder`` — coupled residual attention halves whose
  checkpointed forward is bitwise-identical to the stored-activation walk,
  with the frozen-context serving split intact;
- the per-batch trainer mode (``step_per_batch``) that steps the decoder
  every mini-batch against a staleness-bounded encoder snapshot.
"""

import numpy as np
import pytest

from repro.core import (HyGNN, HyGNNConfig, HyGNNEncoder,
                        ReversibleHyGNNEncoder, Trainer)
from repro.core.encoder import EncoderContext
from repro.data import random_split
from repro.hypergraph import Hypergraph
from repro.nn import Tape, Tensor, bce_with_logits
from repro.nn import functional as F


def _coupling_pair(w1, w2, half):
    """A tiny additive coupling and its exact inverse over plain matmuls."""

    def fn(x):
        x1, x2 = x[:, :half], x[:, half:]
        y1 = x1 + x2 @ w1
        y2 = x2 + F.tanh(y1) @ w2
        return F.concat([y1, y2], axis=1)

    def fn_inverse(y):
        y1, y2 = y[:, :half], y[:, half:]
        x2 = y2 - F.tanh(y1) @ w2
        x1 = y1 - x2 @ w1
        return F.concat([x1, x2], axis=1)

    return fn, fn_inverse


def _make_hypergraph(num_nodes=12, num_edges=8, extra=30, seed=3):
    rng = np.random.default_rng(seed)
    node_ids = np.concatenate([rng.integers(0, num_nodes, size=extra),
                               rng.integers(0, num_nodes, size=num_edges)])
    edge_ids = np.concatenate([rng.integers(0, num_edges, size=extra),
                               np.arange(num_edges)])
    return Hypergraph(num_nodes, num_edges, node_ids, edge_ids)


def _make_encoder(hidden_dim=8, num_layers=3, seed=9, num_heads=1):
    return ReversibleHyGNNEncoder(
        num_substructures=12, embed_dim=6, hidden_dim=hidden_dim,
        rng=np.random.default_rng(seed), num_layers=num_layers,
        dropout=0.0, num_heads=num_heads)


# ---------------------------------------------------------------------------
# The checkpoint op
# ---------------------------------------------------------------------------

class TestInvertibleCheckpoint:
    HALF = 2

    def _setup(self, rng, rows=5):
        w1 = Tensor(rng.normal(size=(self.HALF, self.HALF)),
                    requires_grad=True)
        w2 = Tensor(rng.normal(size=(self.HALF, self.HALF)),
                    requires_grad=True)
        x0 = Tensor(rng.normal(size=(rows, 2 * self.HALF)),
                    requires_grad=True)
        fn, fn_inverse = _coupling_pair(w1, w2, self.HALF)
        return w1, w2, x0, fn, fn_inverse

    def test_forward_matches_stored_composition_bitwise(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)
        stored = fn(x0)
        ckpt = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
        np.testing.assert_array_equal(ckpt.numpy(), stored.numpy())

    def test_gradients_match_stored_composition(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)
        # Chain two checkpoints so the second input is an intermediate that
        # actually gets freed and reconstructed.
        mid = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
        loss = (F.invertible_checkpoint(fn, fn_inverse, mid, (w1, w2))
                ** 2).sum()
        loss.backward()
        ckpt_grads = [t.grad.copy() for t in (x0, w1, w2)]
        for t in (x0, w1, w2):
            t.grad = None
        (fn(fn(x0)) ** 2).sum().backward()
        for got, ref in zip(ckpt_grads, (x0, w1, w2)):
            np.testing.assert_allclose(got, ref.grad, rtol=1e-9, atol=1e-12)

    def test_intermediate_input_freed_then_restored(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)
        mid = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
        original = mid.data.copy()
        out = F.invertible_checkpoint(fn, fn_inverse, mid, (w1, w2))
        assert mid.data.size == 0  # freed by the second checkpoint forward
        out.sum().backward()
        assert mid.data.shape == original.shape  # reconstructed in backward
        # Reconstruction round-off is the only permitted divergence.
        np.testing.assert_allclose(mid.data, original, rtol=1e-9, atol=1e-12)

    def test_leaf_input_is_never_freed(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)
        out = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2),
                                      free_input=True)
        assert x0.data.size > 0  # leaves are user-owned state
        out.sum().backward()
        assert x0.grad is not None

    def test_inverse_shape_mismatch_raises(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)

        def bad_inverse(y):
            return fn_inverse(y)[:-1]

        mid = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
        out = F.invertible_checkpoint(fn, bad_inverse, mid, (w1, w2))
        with pytest.raises(ValueError, match="fn_inverse produced shape"):
            out.sum().backward()

    def test_rejects_non_tensor_params(self, rng):
        _, _, x0, fn, fn_inverse = self._setup(rng)
        with pytest.raises(TypeError):
            F.invertible_checkpoint(fn, fn_inverse, x0,
                                    (np.zeros((2, 2)),))

    def test_rejects_non_tensor_fn_result(self, rng):
        _, _, x0, _, fn_inverse = self._setup(rng)
        with pytest.raises(TypeError):
            F.invertible_checkpoint(lambda x: x.numpy(), fn_inverse, x0)

    def test_taped_replay_is_bitwise_reproducible(self, rng):
        w1, w2, x0, fn, fn_inverse = self._setup(rng)

        def build():
            mid = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
            out = F.invertible_checkpoint(fn, fn_inverse, mid, (w1, w2))
            return (out ** 2).sum()

        tape = Tape.record(build)

        def epoch():
            tape.forward()
            root = tape.root.item()
            tape.backward()
            return root, [t.grad.copy() for t in (x0, w1, w2)]

        first_root, first_grads = epoch()
        second_root, second_grads = epoch()
        assert first_root == second_root
        for a, b in zip(first_grads, second_grads):
            np.testing.assert_array_equal(a, b)

    def test_taped_backward_equals_eager_bitwise(self, rng):
        """Both checkpoints capture (w1, w2), so their gradients meet.  The
        tape's buffers must stay out of each checkpoint's nested eager
        backward: one that wrote into them would overwrite the first
        checkpoint's share and then add the buffer to itself."""
        w1, w2, x0, fn, fn_inverse = self._setup(rng)

        def build():
            mid = F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2))
            out = F.invertible_checkpoint(fn, fn_inverse, mid, (w1, w2))
            return (out ** 2).sum()

        build().backward()
        eager = [t.grad.tobytes() for t in (x0, w1, w2)]
        for t in (x0, w1, w2):
            t.grad = None
        tape = Tape.record(build)
        for _ in range(2):          # the second pass reuses the buffers
            tape.forward()
            tape.backward()
            assert [t.grad.tobytes() for t in (x0, w1, w2)] == eager

    def test_transient_tape_root_is_freed_after_backward(self, rng):
        """Checkpoint outputs carry no pinned tape buffer: backward frees
        them, and the next ``forward()`` recomputes fresh data."""
        w1, w2, x0, fn, fn_inverse = self._setup(rng)
        tape = Tape.record(
            lambda: F.invertible_checkpoint(fn, fn_inverse, x0, (w1, w2)))
        tape.forward()
        value = tape.root.data.copy()
        tape.backward(grad=np.ones_like(value))
        assert tape.root.data.size == 0
        tape.forward()
        np.testing.assert_array_equal(tape.root.data, value)


# ---------------------------------------------------------------------------
# The reversible encoder
# ---------------------------------------------------------------------------

class TestReversibleEncoder:
    @pytest.fixture
    def setup(self):
        hg = _make_hypergraph()
        encoder = _make_encoder()
        encoder.eval()
        return encoder, hg

    def test_checkpointed_matches_stored_bitwise(self, setup):
        encoder, hg = setup
        encoder.recompute = True
        checkpointed = encoder.encode_hypergraph(hg).numpy().copy()
        encoder.recompute = False
        stored = encoder.encode_hypergraph(hg).numpy().copy()
        np.testing.assert_array_equal(checkpointed, stored)

    def test_gradients_match_stored_activations(self, setup):
        encoder, hg = setup

        def grads(recompute):
            encoder.recompute = recompute
            for p in encoder.parameters():
                p.grad = None
            (encoder.encode_hypergraph(hg) ** 2).sum().backward()
            return [p.grad.copy() for p in encoder.parameters()]

        for got, ref in zip(grads(True), grads(False)):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_taped_encode_replay_bitwise(self, setup):
        encoder, hg = setup
        encoder.recompute = True
        tape = Tape.record(
            lambda: (encoder.encode_hypergraph(hg) ** 2).sum())

        def epoch():
            tape.forward()
            root = tape.root.item()
            tape.backward()
            return root, [p.grad.copy() for p in encoder.parameters()]

        first_root, first_grads = epoch()
        second_root, second_grads = epoch()
        assert first_root == second_root
        for a, b in zip(first_grads, second_grads):
            np.testing.assert_array_equal(a, b)

    def test_taped_backward_equals_eager_bitwise(self, setup):
        """Every block's checkpoint captures the node embedding: the taped
        gradients equal the eager checkpointed backward's bits."""
        encoder, hg = setup
        encoder.recompute = True

        def loss():
            return (encoder.encode_hypergraph(hg) ** 2).sum()

        loss().backward()
        eager = {name: p.grad.tobytes()
                 for name, p in encoder.named_parameters()}
        encoder.zero_grad()
        tape = Tape.record(loss)
        for _ in range(2):
            tape.forward()
            tape.backward()
            for name, param in encoder.named_parameters():
                assert param.grad.tobytes() == eager[name], name

    def test_context_subset_reencode_matches_full(self, setup):
        encoder, hg = setup
        full, context = encoder.encode_with_context(
            hg.node_ids, hg.edge_ids, hg.num_edges,
            partitions=(hg.node_partition, hg.edge_partition))
        subset = encoder.encode_edges_subset(
            context, hg.node_ids, hg.edge_ids, hg.num_edges,
            edge_partition=hg.edge_partition)
        np.testing.assert_array_equal(subset.numpy(), full.numpy())

    def test_context_round_trips_through_index_arrays(self, setup):
        """The serving cache stores ``layer_node_feats`` by integer index;
        a reload must reproduce subset encodes bitwise."""
        encoder, hg = setup
        full, context = encoder.encode_with_context(
            hg.node_ids, hg.edge_ids, hg.num_edges)
        assert context.num_layers == 2 * len(encoder.blocks)
        arrays = {f"context_layer_{i}": layer.data.copy()
                  for i, layer in enumerate(context.layer_node_feats)}
        reloaded = EncoderContext(layer_node_feats=tuple(
            Tensor(arrays[f"context_layer_{i}"])
            for i in range(context.num_layers)))
        subset = encoder.encode_edges_subset(
            reloaded, hg.node_ids, hg.edge_ids, hg.num_edges)
        np.testing.assert_array_equal(subset.numpy(), full.numpy())

    def test_subset_rejects_mismatched_context(self, setup):
        encoder, hg = setup
        _, context = encoder.encode_with_context(
            hg.node_ids, hg.edge_ids, hg.num_edges)
        truncated = EncoderContext(
            layer_node_feats=context.layer_node_feats[:-1])
        with pytest.raises(ValueError, match="layer count"):
            encoder.encode_edges_subset(truncated, hg.node_ids, hg.edge_ids,
                                        hg.num_edges)

    def test_substructure_attention_is_edge_normalised(self, setup):
        encoder, hg = setup
        attention = encoder.substructure_attention(hg)
        assert attention.shape == (hg.num_incidences,)
        assert np.all(np.isfinite(attention))
        sums = np.zeros(hg.num_edges)
        np.add.at(sums, hg.edge_ids, attention)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-12)

    def test_requires_even_hidden_dim(self):
        with pytest.raises(ValueError, match="even hidden_dim"):
            ReversibleHyGNNEncoder(num_substructures=5, embed_dim=4,
                                   hidden_dim=7,
                                   rng=np.random.default_rng(0))

    def test_model_selects_reversible_encoder(self):
        config = HyGNNConfig(reversible=True, embed_dim=8, hidden_dim=8)
        model = HyGNN(num_substructures=10, config=config)
        assert isinstance(model.encoder, ReversibleHyGNNEncoder)
        plain = HyGNN(num_substructures=10,
                      config=HyGNNConfig(embed_dim=8, hidden_dim=8))
        assert not isinstance(plain.encoder, ReversibleHyGNNEncoder)


# ---------------------------------------------------------------------------
# Multi-head attention ride-along
# ---------------------------------------------------------------------------

class TestMultiHeadAttention:
    def test_standard_encoder_shapes_and_grads(self, rng):
        hg = _make_hypergraph()
        encoder = HyGNNEncoder(num_substructures=12, embed_dim=6,
                               hidden_dim=8, rng=rng, dropout=0.0,
                               num_heads=2)
        encoder.eval()
        out = encoder.encode_hypergraph(hg)
        assert out.shape == (hg.num_edges, 8)
        (out ** 2).sum().backward()
        assert all(p.grad is not None for p in encoder.parameters())

    def test_reversible_encoder_with_heads(self):
        hg = _make_hypergraph()
        encoder = _make_encoder(hidden_dim=8, num_heads=2)
        encoder.eval()
        encoder.recompute = True
        checkpointed = encoder.encode_hypergraph(hg).numpy().copy()
        encoder.recompute = False
        stored = encoder.encode_hypergraph(hg).numpy().copy()
        assert checkpointed.shape == (hg.num_edges, 8)
        np.testing.assert_array_equal(checkpointed, stored)

    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="num_heads"):
            HyGNNConfig(num_heads=3, hidden_dim=8, embed_dim=8)
        with pytest.raises(ValueError, match="num_heads"):
            HyGNNConfig(num_heads=3, hidden_dim=8, embed_dim=8,
                        reversible=True)

    def test_single_head_has_no_projection(self, rng):
        encoder = HyGNNEncoder(num_substructures=5, embed_dim=4,
                               hidden_dim=4, rng=rng)
        assert not hasattr(encoder.layers[0][0], "head_proj")


# ---------------------------------------------------------------------------
# Per-batch trainer mode
# ---------------------------------------------------------------------------

class TestPerBatchTrainer:
    def _fit(self, **overrides):
        hg = _make_hypergraph(num_nodes=20, num_edges=16, extra=60, seed=11)
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, hg.num_edges, size=(160, 2))
        labels = rng.integers(0, 2, size=160).astype(np.float64)
        split = random_split(len(pairs), seed=11)
        settings = dict(embed_dim=8, hidden_dim=8, dropout=0.0, epochs=4,
                        patience=100, seed=5, batch_size=32,
                        step_per_batch=True, snapshot_staleness=2)
        settings.update(overrides)
        config = HyGNNConfig(**settings)
        model = HyGNN(num_substructures=hg.num_nodes, config=config)
        trainer = Trainer(model, config)
        return trainer.fit(hg, pairs, labels, split)

    def test_loss_decreases_with_reversible_encoder(self):
        history = self._fit(reversible=True)
        losses = history.train_loss
        assert len(losses) == 4
        assert all(np.isfinite(loss) for loss in losses)
        assert losses[-1] < losses[0]

    def test_loss_decreases_with_standard_encoder(self):
        history = self._fit(reversible=False)
        assert all(np.isfinite(loss) for loss in history.train_loss)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_step_per_batch_requires_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            HyGNNConfig(step_per_batch=True)

    def test_snapshot_staleness_must_be_positive(self):
        with pytest.raises(ValueError, match="snapshot_staleness"):
            HyGNNConfig(snapshot_staleness=0)


# ---------------------------------------------------------------------------
# Tape replay diagnostics (ride-along)
# ---------------------------------------------------------------------------

class TestTapeReplayDiagnostics:
    def test_shape_mismatch_names_consumer_and_shapes(self, rng):
        weight = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        tape = Tape.record(lambda: (weight @ weight.transpose()).sum())
        with pytest.raises(ValueError) as excinfo:
            tape.forward({weight: np.zeros((2, 2))})
        message = str(excinfo.value)
        assert "(2, 2)" in message and "(4, 3)" in message
        assert "feeding op '" in message  # names the consuming op
