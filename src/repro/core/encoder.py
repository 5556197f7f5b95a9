"""The HyGNN hyperedge encoder (paper Sec. III-C1).

Pipeline per layer: hyperedge-level attention produces node features from
hyperedge features (Eq. 4), node-level attention produces hyperedge (drug)
features from node features (Eq. 7).  The paper employs a single such layer
(Sec. IV-B); ``num_layers`` generalises this for the depth ablation.

Initial features: nodes (substructures) carry a learned embedding table;
initial hyperedge features are the mean of their member nodes' embeddings,
which keeps the encoder *inductive* — a drug never seen in training is
embedded purely from its (known) substructures, enabling the Table IX
cold-start experiment.

Serving split
-------------
A hyperedge's embedding at layer *l* depends only on that layer's node
features (a function of the *corpus* incidence alone) and the hyperedge's own
members.  :meth:`HyGNNEncoder.encode_with_context` therefore records the
per-layer node features as an :class:`EncoderContext`, and
:meth:`HyGNNEncoder.encode_edges_subset` replays just the node-level
aggregation for an arbitrary set of hyperedges against that frozen context —
bitwise-identical to a full encode for corpus edges, and the paper's
cold-start semantics (Table IX) for new drugs.  This is what lets a serving
layer embed a newly registered drug in O(its substructures) instead of
re-encoding the whole catalog hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hypergraph import Hypergraph
from ..nn import Dropout, Linear, Module, Tape, Tensor, init
from ..nn import functional as F
from ..nn.functional import SegmentPartition
from .attention import HyperedgeLevelAttention, NodeLevelAttention


@dataclass(frozen=True)
class EncoderContext:
    """Frozen per-layer node features from one corpus encode.

    ``layer_node_feats[l]`` is the node-feature tensor consumed by layer
    *l*'s node-level attention; it is a function of the corpus incidence
    structure only, never of the hyperedges being scored against it.
    """

    layer_node_feats: tuple[Tensor, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layer_node_feats)


class HyGNNEncoder(Module):
    """Produces drug (hyperedge) embeddings from incidence structure."""

    def __init__(self, num_substructures: int, embed_dim: int,
                 hidden_dim: int, rng: np.random.Generator,
                 num_layers: int = 1, dropout: float = 0.1,
                 negative_slope: float = 0.2, num_heads: int = 1):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one encoder layer")
        self.num_substructures = num_substructures
        # Standard-normal embedding init (as torch.nn.Embedding).  Xavier
        # fan-based scaling would shrink rows with the vocabulary size and
        # starve the parameter-free dot decoder of signal.
        self.node_embedding = init.normal(
            (num_substructures, embed_dim), rng, std=1.0)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self.layers: list[tuple[HyperedgeLevelAttention, NodeLevelAttention]] = []
        node_dim, edge_dim = embed_dim, embed_dim
        for index in range(num_layers):
            edge_level = HyperedgeLevelAttention(
                node_dim, edge_dim, hidden_dim, rng,
                negative_slope=negative_slope, num_heads=num_heads)
            node_level = NodeLevelAttention(
                hidden_dim, edge_dim, hidden_dim, rng,
                negative_slope=negative_slope, num_heads=num_heads)
            self._modules[f"edge_att{index}"] = edge_level
            self._modules[f"node_att{index}"] = node_level
            self.layers.append((edge_level, node_level))
            node_dim = hidden_dim
            edge_dim = hidden_dim

    # ------------------------------------------------------------------
    def _check_node_ids(self, node_ids: np.ndarray) -> np.ndarray:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size and node_ids.max() >= self.num_substructures:
            raise ValueError("node id exceeds the trained vocabulary")
        return node_ids

    def initial_features(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                         num_edges: int,
                         edge_partition: SegmentPartition | None = None
                         ) -> tuple[Tensor, Tensor]:
        """(p0, q0): node embeddings and mean-pooled hyperedge features."""
        p0 = self.node_embedding
        member_feats = F.gather_rows(p0, node_ids)
        q0 = F.segment_mean(member_feats, edge_ids, num_edges,
                            partition=edge_partition)
        return p0, q0

    def forward(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                num_edges: int,
                partitions: tuple[SegmentPartition, SegmentPartition] | None = None
                ) -> Tensor:
        """Drug embeddings of shape (num_edges, hidden_dim)."""
        return self.encode_with_context(node_ids, edge_ids, num_edges,
                                        partitions=partitions)[0]

    def encode_with_context(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                            num_edges: int,
                            partitions: tuple[SegmentPartition,
                                              SegmentPartition] | None = None
                            ) -> tuple[Tensor, EncoderContext]:
        """Full encode that also returns the frozen per-layer node features.

        ``partitions`` is the ``(node_partition, edge_partition)`` pair for
        the incidence arrays; it is computed once here when absent and reused
        by every segment op across all layers (``encode_hypergraph`` passes
        the hypergraph's cached pair instead).
        """
        node_ids = self._check_node_ids(node_ids)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if partitions is None:
            partitions = (SegmentPartition(node_ids, self.num_substructures),
                          SegmentPartition(edge_ids, num_edges))
        edge_feats, context = self._sweep(node_ids, edge_ids, num_edges,
                                          partitions, dropout=self.dropout)
        return edge_feats, EncoderContext(layer_node_feats=tuple(context))

    def _sweep(self, node_ids: np.ndarray, edge_ids: np.ndarray,
               num_edges: int,
               partitions: tuple[SegmentPartition, SegmentPartition],
               dropout: Dropout | None, final_attention: bool = False):
        """The per-layer alternation shared by every full-corpus walk.

        Runs hyperedge-level then node-level attention across all layers
        (Eqs. 2-3), threading both cached partitions into every kernel (the
        grouping partition for the softmax segments, the complementary one
        for the fused backward scatters).  Returns ``(edge_feats,
        layer_node_feats)`` — or, with ``final_attention=True``, the last
        layer's node-level attention coefficients instead of running its
        aggregation (the interpretability output, which therefore cannot
        drift from the encoder it shares this sweep with; that path passes
        ``dropout=None`` to keep its historical always-deterministic
        semantics).
        """
        node_part, edge_part = partitions
        node_feats, edge_feats = self.initial_features(
            node_ids, edge_ids, num_edges, edge_partition=edge_part)
        if dropout is not None:
            node_feats = dropout(node_feats)
        context: list[Tensor] = []
        last = len(self.layers) - 1
        for index, (edge_level, node_level) in enumerate(self.layers):
            # Eq. (2): node representations from incident hyperedges.
            new_nodes = edge_level(node_feats, edge_feats, node_ids, edge_ids,
                                   node_partition=node_part,
                                   edge_partition=edge_part)
            context.append(new_nodes)
            if final_attention and index == last:
                return node_level.attention_weights(
                    new_nodes, edge_feats, node_ids, edge_ids,
                    edge_partition=edge_part, node_partition=node_part)
            # Eq. (3): hyperedge representations from member nodes.
            edge_feats = node_level(new_nodes, edge_feats, node_ids, edge_ids,
                                    edge_partition=edge_part,
                                    node_partition=node_part)
            node_feats = new_nodes
            if dropout is not None:
                edge_feats = dropout(edge_feats)
        return edge_feats, context

    def encode_edges_subset(self, context: EncoderContext,
                            node_ids: np.ndarray, edge_ids: np.ndarray,
                            num_edges: int,
                            edge_partition: SegmentPartition | None = None
                            ) -> Tensor:
        """Embed ``num_edges`` hyperedges against a frozen corpus context.

        Only the node-level aggregation runs per layer — O(incidences of the
        subset) — and re-encoding the *full* corpus incidence through this
        path reproduces :meth:`encode_with_context`'s output bitwise (in eval
        mode).  Per-edge results are mathematically independent; encoding
        edges one at a time matches a batch encode up to BLAS batch-shape
        rounding (ULP-level: gemv vs gemm take different summation orders).
        """
        if context.num_layers != len(self.layers):
            raise ValueError("context layer count does not match the encoder")
        node_ids = self._check_node_ids(node_ids)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_partition is None:
            edge_partition = SegmentPartition(edge_ids, num_edges)
        _, edge_feats = self.initial_features(
            node_ids, edge_ids, num_edges, edge_partition=edge_partition)
        for (_, node_level), layer_nodes in zip(self.layers,
                                                context.layer_node_feats):
            edge_feats = node_level(layer_nodes, edge_feats, node_ids,
                                    edge_ids, edge_partition=edge_partition)
            if self.dropout is not None:
                edge_feats = self.dropout(edge_feats)
        return edge_feats

    def encode_hypergraph(self, hypergraph: Hypergraph) -> Tensor:
        return self.forward(hypergraph.node_ids, hypergraph.edge_ids,
                            hypergraph.num_edges,
                            partitions=(hypergraph.node_partition,
                                        hypergraph.edge_partition))

    def compile_encode(self, hypergraph: Hypergraph) -> Tape:
        """Record the corpus encode as a replayable :class:`Tape`.

        ``tape.root`` is the drug-embedding matrix; ``tape.forward()``
        re-encodes under the current weights and ``tape.backward(grad)``
        back-propagates an externally accumulated embedding gradient (the
        mini-batch trainer's per-epoch encoder step) through all layers.

        The tape freezes the train/eval mode in effect at record time: a
        tape recorded while training keeps (re-sampling) its dropout nodes
        on every replay regardless of a later ``eval()``.  Record in the
        mode you intend to replay in — eval-mode encodes for serving, train
        mode for optimization.
        """
        return Tape.record(lambda: self.encode_hypergraph(hypergraph))

    def substructure_attention(self, hypergraph: Hypergraph) -> np.ndarray:
        """Final-layer node-level attention X_ji per incidence entry.

        High values flag the substructures the model deems responsible for a
        drug's interactions (the paper's interpretability claim, Sec. I).
        Shares :meth:`_sweep` with :meth:`encode_with_context`, so the
        interpretability output runs the exact encoder layer stack.
        """
        return self._sweep(hypergraph.node_ids, hypergraph.edge_ids,
                           hypergraph.num_edges,
                           (hypergraph.node_partition,
                            hypergraph.edge_partition),
                           dropout=None, final_attention=True)


class _CouplingHalf(Module):
    """One residual half (F or G) of a reversible encoder block.

    A full hyperedge-level + node-level attention pass at half the hidden
    width: the edge-state half drives both levels' attention against the
    shared node stem, and the result is an edge-state update of the same
    half width — exactly the shape the additive coupling needs.
    """

    def __init__(self, node_dim: int, half_dim: int, rng: np.random.Generator,
                 negative_slope: float, num_heads: int):
        super().__init__()
        self.edge_level = HyperedgeLevelAttention(
            node_dim, half_dim, half_dim, rng,
            negative_slope=negative_slope, num_heads=num_heads)
        self.node_level = NodeLevelAttention(
            half_dim, half_dim, half_dim, rng,
            negative_slope=negative_slope, num_heads=num_heads)

    def forward(self, stem_nodes: Tensor, edge_half: Tensor,
                node_ids: np.ndarray, edge_ids: np.ndarray,
                node_partition: SegmentPartition | None,
                edge_partition: SegmentPartition | None
                ) -> tuple[Tensor, Tensor]:
        """Returns ``(edge_update, node_feats)``; the node features are the
        frozen-context entry the serving split stores for this half."""
        nodes = self.edge_level(stem_nodes, edge_half, node_ids, edge_ids,
                                node_partition=node_partition,
                                edge_partition=edge_partition)
        edges = self.node_level(nodes, edge_half, node_ids, edge_ids,
                                edge_partition=edge_partition,
                                node_partition=node_partition)
        return edges, nodes


class ReversibleHyGNNEncoder(HyGNNEncoder):
    """Memory-lean deep encoder: coupled reversible residual attention blocks.

    The hidden state is split into halves ``(x1, x2)`` and each block applies
    the additive coupling ``y1 = x1 + F(x2); y2 = x2 + G(y1)`` (RevNet /
    DGL ``GroupRevRes``), where F and G are each a full hyperedge-level +
    node-level attention pass (:class:`_CouplingHalf`) at half width,
    streaming through the same fused ``incidence_scores`` /
    ``segment_attend`` kernels and cached :class:`SegmentPartition` block
    plans as :class:`HyGNNEncoder`.  Because the coupling is invertible
    (``x2 = y2 - G(y1); x1 = y1 - F(x2)``), training wraps each block in
    :func:`repro.nn.functional.invertible_checkpoint`: the forward frees the
    previous block's activations and the backward reconstructs them from the
    block output, so taped epochs hold O(1) activations in depth.

    ``recompute`` toggles the checkpointed forward (default) against a plain
    stored-activation composition of the *same* ops — the two produce
    bitwise-identical outputs and gradients equal to reconstruction
    round-off (``benchmarks/bench_training_memory.py`` gates both).

    Dropout is applied in the stem only (embedding + initial edge state):
    the wrapped block functions must be deterministic so the backward-time
    recompute reproduces the forward values.
    """

    def __init__(self, num_substructures: int, embed_dim: int,
                 hidden_dim: int, rng: np.random.Generator,
                 num_layers: int = 1, dropout: float = 0.1,
                 negative_slope: float = 0.2, num_heads: int = 1):
        # Deliberately skip HyGNNEncoder.__init__ — the reversible encoder
        # builds coupling blocks instead of the plain layer stack but keeps
        # the parent's corpus-walk plumbing (encode_hypergraph,
        # compile_encode, _check_node_ids, initial_features).
        Module.__init__(self)
        if num_layers < 1:
            raise ValueError("need at least one encoder layer")
        if hidden_dim % 2:
            raise ValueError("reversible encoder requires an even "
                             "hidden_dim (coupled residual halves)")
        self.num_substructures = num_substructures
        self.hidden_dim = hidden_dim
        self.node_embedding = init.normal(
            (num_substructures, embed_dim), rng, std=1.0)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self.stem_proj = Linear(embed_dim, hidden_dim, rng, bias=False)
        half = hidden_dim // 2
        self.blocks: list[tuple[_CouplingHalf, _CouplingHalf]] = []
        for index in range(num_layers):
            f_half = _CouplingHalf(embed_dim, half, rng, negative_slope,
                                   num_heads)
            g_half = _CouplingHalf(embed_dim, half, rng, negative_slope,
                                   num_heads)
            self._modules[f"rev{index}_f"] = f_half
            self._modules[f"rev{index}_g"] = g_half
            self.blocks.append((f_half, g_half))
        # Checkpointed (recompute-in-backward) forward by default; the
        # stored-activation path of the same ops is the gradient-parity
        # reference and costs O(depth) activation memory.
        self.recompute = True

    # ------------------------------------------------------------------
    def _stem(self, node_ids: np.ndarray, edge_ids: np.ndarray,
              num_edges: int, edge_partition: SegmentPartition | None,
              dropout: Dropout | None) -> tuple[Tensor, Tensor]:
        """(stem_nodes, x0): dropped node embeddings and the initial
        full-width edge state all blocks couple over."""
        stem_nodes = self.node_embedding
        if dropout is not None:
            stem_nodes = dropout(stem_nodes)
        _, q0 = self.initial_features(node_ids, edge_ids, num_edges,
                                      edge_partition=edge_partition)
        if dropout is not None:
            member = F.gather_rows(stem_nodes, node_ids)
            q0 = F.segment_mean(member, edge_ids, num_edges,
                                partition=edge_partition)
        x = self.stem_proj(q0)
        if dropout is not None:
            x = dropout(x)
        return stem_nodes, x

    def _resolve(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                 num_edges: int,
                 partitions: tuple[SegmentPartition,
                                   SegmentPartition] | None):
        node_ids = self._check_node_ids(node_ids)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if partitions is None:
            partitions = (SegmentPartition(node_ids, self.num_substructures),
                          SegmentPartition(edge_ids, num_edges))
        return node_ids, edge_ids, partitions

    def _coupling_closures(self, f_half: _CouplingHalf, g_half: _CouplingHalf,
                           stem_nodes: Tensor, node_ids: np.ndarray,
                           edge_ids: np.ndarray,
                           node_part: SegmentPartition | None,
                           edge_part: SegmentPartition | None):
        """The (fn, fn_inverse) pair one checkpointed block records."""
        half = self.hidden_dim // 2

        def fn(x: Tensor) -> Tensor:
            x1, x2 = x[:, :half], x[:, half:]
            y1 = x1 + f_half(stem_nodes, x2, node_ids, edge_ids,
                             node_part, edge_part)[0]
            y2 = x2 + g_half(stem_nodes, y1, node_ids, edge_ids,
                             node_part, edge_part)[0]
            return F.concat([y1, y2], axis=1)

        def fn_inverse(y: Tensor) -> Tensor:
            y1, y2 = y[:, :half], y[:, half:]
            x2 = y2 - g_half(stem_nodes, y1, node_ids, edge_ids,
                             node_part, edge_part)[0]
            x1 = y1 - f_half(stem_nodes, x2, node_ids, edge_ids,
                             node_part, edge_part)[0]
            return F.concat([x1, x2], axis=1)

        return fn, fn_inverse

    def block_functions(self, index: int, node_ids: np.ndarray,
                        edge_ids: np.ndarray, num_edges: int,
                        partitions: tuple[SegmentPartition,
                                          SegmentPartition] | None = None):
        """(fn, fn_inverse) of block ``index`` over the given incidence.

        Exposed for the reversibility invariants in the test suite; the
        stem is built deterministically (no dropout).
        """
        node_ids, edge_ids, partitions = self._resolve(
            node_ids, edge_ids, num_edges, partitions)
        node_part, edge_part = partitions
        f_half, g_half = self.blocks[index]
        return self._coupling_closures(f_half, g_half, self.node_embedding,
                                       node_ids, edge_ids, node_part,
                                       edge_part)

    # ------------------------------------------------------------------
    def forward(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                num_edges: int,
                partitions: tuple[SegmentPartition,
                                  SegmentPartition] | None = None) -> Tensor:
        """Drug embeddings of shape (num_edges, hidden_dim).

        Checkpointed (O(1) activations in depth) when ``recompute`` is set,
        stored-activation otherwise — bitwise-identical outputs either way.
        """
        if not self.recompute:
            return self.encode_with_context(node_ids, edge_ids, num_edges,
                                            partitions=partitions)[0]
        node_ids, edge_ids, partitions = self._resolve(
            node_ids, edge_ids, num_edges, partitions)
        node_part, edge_part = partitions
        stem_nodes, x = self._stem(node_ids, edge_ids, num_edges, edge_part,
                                   self.dropout)
        for index, (f_half, g_half) in enumerate(self.blocks):
            fn, fn_inverse = self._coupling_closures(
                f_half, g_half, stem_nodes, node_ids, edge_ids,
                node_part, edge_part)
            captured = ((stem_nodes,) + tuple(f_half.parameters())
                        + tuple(g_half.parameters()))
            # Block 0's input is the stem activation — keep it stored so
            # the stem backward sees pristine data; every later input is a
            # block output the inverse reconstructs.
            x = F.invertible_checkpoint(fn, fn_inverse, x, captured,
                                        free_input=index > 0,
                                        op=f"reversible_block{index}")
        return x

    def encode_with_context(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                            num_edges: int,
                            partitions: tuple[SegmentPartition,
                                              SegmentPartition] | None = None
                            ) -> tuple[Tensor, EncoderContext]:
        """Stored-activation encode that captures the serving context.

        The context holds the F-half and G-half node features of every
        block, flattened in execution order — ``2 * len(blocks)`` entries —
        so the shard store's one-file-per-layer copy round-trips unchanged.
        """
        node_ids, edge_ids, partitions = self._resolve(
            node_ids, edge_ids, num_edges, partitions)
        return self._couple_walk(node_ids, edge_ids, num_edges, partitions,
                                 dropout=self.dropout)

    def _couple_walk(self, node_ids: np.ndarray, edge_ids: np.ndarray,
                     num_edges: int,
                     partitions: tuple[SegmentPartition, SegmentPartition],
                     dropout: Dropout | None, final_attention: bool = False):
        """The stored-activation coupling walk all plain paths share."""
        node_part, edge_part = partitions
        stem_nodes, x = self._stem(node_ids, edge_ids, num_edges, edge_part,
                                   dropout)
        half = self.hidden_dim // 2
        context: list[Tensor] = []
        last = len(self.blocks) - 1
        for index, (f_half, g_half) in enumerate(self.blocks):
            x1, x2 = x[:, :half], x[:, half:]
            f_out, f_nodes = f_half(stem_nodes, x2, node_ids, edge_ids,
                                    node_part, edge_part)
            y1 = x1 + f_out
            if final_attention and index == last:
                g_nodes = g_half.edge_level(
                    stem_nodes, y1, node_ids, edge_ids,
                    node_partition=node_part, edge_partition=edge_part)
                return g_half.node_level.attention_weights(
                    g_nodes, y1, node_ids, edge_ids,
                    edge_partition=edge_part, node_partition=node_part)
            g_out, g_nodes = g_half(stem_nodes, y1, node_ids, edge_ids,
                                    node_part, edge_part)
            y2 = x2 + g_out
            x = F.concat([y1, y2], axis=1)
            context.extend([f_nodes, g_nodes])
        return x, EncoderContext(layer_node_feats=tuple(context))

    def encode_edges_subset(self, context: EncoderContext,
                            node_ids: np.ndarray, edge_ids: np.ndarray,
                            num_edges: int,
                            edge_partition: SegmentPartition | None = None
                            ) -> Tensor:
        """Embed hyperedges against a frozen corpus context.

        Per block only the two node-level aggregations run — against the
        stored F-half and G-half node features — so the cost is O(subset
        incidences), and re-encoding the full corpus incidence reproduces
        :meth:`encode_with_context` bitwise in eval mode (the serving
        contract shared with :class:`HyGNNEncoder`).
        """
        if context.num_layers != 2 * len(self.blocks):
            raise ValueError("context layer count does not match the encoder")
        node_ids = self._check_node_ids(node_ids)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_partition is None:
            edge_partition = SegmentPartition(edge_ids, num_edges)
        _, x = self._stem(node_ids, edge_ids, num_edges, edge_partition,
                          self.dropout)
        half = self.hidden_dim // 2
        feats = context.layer_node_feats
        for index, (f_half, g_half) in enumerate(self.blocks):
            f_nodes, g_nodes = feats[2 * index], feats[2 * index + 1]
            x1, x2 = x[:, :half], x[:, half:]
            y1 = x1 + f_half.node_level(f_nodes, x2, node_ids, edge_ids,
                                        edge_partition=edge_partition)
            y2 = x2 + g_half.node_level(g_nodes, y1, node_ids, edge_ids,
                                        edge_partition=edge_partition)
            x = F.concat([y1, y2], axis=1)
        return x

    def substructure_attention(self, hypergraph: Hypergraph) -> np.ndarray:
        """Final-block G-half node-level attention X_ji per incidence entry.

        The reversible analogue of :meth:`HyGNNEncoder.substructure_attention`
        — shares :meth:`_couple_walk` with the encode paths, with the
        historical deterministic (no-dropout) semantics.
        """
        return self._couple_walk(
            hypergraph.node_ids, hypergraph.edge_ids, hypergraph.num_edges,
            (hypergraph.node_partition, hypergraph.edge_partition),
            dropout=None, final_attention=True)
