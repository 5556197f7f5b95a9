"""Property-based invariant tests for the hypergraph substrate and the
segment kernels behind HyGNN's attention (randomized shapes via hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph
from repro.nn import SegmentPartition, Tensor
from repro.nn import functional as F

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

incidence_lists = st.integers(min_value=1, max_value=9).flatmap(
    lambda num_nodes: st.integers(min_value=1, max_value=9).flatmap(
        lambda num_edges: st.lists(
            st.tuples(st.integers(0, num_nodes - 1),
                      st.integers(0, num_edges - 1)),
            min_size=0, max_size=40,
        ).map(lambda pairs: (num_nodes, num_edges, pairs))))


def _build(num_nodes, num_edges, pairs):
    node_ids = [p[0] for p in pairs]
    edge_ids = [p[1] for p in pairs]
    return Hypergraph(num_nodes, num_edges, node_ids=node_ids,
                      edge_ids=edge_ids)


segment_cases = st.integers(min_value=1, max_value=7).flatmap(
    lambda num_segments: st.tuples(
        st.just(num_segments),
        st.lists(st.integers(0, num_segments - 1), min_size=0, max_size=30),
        st.integers(min_value=1, max_value=5),   # feature dim
        st.integers(min_value=0, max_value=2 ** 31 - 1)))


# ---------------------------------------------------------------------------
# Hypergraph invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(incidence_lists)
def test_construction_is_order_invariant(case):
    """Dedup/sort determinism: input permutation never changes the result."""
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    shuffled = list(pairs)
    np.random.default_rng(0).shuffle(shuffled)
    hg2 = _build(num_nodes, num_edges, shuffled)
    np.testing.assert_array_equal(hg.node_ids, hg2.node_ids)
    np.testing.assert_array_equal(hg.edge_ids, hg2.edge_ids)


@settings(max_examples=60, deadline=None)
@given(incidence_lists)
def test_incidences_sorted_and_unique(case):
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    stored = list(zip(hg.edge_ids.tolist(), hg.node_ids.tolist()))
    assert stored == sorted(set(stored))  # edge-major, deduplicated
    assert hg.num_incidences == len(set(pairs))


@settings(max_examples=60, deadline=None)
@given(incidence_lists)
def test_degree_sums_equal_num_incidences(case):
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    assert hg.node_degrees().sum() == hg.num_incidences
    assert hg.edge_degrees().sum() == hg.num_incidences


@settings(max_examples=60, deadline=None)
@given(incidence_lists)
def test_incidence_matrix_round_trip(case):
    """H's nonzeros rebuild the exact same hypergraph."""
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    rows, cols = hg.incidence_matrix().nonzero()
    rebuilt = Hypergraph(num_nodes, num_edges, node_ids=rows, edge_ids=cols)
    np.testing.assert_array_equal(hg.node_ids, rebuilt.node_ids)
    np.testing.assert_array_equal(hg.edge_ids, rebuilt.edge_ids)


@settings(max_examples=60, deadline=None)
@given(incidence_lists)
def test_csr_lookups_match_boolean_scans(case):
    """The cached-CSR fast path serves exactly what a full scan would."""
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    for edge in range(num_edges):
        reference = np.sort(hg.node_ids[hg.edge_ids == edge])
        np.testing.assert_array_equal(np.sort(hg.nodes_of_edge(edge)),
                                      reference)
    for node in range(num_nodes):
        reference = np.sort(hg.edge_ids[hg.node_ids == node])
        np.testing.assert_array_equal(np.sort(hg.edges_of_node(node)),
                                      reference)


@settings(max_examples=30, deadline=None)
@given(incidence_lists)
def test_partitions_tile_the_incidence_list(case):
    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    for partition, ids in ((hg.edge_partition, hg.edge_ids),
                           (hg.node_partition, hg.node_ids)):
        assert partition.counts.sum() == hg.num_incidences
        gathered = partition.gather(ids)
        assert np.all(np.diff(gathered) >= 0)  # grouped contiguously


# ---------------------------------------------------------------------------
# Segment kernel invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(segment_cases)
def test_segment_softmax_sums_to_one(case):
    num_segments, ids, _, seed = case
    ids = np.array(ids, dtype=np.int64)
    scores = Tensor(np.random.default_rng(seed).normal(size=ids.size) * 5)
    partition = SegmentPartition(ids, num_segments)
    for part in (None, partition):
        out = F.segment_softmax(scores, ids, num_segments,
                                partition=part).numpy()
        for segment in range(num_segments):
            mask = ids == segment
            if mask.any():
                assert out[mask].sum() == pytest.approx(1.0)
        assert np.all(out > 0) if ids.size else True


@settings(max_examples=60, deadline=None)
@given(segment_cases)
def test_segment_mean_of_constant_segment_is_constant(case):
    num_segments, ids, dim, seed = case
    ids = np.array(ids, dtype=np.int64)
    rng = np.random.default_rng(seed)
    constants = rng.normal(size=(num_segments, dim))
    x = Tensor(constants[ids] if ids.size else np.zeros((0, dim)))
    partition = SegmentPartition(ids, num_segments)
    for part in (None, partition):
        out = F.segment_mean(x, ids, num_segments, partition=part).numpy()
        for segment in range(num_segments):
            if (ids == segment).any():
                np.testing.assert_allclose(out[segment], constants[segment])
            else:
                np.testing.assert_array_equal(out[segment],
                                              np.zeros(dim))


@settings(max_examples=60, deadline=None)
@given(segment_cases)
def test_partitioned_segment_ops_match_naive(case):
    """The reduceat fast path matches the add.at scatter path to round-off
    (reduceat may sum pairwise, so the last bits can differ)."""
    num_segments, ids, dim, seed = case
    ids = np.array(ids, dtype=np.int64)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(ids.size, dim)))
    scores = Tensor(rng.normal(size=ids.size))
    partition = SegmentPartition(ids, num_segments)
    np.testing.assert_allclose(
        F.segment_sum(x, ids, num_segments).numpy(),
        F.segment_sum(x, ids, num_segments, partition=partition).numpy(),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        F.segment_mean(x, ids, num_segments).numpy(),
        F.segment_mean(x, ids, num_segments, partition=partition).numpy(),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        F.segment_softmax(scores, ids, num_segments).numpy(),
        F.segment_softmax(scores, ids, num_segments,
                          partition=partition).numpy(),
        rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(segment_cases)
def test_segment_sum_matches_dense_reference(case):
    num_segments, ids, dim, seed = case
    ids = np.array(ids, dtype=np.int64)
    x = np.random.default_rng(seed).normal(size=(ids.size, dim))
    partition = SegmentPartition(ids, num_segments)
    out = F.segment_sum(Tensor(x), ids, num_segments,
                        partition=partition).numpy()
    reference = np.zeros((num_segments, dim))
    for row, segment in zip(x, ids):
        reference[segment] += row
    np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)


def test_partition_rejects_mismatched_ids():
    ids = np.array([0, 1, 1, 2])
    partition = SegmentPartition(ids, 3)
    with pytest.raises(ValueError):
        F.segment_sum(Tensor(np.ones((4, 2))), ids, 4, partition=partition)
    with pytest.raises(ValueError):
        F.segment_sum(Tensor(np.ones((3, 2))), ids[:3], 3,
                      partition=partition)


def test_partition_identity_order_for_sorted_ids():
    partition = SegmentPartition(np.array([0, 0, 1, 2, 2]), 3)
    assert partition.order is None  # sorted input needs no gather
    shuffled = SegmentPartition(np.array([2, 0, 1, 0, 2]), 3)
    assert shuffled.order is not None


# ---------------------------------------------------------------------------
# Fused attention-kernel invariants
# ---------------------------------------------------------------------------

fused_cases = st.tuples(
    incidence_lists,
    st.integers(min_value=1, max_value=4),       # feature dim
    st.integers(min_value=1, max_value=32),      # block rows
    st.integers(min_value=0, max_value=2 ** 31 - 1))


@settings(max_examples=60, deadline=None)
@given(fused_cases)
def test_fused_kernels_bitwise_match_unfused(case):
    """incidence_scores / segment_attend equal the unfused gather/mul/sum
    composition *bitwise* over arbitrary incidence structures (empty
    segments included) and any block size — the contract that keeps fused
    encoder outputs identical to the pre-fusion encoder."""
    (num_nodes, num_edges, pairs), dim, block_rows, seed = case
    hg = _build(num_nodes, num_edges, pairs)
    node_ids, edge_ids = hg.node_ids, hg.edge_ids
    rng = np.random.default_rng(seed)
    keys = Tensor(rng.normal(size=(num_edges, dim)))
    queries = Tensor(rng.normal(size=(num_nodes, dim)))
    att = Tensor(rng.random(size=node_ids.size))
    values = Tensor(rng.normal(size=(num_edges, dim)))

    fused_scores = F.incidence_scores(
        keys, queries, edge_ids, node_ids,
        key_partition=hg.edge_partition, query_partition=hg.node_partition,
        block_rows=block_rows)
    reference_scores = (F.gather_rows(keys, edge_ids)
                        * F.gather_rows(queries, node_ids)).sum(axis=1)
    np.testing.assert_array_equal(fused_scores.numpy(),
                                  reference_scores.numpy())

    fused_agg = F.segment_attend(
        att, values, edge_ids, node_ids, num_nodes,
        partition=hg.node_partition, value_partition=hg.edge_partition,
        block_rows=block_rows)
    messages = F.gather_rows(values, edge_ids) * att.reshape(-1, 1)
    reference_agg = F.segment_sum(messages, node_ids, num_nodes,
                                  partition=hg.node_partition)
    np.testing.assert_array_equal(fused_agg.numpy(), reference_agg.numpy())


@settings(max_examples=25, deadline=None)
@given(incidence_lists, st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_fused_encoder_bitwise_matches_unfused(case, seed):
    """Full-encoder invariant: the fused kernels never change eval-mode
    embeddings or the substructure-attention output, for any incidence
    structure (serving caches and fingerprints stay valid)."""
    from repro.core import HyGNNEncoder, fused_kernels

    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    encoder = HyGNNEncoder(num_substructures=num_nodes, embed_dim=3,
                           hidden_dim=3, rng=np.random.default_rng(seed),
                           dropout=0.0)
    encoder.eval()
    with fused_kernels(False):
        reference = encoder.encode_hypergraph(hg).numpy().copy()
        reference_att = encoder.substructure_attention(hg)
    with fused_kernels(True):
        fused = encoder.encode_hypergraph(hg).numpy().copy()
        fused_att = encoder.substructure_attention(hg)
    np.testing.assert_array_equal(fused, reference)
    np.testing.assert_array_equal(fused_att, reference_att)


@settings(max_examples=25, deadline=None)
@given(incidence_lists, st.integers(min_value=0, max_value=2 ** 31 - 1))
@example(case=(5, 5, [(0, 0), (0, 4), (1, 0)]), seed=1812033)
def test_reversible_reconstruction_round_trips(case, seed):
    """Reversible-block invariants, for any incidence structure (including
    empty hyperedge segments and the empty incidence list):

    - the coupling inverse reconstructs the block input to within a few
      ulp of the surrounding sums — floating-point addition is not exactly
      invertible, so bitwise recovery cannot be promised.  The inverse
      computes ``x2 = y2 - G(y1)`` and then ``x1 = y1 - F(x2)``, so the
      ``x1`` half also carries the rounding error of the reconstructed
      ``x2`` through ``F``: its bound adds ``|F(x2_rec) - F(x2)|``;
    - the *bitwise* round-trip the checkpoint stack does guarantee: the
      recompute-in-backward encode (which frees block inputs in forward
      and reconstructs them in backward) produces exactly the
      stored-activation encode's embeddings, and a taped
      forward/backward/forward cycle through the checkpointed blocks
      reproduces the first forward bit for bit.
    """
    from repro.core import ReversibleHyGNNEncoder
    from repro.nn import Tape

    num_nodes, num_edges, pairs = case
    hg = _build(num_nodes, num_edges, pairs)
    encoder = ReversibleHyGNNEncoder(
        num_substructures=num_nodes, embed_dim=3, hidden_dim=4,
        rng=np.random.default_rng(seed), num_layers=2, dropout=0.0)
    encoder.eval()

    fn, fn_inverse = encoder.block_functions(
        0, hg.node_ids, hg.edge_ids, hg.num_edges,
        partitions=(hg.node_partition, hg.edge_partition))
    x = Tensor(np.random.default_rng(seed + 1).normal(
        size=(hg.num_edges, 4)))
    y = fn(x)
    x_rec = fn_inverse(y)
    assert x_rec.shape == x.shape
    half = x.shape[1] // 2

    def f_half(x2):
        # fn's first output half with a zero x1 is exactly F(x2).
        out = fn(Tensor(np.concatenate([np.zeros_like(x2), x2], axis=1)))
        return out.numpy()[:, :half]

    bound = 4 * np.spacing(np.maximum(np.abs(x.numpy()), np.abs(y.numpy())))
    bound[:, :half] += np.abs(f_half(x_rec.numpy()[:, half:])
                              - f_half(x.numpy()[:, half:]))
    assert np.all(np.abs(x_rec.numpy() - x.numpy()) <= bound)

    encoder.recompute = True
    checkpointed = encoder.encode_hypergraph(hg).numpy().copy()
    encoder.recompute = False
    stored = encoder.encode_hypergraph(hg).numpy().copy()
    np.testing.assert_array_equal(checkpointed, stored)

    encoder.recompute = True
    tape = Tape.record(lambda: (encoder.encode_hypergraph(hg) ** 2).sum())
    tape.forward()
    first = tape.root.item()
    tape.backward()
    tape.forward()
    assert tape.root.item() == first


# ---------------------------------------------------------------------------
# Streaming top-k invariants (serving engine)
# ---------------------------------------------------------------------------

topk_cases = st.tuples(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0,
             max_size=120),                      # quantized scores (many ties)
    st.integers(min_value=0, max_value=130),     # k
    st.integers(min_value=1, max_value=40),      # block size
    st.integers(min_value=1, max_value=6),       # shard count
    st.integers(min_value=0, max_value=2 ** 31 - 1))


@settings(max_examples=80, deadline=None)
@given(topk_cases)
def test_streaming_sharded_topk_matches_stable_argsort(case):
    """Blocked + sharded selection equals the full stable argsort prefix,
    for any block size and any split into contiguous shards — the serving
    engine's exact-mode determinism contract."""
    from repro.serving import CatalogShard, merge_top_k
    from repro.serving.shards import screen_shard

    raw, k, block, num_shards, seed = case
    scores = np.asarray(raw, dtype=np.float64) / 7.0
    n = scores.size
    expected = np.argsort(-scores, kind="stable")[:k]

    # Random contiguous shard boundaries (shards are row ranges).
    cuts = np.sort(np.random.default_rng(seed).choice(
        np.arange(1, max(n, 1)), size=min(num_shards - 1, max(n - 1, 0)),
        replace=False))
    shard_results = []
    for rows in np.split(np.arange(n, dtype=np.int64), cuts):
        shard = CatalogShard(indices=rows, embeddings=np.zeros((rows.size, 0)),
                             projections={"rows": rows})
        shard_results += screen_shard(
            shard, block, lambda _emb, proj: scores[None, proj["rows"]],
            1, [k])
    merged_idx, merged_sc = merge_top_k(shard_results, k)
    np.testing.assert_array_equal(merged_idx, expected)
    np.testing.assert_array_equal(merged_sc, scores[expected])
