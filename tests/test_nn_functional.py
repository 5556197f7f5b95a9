"""Tests for activations, segment ops, and sparse matmul."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import SegmentPartition, Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import gradcheck


def _randt(shape, seed=0, shift=0.0, grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) + shift, requires_grad=grad)


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        x = _randt((4, 3), seed=1)
        gradcheck(lambda: (F.relu(x) * 2.0).sum(), [x])

    def test_leaky_relu_values(self):
        out = F.leaky_relu(Tensor([-2.0, 3.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_grad(self):
        x = _randt((5,), seed=2)
        gradcheck(lambda: F.leaky_relu(x, 0.2).sum(), [x])

    def test_sigmoid_range(self):
        out = F.sigmoid(Tensor([-100.0, 0.0, 100.0]))
        assert np.all(out.data >= 0) and np.all(out.data <= 1)
        assert out.data[1] == pytest.approx(0.5)
        # Moderate inputs stay strictly inside (0, 1).
        mid = F.sigmoid(Tensor([-10.0, 10.0]))
        assert np.all(mid.data > 0) and np.all(mid.data < 1)

    def test_sigmoid_extreme_no_overflow(self):
        out = F.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.isfinite(out.data).all()

    def test_sigmoid_grad(self):
        x = _randt((6,), seed=3)
        gradcheck(lambda: F.sigmoid(x).sum(), [x])

    def test_tanh_grad(self):
        x = _randt((6,), seed=4)
        gradcheck(lambda: F.tanh(x).sum(), [x])

    def test_elu_values(self):
        out = F.elu(Tensor([-1.0, 1.0]))
        np.testing.assert_allclose(out.data, [np.expm1(-1.0), 1.0])

    def test_elu_grad(self):
        x = _randt((6,), seed=5)
        gradcheck(lambda: F.elu(x).sum(), [x])

    def test_softmax_rows_sum_to_one(self):
        x = _randt((3, 5), seed=6, grad=False)
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3))

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(7).normal(size=(2, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_grad(self):
        x = _randt((2, 4), seed=8)
        w = Tensor(np.random.default_rng(9).normal(size=(2, 4)))
        gradcheck(lambda: (F.softmax(x) * w).sum(), [x])

    def test_log_softmax_grad(self):
        x = _randt((2, 4), seed=10)
        w = Tensor(np.random.default_rng(11).normal(size=(2, 4)))
        gradcheck(lambda: (F.log_softmax(x) * w).sum(), [x])

    def test_clip_values_and_grad_mask(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        out = F.clip(x, -1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestConcatGather:
    def test_concat_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_concat_grad(self):
        a = _randt((2, 2), seed=12)
        b = _randt((2, 3), seed=13)
        w = Tensor(np.random.default_rng(14).normal(size=(2, 5)))
        gradcheck(lambda: (F.concat([a, b], axis=1) * w).sum(), [a, b])

    def test_concat_axis0_grad(self):
        a = _randt((2, 3), seed=15)
        b = _randt((4, 3), seed=16)
        w = Tensor(np.random.default_rng(17).normal(size=(6, 3)))
        gradcheck(lambda: (F.concat([a, b], axis=0) * w).sum(), [a, b])

    def test_gather_rows_values(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        out = F.gather_rows(x, np.array([3, 0]))
        np.testing.assert_allclose(out.data, [[9, 10, 11], [0, 1, 2]])

    def test_gather_rows_repeated_grad(self):
        x = _randt((4, 3), seed=18)
        idx = np.array([1, 1, 2])
        gradcheck(lambda: (F.gather_rows(x, idx) ** 2).sum(), [x])


class TestDropout:
    def test_identity_when_eval(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_identity_when_p_zero(self):
        x = Tensor(np.ones(5))
        out = F.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(200_00))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_grad_uses_same_mask(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient equals the mask (either 0 or 1/(1-p)).
        np.testing.assert_allclose(np.unique(x.grad), [0.0, 2.0])


class TestSegmentOps:
    def test_segment_sum_values(self):
        x = Tensor(np.arange(8, dtype=float).reshape(4, 2))
        seg = np.array([0, 0, 1, 1])
        out = F.segment_sum(x, seg, 2)
        np.testing.assert_allclose(out.data, [[2, 4], [10, 12]])

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.ones((2, 2)))
        out = F.segment_sum(x, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data[1:], np.zeros((2, 2)))

    def test_segment_sum_out_of_range(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((2, 2))), np.array([0, 5]), 2)

    def test_segment_sum_grad(self):
        x = _randt((6, 3), seed=19)
        seg = np.array([0, 1, 1, 2, 2, 2])
        w = Tensor(np.random.default_rng(20).normal(size=(3, 3)))
        gradcheck(lambda: (F.segment_sum(x, seg, 3) * w).sum(), [x])

    def test_segment_mean_values(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = F.segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [6.0]])

    def test_segment_mean_empty_segment_zero(self):
        x = Tensor(np.ones((1, 2)))
        out = F.segment_mean(x, np.array([0]), 2)
        np.testing.assert_allclose(out.data[1], [0.0, 0.0])

    def test_segment_softmax_normalises_per_segment(self):
        scores = Tensor(np.random.default_rng(21).normal(size=7))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        out = F.segment_softmax(scores, seg, 3)
        for k in range(3):
            assert out.data[seg == k].sum() == pytest.approx(1.0)

    def test_segment_softmax_single_member_is_one(self):
        out = F.segment_softmax(Tensor([5.0]), np.array([0]), 1)
        np.testing.assert_allclose(out.data, [1.0])

    def test_segment_softmax_stability_large_scores(self):
        out = F.segment_softmax(Tensor([1000.0, 1000.0]), np.array([0, 0]), 1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_segment_softmax_grad(self):
        scores = _randt((8,), seed=22)
        seg = np.array([0, 0, 1, 1, 1, 2, 2, 2])
        w = Tensor(np.random.default_rng(23).normal(size=8))
        gradcheck(lambda: (F.segment_softmax(scores, seg, 3) * w).sum(), [scores])

    def test_segment_softmax_rejects_2d(self):
        with pytest.raises(ValueError):
            F.segment_softmax(Tensor(np.ones((2, 2))), np.array([0, 1]), 2)

    def test_segment_ids_must_be_1d(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((2, 2))), np.array([[0], [1]]), 2)

    def test_partition_caches_inverse_counts(self):
        partition = SegmentPartition(np.array([0, 0, 2]), 4)
        inv = partition.inv_counts
        np.testing.assert_allclose(inv, [0.5, 1.0, 1.0, 1.0])
        assert partition.inv_counts is inv  # computed once, reused

    def test_segment_mean_uses_partition_inverse_counts(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        ids = np.array([0, 0, 1])
        partition = SegmentPartition(ids, 2)
        with_part = F.segment_mean(x, ids, 2, partition=partition)
        without = F.segment_mean(x, ids, 2)
        np.testing.assert_array_equal(with_part.data, without.data)


def _fused_reference(att, values, value_ids, segment_ids, num_segments,
                     partition):
    """The unfused composition segment_attend replaces."""
    messages = F.gather_rows(values, value_ids) * att.reshape(-1, 1)
    return F.segment_sum(messages, segment_ids, num_segments,
                         partition=partition)


class TestFusedKernels:
    """incidence_scores / segment_attend vs their unfused compositions."""

    def _incidence(self, seed=0, num_keys=7, num_queries=5, nnz=23, dim=4):
        rng = np.random.default_rng(seed)
        keys = Tensor(rng.normal(size=(num_keys, dim)), requires_grad=True)
        queries = Tensor(rng.normal(size=(num_queries, dim)),
                         requires_grad=True)
        key_ids = rng.integers(0, num_keys, size=nnz)
        query_ids = rng.integers(0, num_queries, size=nnz)
        return keys, queries, key_ids, query_ids

    @pytest.mark.parametrize("block_rows", [1, 3, 1024])
    def test_incidence_scores_bitwise_vs_reference(self, block_rows):
        keys, queries, key_ids, query_ids = self._incidence()
        fused = F.incidence_scores(keys, queries, key_ids, query_ids,
                                   block_rows=block_rows)
        reference = (F.gather_rows(keys, key_ids)
                     * F.gather_rows(queries, query_ids)).sum(axis=1)
        np.testing.assert_array_equal(fused.data, reference.data)

    def test_incidence_scores_empty(self):
        keys, queries, _, _ = self._incidence(nnz=0)
        out = F.incidence_scores(keys, queries, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        assert out.shape == (0,)
        (out.sum() + (keys.sum() + queries.sum()) * 0.0).backward()

    def test_incidence_scores_rejects_mismatched_ids(self):
        keys, queries, key_ids, query_ids = self._incidence()
        with pytest.raises(ValueError):
            F.incidence_scores(keys, queries, key_ids, query_ids[:-1])

    def test_incidence_scores_rejects_width_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            F.incidence_scores(Tensor(rng.normal(size=(3, 4))),
                               Tensor(rng.normal(size=(3, 5))),
                               np.array([0]), np.array([0]))

    def test_incidence_scores_rejects_mismatched_partition(self):
        keys, queries, key_ids, query_ids = self._incidence()
        wrong = SegmentPartition(np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            F.incidence_scores(keys, queries, key_ids, query_ids,
                               key_partition=wrong)

    @pytest.mark.parametrize("with_partitions", [False, True])
    def test_incidence_scores_grad_matches_reference(self, with_partitions):
        keys, queries, key_ids, query_ids = self._incidence(seed=3)
        kp = SegmentPartition(key_ids, keys.shape[0]) \
            if with_partitions else None
        qp = SegmentPartition(query_ids, queries.shape[0]) \
            if with_partitions else None
        (F.incidence_scores(keys, queries, key_ids, query_ids,
                            key_partition=kp, query_partition=qp)
         ** 2).sum().backward()
        fused_gk, fused_gq = keys.grad.copy(), queries.grad.copy()
        keys.grad = queries.grad = None
        ((F.gather_rows(keys, key_ids) * F.gather_rows(queries, query_ids))
         .sum(axis=1) ** 2).sum().backward()
        np.testing.assert_allclose(fused_gk, keys.grad, atol=1e-12)
        np.testing.assert_allclose(fused_gq, queries.grad, atol=1e-12)

    def _attend(self, seed=0, num_values=6, num_segments=5, nnz=21, dim=3):
        rng = np.random.default_rng(seed)
        att = Tensor(rng.random(size=nnz), requires_grad=True)
        values = Tensor(rng.normal(size=(num_values, dim)),
                        requires_grad=True)
        value_ids = rng.integers(0, num_values, size=nnz)
        segment_ids = rng.integers(0, num_segments, size=nnz)
        return att, values, value_ids, segment_ids, num_segments

    @pytest.mark.parametrize("block_rows", [1, 4, 1024])
    def test_segment_attend_bitwise_vs_reference(self, block_rows):
        att, values, value_ids, segment_ids, n = self._attend()
        partition = SegmentPartition(segment_ids, n)
        fused = F.segment_attend(att, values, value_ids, segment_ids, n,
                                 partition=partition, block_rows=block_rows)
        reference = _fused_reference(att, values, value_ids, segment_ids, n,
                                     partition)
        np.testing.assert_array_equal(fused.data, reference.data)

    def test_segment_attend_builds_partition_when_absent(self):
        att, values, value_ids, segment_ids, n = self._attend(seed=1)
        fused = F.segment_attend(att, values, value_ids, segment_ids, n)
        partition = SegmentPartition(segment_ids, n)
        reference = _fused_reference(att, values, value_ids, segment_ids, n,
                                     partition)
        np.testing.assert_array_equal(fused.data, reference.data)

    def test_segment_attend_empty_segments_are_zero(self):
        att = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        values = Tensor(np.ones((2, 2)), requires_grad=True)
        out = F.segment_attend(att, values, np.array([0, 1]),
                               np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data[1:], np.zeros((2, 2)))

    def test_segment_attend_empty_incidence(self):
        values = Tensor(np.ones((2, 2)), requires_grad=True)
        empty = np.array([], dtype=np.int64)
        out = F.segment_attend(Tensor(empty.astype(float),
                                      requires_grad=True),
                               values, empty, empty, 3)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_segment_attend_rejects_bad_shapes(self):
        att, values, value_ids, segment_ids, n = self._attend()
        with pytest.raises(ValueError):
            F.segment_attend(att, values, value_ids[:-1], segment_ids, n)
        with pytest.raises(ValueError):
            F.segment_attend(values, values, value_ids, segment_ids, n)
        with pytest.raises(ValueError):
            F.segment_attend(att, att, value_ids, segment_ids, n)

    @pytest.mark.parametrize("with_value_partition", [False, True])
    def test_segment_attend_grad_matches_reference(self,
                                                   with_value_partition):
        att, values, value_ids, segment_ids, n = self._attend(seed=5)
        partition = SegmentPartition(segment_ids, n)
        vp = SegmentPartition(value_ids, values.shape[0]) \
            if with_value_partition else None
        (F.segment_attend(att, values, value_ids, segment_ids, n,
                          partition=partition, value_partition=vp)
         ** 2).sum().backward()
        fused_ga, fused_gv = att.grad.copy(), values.grad.copy()
        att.grad = values.grad = None
        (_fused_reference(att, values, value_ids, segment_ids, n, partition)
         ** 2).sum().backward()
        np.testing.assert_allclose(fused_ga, att.grad, atol=1e-12)
        np.testing.assert_allclose(fused_gv, values.grad, atol=1e-12)

    def test_oversized_segment_gets_own_block(self):
        # one segment larger than block_rows must still reduce correctly
        att, values, value_ids, _, _ = self._attend(seed=7, nnz=21)
        segment_ids = np.zeros(21, dtype=np.int64)
        segment_ids[-1] = 2
        partition = SegmentPartition(segment_ids, 3)
        fused = F.segment_attend(att, values, value_ids, segment_ids, 3,
                                 partition=partition, block_rows=4)
        reference = _fused_reference(att, values, value_ids, segment_ids, 3,
                                     partition)
        np.testing.assert_array_equal(fused.data, reference.data)


class TestSparseMatmul:
    def test_values_match_dense(self):
        rng = np.random.default_rng(24)
        dense = (rng.random((5, 4)) < 0.4).astype(float)
        mat = sp.csr_matrix(dense)
        x = Tensor(rng.normal(size=(4, 3)))
        out = F.sparse_matmul(mat, x)
        np.testing.assert_allclose(out.data, dense @ x.data)

    def test_grad(self):
        rng = np.random.default_rng(25)
        dense = (rng.random((5, 4)) < 0.5).astype(float)
        mat = sp.csr_matrix(dense)
        x = _randt((4, 3), seed=26)
        w = Tensor(rng.normal(size=(5, 3)))
        gradcheck(lambda: (F.sparse_matmul(mat, x) * w).sum(), [x])

    def test_accepts_coo_input(self):
        mat = sp.coo_matrix(np.eye(3))
        x = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        out = F.sparse_matmul(mat, x)
        np.testing.assert_allclose(out.data, x.data)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=5))
def test_property_segment_sum_total_preserved(n, k):
    rng = np.random.default_rng(n * 7 + k)
    x = Tensor(rng.normal(size=(n, 2)))
    seg = rng.integers(0, k, size=n)
    out = F.segment_sum(x, seg, k)
    np.testing.assert_allclose(out.data.sum(axis=0), x.data.sum(axis=0))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=5))
def test_property_segment_softmax_probabilities(n, k):
    rng = np.random.default_rng(n * 13 + k)
    seg = rng.integers(0, k, size=n)
    out = F.segment_softmax(Tensor(rng.normal(size=n) * 10), seg, k)
    assert np.all(out.data > 0) and np.all(out.data <= 1.0 + 1e-12)
    for seg_id in np.unique(seg):
        assert out.data[seg == seg_id].sum() == pytest.approx(1.0)


@st.composite
def _gather_cases(draw):
    """(indices, grad, rows, dtype) with repeats, unsorted, one-row and
    empty index arrays over 2-D and 3-D operands."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rows = draw(st.integers(min_value=1, max_value=8))
    tail = draw(st.sampled_from([(3,), (2, 3)]))
    pattern = draw(st.sampled_from(["random", "one-row", "empty"]))
    count = 0 if pattern == "empty" else draw(st.integers(1, 40))
    if pattern == "one-row":
        indices = np.full(count, draw(st.integers(0, rows - 1)))
    else:
        indices = np.array(draw(st.lists(st.integers(0, rows - 1),
                                         min_size=count, max_size=count)),
                           dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Mixed magnitudes, so a different summation order shows in the bits.
    shape = (count,) + tail
    grad = (rng.standard_normal(shape)
            * 10.0 ** rng.integers(-6, 7, size=shape)).astype(dtype)
    return indices, grad, rows, dtype


@settings(max_examples=80, deadline=None)
@given(_gather_cases())
def test_property_gather_rows_backward_is_add_at_bitwise(case):
    indices, grad, rows, dtype = case
    reference = np.zeros((rows,) + grad.shape[1:], dtype=dtype)
    np.add.at(reference, indices, grad)
    x = Tensor(np.zeros(reference.shape), requires_grad=True)
    x.data = x.data.astype(dtype)
    out = Tensor(np.zeros(grad.shape))
    out.grad = grad
    ctx = {"indices": indices}
    for _ in range(2):      # the second call reuses the cached matrix
        (scattered,) = F._gather_rows_backward(ctx, out, x)
        assert scattered.dtype == dtype
        assert scattered.tobytes() == reference.tobytes()
    if dtype == np.float64:
        # The same bits through the public op and the eager engine.
        x = Tensor(np.zeros(reference.shape), requires_grad=True)
        F.gather_rows(x, indices).backward(grad)
        assert x.grad.tobytes() == reference.tobytes()
