"""Differentiable functions for :mod:`repro.nn`.

Beyond the usual activations this module provides the *segment* operations
(``segment_sum``, ``segment_softmax``, ``segment_mean``) that make sparse
message passing tractable: hypergraph attention (HyGNN Eqs. 4-9) and graph
attention (GAT) are both softmaxes over variable-sized neighbourhoods, which
we flatten into (entry, segment-id) pairs and normalise per segment.  The
fused kernels ``incidence_scores`` and ``segment_attend`` compute the two
expensive halves of that attention — per-incidence bilinear scores and the
attention-weighted aggregation — blockwise, without the ``(nnz, d)``
intermediates the composed ops materialise, while preserving their
summation order bitwise.

Every op follows the registry contract of :func:`repro.nn.tensor.apply_op`:
a ``forward(ctx, *arrays, out=None)`` / ``backward(ctx, out, *parents)``
pair that reads current values at call time, so recorded nodes can be
replayed by :class:`repro.nn.tape.Tape` with new leaf values and reused
scratch buffers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import (DEFAULT_DTYPE, Tensor, apply_op, ctx_buffer, ctx_zeros,
                     grads_suspended, tape_shield, topological_order,
                     unbroadcast)


# ---------------------------------------------------------------------------
# Elementwise activations
# ---------------------------------------------------------------------------

def _relu_forward(ctx, x, out=None):
    mask = np.greater(x, 0, out=ctx_buffer(ctx, "mask", x.shape, bool))
    return np.multiply(x, mask, out=out)


def _relu_backward(ctx, out, x):
    return (np.multiply(out.grad, ctx["mask"],
                        out=ctx_buffer(ctx, "ga", out.grad.shape)),)


def relu(x: Tensor) -> Tensor:
    return apply_op("relu", (x,), _relu_forward, _relu_backward)


def _leaky_relu_forward(ctx, x, out=None):
    mask = np.greater(x, 0, out=ctx_buffer(ctx, "mask", x.shape, bool))
    scale = ctx_buffer(ctx, "scale", x.shape, x.dtype)
    np.copyto(scale, ctx["negative_slope"])
    np.copyto(scale, 1.0, where=mask)
    return np.multiply(x, scale, out=out)


def _leaky_relu_backward(ctx, out, x):
    return (np.multiply(out.grad, ctx["scale"],
                        out=ctx_buffer(ctx, "ga", out.grad.shape)),)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU, the encoder-side activation the paper uses (Sec. IV-B)."""
    return apply_op("leaky_relu", (x,), _leaky_relu_forward,
                    _leaky_relu_backward,
                    ctx={"negative_slope": negative_slope})


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable piecewise sigmoid on a raw numpy array.

    Shared by the ``sigmoid`` op and the BCE-with-logits gradient.  Each
    branch is evaluated only on the elements it is selected for (an
    ``np.where`` over both full branches would pay two ``exp`` passes per
    element and need clips to silence overflow in the discarded branch);
    on its own branch each formula is overflow-free, and per-element
    results are identical to the two-sided formulation.
    """
    z = np.asarray(z)
    positive = z >= 0
    negative = ~positive
    out = np.empty_like(
        z, dtype=z.dtype if np.issubdtype(z.dtype, np.floating)
        else np.float64)
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[negative])
    out[negative] = exp_z / (1.0 + exp_z)
    return out


def _sigmoid_forward(ctx, x, out=None):
    result = stable_sigmoid(x)
    if out is not None:
        np.copyto(out, result)
        return out
    return result


def _sigmoid_backward(ctx, out, x):
    return (out.grad * out.data * (1.0 - out.data),)


def sigmoid(x: Tensor) -> Tensor:
    return apply_op("sigmoid", (x,), _sigmoid_forward, _sigmoid_backward)


def _tanh_forward(ctx, x, out=None):
    return np.tanh(x, out=out)


def _tanh_backward(ctx, out, x):
    return (out.grad * (1.0 - out.data ** 2),)


def tanh(x: Tensor) -> Tensor:
    return apply_op("tanh", (x,), _tanh_forward, _tanh_backward)


def _elu_forward(ctx, x, out=None):
    alpha = ctx["alpha"]
    mask = np.greater(x, 0, out=ctx_buffer(ctx, "mask", x.shape, bool))
    exp_part = alpha * (np.exp(np.clip(x, None, 50)) - 1.0)
    ctx["exp_part"] = exp_part
    result = np.where(mask, x, exp_part)
    if out is not None:
        np.copyto(out, result)
        return out
    return result


def _elu_backward(ctx, out, x):
    alpha = ctx["alpha"]
    return (out.grad * np.where(ctx["mask"], 1.0, ctx["exp_part"] + alpha),)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    return apply_op("elu", (x,), _elu_forward, _elu_backward,
                    ctx={"alpha": alpha})


def _softmax_forward(ctx, x, out=None):
    axis = ctx["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return np.divide(exps, exps.sum(axis=axis, keepdims=True), out=out)


def _softmax_backward(ctx, out, x):
    axis = ctx["axis"]
    dot = (out.grad * out.data).sum(axis=axis, keepdims=True)
    return (out.data * (out.grad - dot),)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op("softmax", (x,), _softmax_forward, _softmax_backward,
                    ctx={"axis": axis})


def _log_softmax_forward(ctx, x, out=None):
    axis = ctx["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, log_z, out=out)


def _log_softmax_backward(ctx, out, x):
    axis = ctx["axis"]
    soft = np.exp(out.data)
    return (out.grad - soft * out.grad.sum(axis=axis, keepdims=True),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op("log_softmax", (x,), _log_softmax_forward,
                    _log_softmax_backward, ctx={"axis": axis})


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------

def _concat_forward(ctx, *datas, out=None):
    return np.concatenate(datas, axis=ctx["axis"], out=out)


def _concat_backward(ctx, out, *parents):
    axis = ctx["axis"]
    offsets = ctx["offsets"]
    grads = []
    for parent, start, stop in zip(parents, offsets[:-1], offsets[1:]):
        if parent.requires_grad:
            index = [slice(None)] * out.grad.ndim
            index[axis] = slice(start, stop)
            grads.append(out.grad[tuple(index)])
        else:
            grads.append(None)
    return grads


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    return apply_op("concat", tuple(tensors), _concat_forward,
                    _concat_backward, ctx={"axis": axis, "offsets": offsets})


def _gather_rows_forward(ctx, x, out=None):
    return np.take(x, ctx["indices"], axis=0, out=out)


def _selection_matrix(indices: np.ndarray, rows: int,
                      dtype) -> sp.csr_matrix:
    """CSR ``(rows, len(indices))`` matrix of ones at ``[indices[k], k]``.

    Each row lists its entries in increasing ``k`` (a stable sort of
    ``indices``), so ``select @ grad`` sums every row's gathered gradients
    in the order ``np.add.at`` adds them into zeros, and gives the same
    bits.  The entries carry the operand's ``dtype`` so a float32 gradient
    is summed in float32, as ``add.at`` sums it.
    """
    indices = np.where(indices < 0, indices + rows, indices)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=rows), out=indptr[1:])
    return sp.csr_matrix((np.ones(indices.size, dtype=dtype),
                          np.argsort(indices, kind="stable"), indptr),
                         shape=(rows, indices.size))


def _gather_rows_backward(ctx, out, x):
    shape = x.data.shape
    select = ctx.get("select")
    if select is None:
        select = ctx["select"] = _selection_matrix(ctx["indices"], shape[0],
                                                   x.data.dtype)
    width = int(np.prod(shape[1:]))
    grad = out.grad.reshape(len(ctx["indices"]), width)
    return ((select @ grad).reshape(shape),)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``x[indices]``; the gradient is scattered back through a
    cached 0/1 selection matrix, bitwise equal to ``np.add.at``."""
    indices = np.asarray(indices, dtype=np.int64)
    return apply_op("gather_rows", (x,), _gather_rows_forward,
                    _gather_rows_backward, ctx={"indices": indices})


def _dropout_forward(ctx, x, out=None):
    mask = (ctx["rng"].random(x.shape) >= ctx["p"]) / (1.0 - ctx["p"])
    ctx["mask"] = mask
    return np.multiply(x, mask, out=out)


def _dropout_backward(ctx, out, x):
    return (np.multiply(out.grad, ctx["mask"],
                        out=ctx_buffer(ctx, "ga", out.grad.shape)),)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``.

    The mask is drawn inside the op's forward function, so a taped dropout
    node resamples a fresh mask from the *same* generator stream on every
    replay — epoch-by-epoch masks match the eager loop's exactly.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return apply_op("dropout", (x,), _dropout_forward, _dropout_backward,
                    ctx={"p": p, "rng": rng})


# ---------------------------------------------------------------------------
# Segment ops (sparse attention / message passing kernels)
# ---------------------------------------------------------------------------

def _check_segments(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1:
        raise ValueError("segment_ids must be 1-D")
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    return segment_ids


class SegmentPartition:
    """Precomputed grouping of rows by segment id.

    ``np.add.at`` / ``np.maximum.at`` are unbuffered ufunc loops — correct but
    slow.  When the same ``segment_ids`` array drives many segment ops (every
    encoder layer re-groups the identical incidence list), it pays to sort the
    rows by segment once and reduce contiguous slices with ``ufunc.reduceat``.
    This object caches that sort: the stable permutation ``order`` (``None``
    when the ids are already sorted, so no gather is needed), per-segment
    ``counts``, and the slice ``starts`` of the non-empty segments.

    The stable sort preserves each segment's row order, so the fast path
    reduces the same values in the same logical order as the scatter path;
    results agree to floating-point round-off (``reduceat`` may use numpy's
    pairwise inner loop, so the last bits can differ from ``add.at``).
    """

    __slots__ = ("num_segments", "size", "order", "counts",
                 "nonempty", "reduce_starts", "_inv_counts", "_plans")

    def __init__(self, segment_ids: np.ndarray, num_segments: int):
        segment_ids = _check_segments(segment_ids, num_segments)
        self.num_segments = int(num_segments)
        self.size = segment_ids.size
        if segment_ids.size == 0 or np.all(segment_ids[:-1] <= segment_ids[1:]):
            self.order = None
        else:
            self.order = np.argsort(segment_ids, kind="stable")
        self.counts = np.bincount(segment_ids, minlength=num_segments)
        starts = np.zeros(num_segments, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=starts[1:])
        self.nonempty = np.flatnonzero(self.counts)
        self.reduce_starts = starts[self.nonempty]
        self._inv_counts: np.ndarray | None = None
        self._plans: dict[int, tuple] = {}

    @property
    def inv_counts(self) -> np.ndarray:
        """Cached ``1 / max(counts, 1)`` — the :func:`segment_mean` scale.

        Computed once per partition instead of on every call (and every tape
        replay): the partition is immutable, so the reciprocal never changes.
        """
        if self._inv_counts is None:
            self._inv_counts = 1.0 / np.maximum(
                self.counts.astype(DEFAULT_DTYPE), 1.0)
        return self._inv_counts

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Rows of ``values`` reordered so each segment is contiguous."""
        return values if self.order is None else values[self.order]

    def reduce_plan(self, block_rows: int) -> tuple:
        """Cached blocking of the sorted rows into whole-segment chunks.

        Returns ``(blocks, max_rows, max_segments)`` where each block is
        ``(seg_lo, seg_hi, row_lo, row_hi, local_starts)``: a run of
        consecutive *non-empty* segments whose rows span
        ``[row_lo, row_hi)`` in partition order, at most ``block_rows`` rows
        unless a single segment alone exceeds the budget.  Because blocks
        never split a segment, a per-block ``add.reduceat`` produces exactly
        the same per-segment sums as one ``reduceat`` over the full sorted
        array — that is what keeps the fused kernels bitwise-identical to
        :meth:`reduce`.
        """
        plan = self._plans.get(block_rows)
        if plan is None:
            starts = self.reduce_starts
            blocks: list[tuple] = []
            max_rows = max_segments = 0
            if starts.size:
                ends = np.append(starts[1:], self.size)
                i, nseg = 0, starts.size
                while i < nseg:
                    row_lo = int(starts[i])
                    j = int(np.searchsorted(ends, row_lo + block_rows,
                                            side="right"))
                    if j <= i:      # one oversized segment gets its own block
                        j = i + 1
                    row_hi = int(ends[j - 1])
                    blocks.append((i, j, row_lo, row_hi, starts[i:j] - row_lo))
                    max_rows = max(max_rows, row_hi - row_lo)
                    max_segments = max(max_segments, j - i)
                    i = j
            plan = (blocks, max_rows, max_segments)
            self._plans[block_rows] = plan
        return plan

    def reduce(self, values: np.ndarray, ufunc=np.add,
               out: np.ndarray | None = None) -> np.ndarray:
        """Per-segment ``ufunc`` reduction; empty segments keep ``out``'s fill."""
        if out is None:
            out = np.zeros((self.num_segments,) + values.shape[1:],
                           dtype=values.dtype)
        if self.size != len(values):
            raise ValueError("partition size does not match values")
        if self.reduce_starts.size:
            out[self.nonempty] = ufunc.reduceat(
                self.gather(values), self.reduce_starts, axis=0)
        return out


def _check_partition(partition: SegmentPartition | None,
                     segment_ids: np.ndarray, num_segments: int) -> None:
    if partition is None:
        return
    if (partition.num_segments != num_segments
            or partition.size != segment_ids.size):
        raise ValueError("partition does not match segment_ids/num_segments")


def _segment_sum_forward(ctx, x, out=None):
    partition: SegmentPartition | None = ctx["partition"]
    num_segments = ctx["num_segments"]
    if out is None:
        out = np.zeros((num_segments,) + x.shape[1:], dtype=x.dtype)
    else:
        out.fill(0)
    if partition is not None:
        return partition.reduce(x, out=out)
    np.add.at(out, ctx["segment_ids"], x)
    return out


def _segment_sum_backward(ctx, out, x):
    return (np.take(out.grad, ctx["segment_ids"], axis=0,
                    out=ctx_buffer(ctx, "ga", x.data.shape, x.data.dtype)),)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int,
                partition: SegmentPartition | None = None) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given per-row ids.

    ``partition``, when given, must be a :class:`SegmentPartition` built from
    the same ``segment_ids``; it replaces the ``np.add.at`` scatter with a
    cached-sort ``reduceat`` — equal to round-off, much faster on large graphs.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    _check_partition(partition, segment_ids, num_segments)
    return apply_op("segment_sum", (x,), _segment_sum_forward,
                    _segment_sum_backward,
                    ctx={"segment_ids": segment_ids,
                         "num_segments": num_segments,
                         "partition": partition})


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int,
                 partition: SegmentPartition | None = None) -> Tensor:
    """Per-segment mean; empty segments produce zeros."""
    segment_ids = _check_segments(segment_ids, num_segments)
    if partition is not None:
        inv = partition.inv_counts          # cached reciprocal counts
    else:
        counts = np.bincount(segment_ids, minlength=num_segments).astype(x.data.dtype)
        inv = 1.0 / np.maximum(counts, 1.0)
    summed = segment_sum(x, segment_ids, num_segments, partition=partition)
    scale = inv.reshape((num_segments,) + (1,) * (x.ndim - 1))
    return summed * Tensor(scale)


def _segment_softmax_forward(ctx, scores, out=None):
    partition: SegmentPartition | None = ctx["partition"]
    segment_ids = ctx["segment_ids"]
    num_segments = ctx["num_segments"]
    # Per-segment max for numerical stability.
    seg_max = ctx_buffer(ctx, "seg_max", (num_segments,), scores.dtype)
    seg_max.fill(-np.inf)
    if partition is not None:
        partition.reduce(scores, ufunc=np.maximum, out=seg_max)
    else:
        np.maximum.at(seg_max, segment_ids, scores)
    per_entry = ctx_buffer(ctx, "per_entry", scores.shape, scores.dtype)
    np.take(seg_max, segment_ids, out=per_entry)
    shifted = np.subtract(scores, per_entry, out=per_entry)
    exps = np.exp(shifted, out=shifted)
    seg_sum = ctx_zeros(ctx, "seg_sum", (num_segments,), scores.dtype)
    if partition is not None:
        partition.reduce(exps, out=seg_sum)
    else:
        np.add.at(seg_sum, segment_ids, exps)
    return np.divide(exps, seg_sum[segment_ids], out=out)


def _segment_softmax_backward(ctx, out, scores):
    partition: SegmentPartition | None = ctx["partition"]
    segment_ids = ctx["segment_ids"]
    num_segments = ctx["num_segments"]
    weighted = np.multiply(out.grad, out.data,
                           out=ctx_buffer(ctx, "weighted", out.data.shape,
                                          out.data.dtype))
    seg_dot = ctx_zeros(ctx, "seg_dot", (num_segments,), out.data.dtype)
    if partition is not None:
        partition.reduce(weighted, out=seg_dot)
    else:
        np.add.at(seg_dot, segment_ids, weighted)
    return (weighted - out.data * seg_dot[segment_ids],)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int,
                    partition: SegmentPartition | None = None) -> Tensor:
    """Softmax of ``scores`` normalised independently within each segment.

    ``scores`` is 1-D with one entry per (member, group) incidence; the output
    has the same shape and sums to 1 within every segment.  This is the kernel
    behind the attention coefficients of HyGNN Eqs. (5) and (8) and of GAT.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    _check_partition(partition, segment_ids, num_segments)
    if scores.data.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores")
    return apply_op("segment_softmax", (scores,), _segment_softmax_forward,
                    _segment_softmax_backward,
                    ctx={"segment_ids": segment_ids,
                         "num_segments": num_segments,
                         "partition": partition})


# ---------------------------------------------------------------------------
# Fused attention kernels (blockwise, no (nnz, d) intermediates)
# ---------------------------------------------------------------------------
#
# The HyGNN attention levels (Eqs. 4-9) are, per level:
#
#   scores[k]  = sum_d keys[key_ids[k], d] * queries[query_ids[k], d]
#   att        = segment_softmax(leaky_relu(scores), segment_ids)
#   out[s]     = sum_{k in seg(s)} att[k] * transformed[value_ids[k]]
#
# Composed from gather_rows / mul / sum / segment_sum, that materialises five
# (nnz, d) intermediates per level.  ``incidence_scores`` and
# ``segment_attend`` compute the same quantities streamed through
# O(block * d) scratch instead.  Both are registry-style op pairs, so tapes
# record and replay them with ctx-cached scratch, and both preserve the
# unfused summation order exactly: row dots reduce each row independently
# (identical to ``(a * b).sum(axis=1)``), and the attention-weighted SpMM
# reduces whole segments per block in the cached ``SegmentPartition`` order
# (identical to ``partition.reduce``), so outputs are bitwise-equal to the
# unfused composition.

# Scratch blocks target ~this many bytes per buffer; at hidden 128 that is
# 512 rows — big enough to amortise the python loop, small enough to stay
# cache-resident and keep peak scratch far below the (nnz, d) buffers.
_FUSED_BLOCK_BYTES = 512 * 1024


def _default_block_rows(dim: int, itemsize: int = 8) -> int:
    return max(128, _FUSED_BLOCK_BYTES // max(1, dim * itemsize))


def _blockwise_row_dot(a_table, a_ids, b_table, b_ids, out, ctx, prefix,
                       block_rows):
    """``out[k] = sum_d a_table[a_ids[k]] * b_table[b_ids[k]]`` blockwise.

    Row reductions are independent, so computing them in (block, d) chunks
    is bitwise-identical to ``(a_table[a_ids] * b_table[b_ids]).sum(axis=1)``
    without ever materialising the two (nnz, d) gathers or their product.
    """
    n = a_ids.size
    if n == 0:
        return out
    dim = a_table.shape[1]
    rows = min(n, block_rows)
    sa = ctx_buffer(ctx, prefix + "a", (rows, dim), a_table.dtype)
    sb = ctx_buffer(ctx, prefix + "b", (rows, dim), b_table.dtype)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        m = hi - lo
        np.take(a_table, a_ids[lo:hi], axis=0, out=sa[:m])
        np.take(b_table, b_ids[lo:hi], axis=0, out=sb[:m])
        np.multiply(sa[:m], sb[:m], out=sa[:m])
        np.sum(sa[:m], axis=1, out=out[lo:hi])
    return out


def _segment_scaled_gather_sum(partition, values, value_ids_sorted,
                               weights_sorted, out, ctx, prefix, block_rows):
    """``out[s] = sum_{k in seg(s)} weights[k] * values[value_ids[k]]``.

    Entries arrive in partition (segment-contiguous) order; each block of
    whole segments is gathered into scratch, scaled in place, and reduced
    with a local ``add.reduceat`` — the same per-segment slices, hence the
    same floating-point sums, as one ``reduceat`` over the full sorted
    (nnz, d) array.  Empty segments keep ``out``'s prior fill.
    """
    blocks, max_rows, max_segments = partition.reduce_plan(block_rows)
    if not blocks:
        return out
    dim = values.shape[1]
    scratch = ctx_buffer(ctx, prefix + "rows", (max_rows, dim), values.dtype)
    seg_out = ctx_buffer(ctx, prefix + "segs", (max_segments, dim),
                         values.dtype)
    nonempty = partition.nonempty
    for seg_lo, seg_hi, row_lo, row_hi, local_starts in blocks:
        m = row_hi - row_lo
        k = seg_hi - seg_lo
        np.take(values, value_ids_sorted[row_lo:row_hi], axis=0,
                out=scratch[:m])
        np.multiply(scratch[:m], weights_sorted[row_lo:row_hi, None],
                    out=scratch[:m])
        np.add.reduceat(scratch[:m], local_starts, axis=0, out=seg_out[:k])
        out[nonempty[seg_lo:seg_hi]] = seg_out[:k]
    return out


def _scatter_scaled_rows(grad, ids, src_table, src_ids, weights, ctx, prefix,
                         block_rows):
    """``grad[ids[k]] += weights[k] * src_table[src_ids[k]]`` blockwise.

    Fallback scatter for backward passes without a cached partition over
    ``ids`` — unbuffered ``np.add.at``, but still O(block * d) scratch.
    """
    n = ids.size
    if n == 0:
        return grad
    dim = src_table.shape[1]
    rows = min(n, block_rows)
    scratch = ctx_buffer(ctx, prefix + "rows", (rows, dim), src_table.dtype)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        m = hi - lo
        np.take(src_table, src_ids[lo:hi], axis=0, out=scratch[:m])
        np.multiply(scratch[:m], weights[lo:hi, None], out=scratch[:m])
        np.add.at(grad, ids[lo:hi], scratch[:m])
    return grad


def _sorted_ids(ctx, key, partition, ids):
    """Cache ``ids`` reordered into ``partition``'s segment-contiguous order."""
    cached = ctx.get(key)
    if cached is None:
        cached = partition.gather(ids)
        ctx[key] = cached
    return cached


def _sorted_weights(ctx, key, partition, weights):
    """``weights`` in partition order, via a reused scratch buffer."""
    if partition.order is None:
        return weights
    return np.take(weights, partition.order,
                   out=ctx_buffer(ctx, key, weights.shape, weights.dtype))


def _partition_grad_scatter(ctx, partition, ids_key, other_ids, src_table,
                            weights, grad, prefix):
    """Partitioned scatter: segment-sort the entries by the gradient's row
    id, then reuse the scaled-gather-reduce kernel (reduceat instead of the
    unbuffered ``add.at``)."""
    block_rows = ctx["block_rows"]
    src_ids_sorted = _sorted_ids(ctx, ids_key, partition, other_ids)
    weights_sorted = _sorted_weights(ctx, prefix + "w", partition, weights)
    return _segment_scaled_gather_sum(partition, src_table, src_ids_sorted,
                                      weights_sorted, grad, ctx, prefix,
                                      block_rows)


def _incidence_scores_forward(ctx, keys, queries, out=None):
    key_ids, query_ids = ctx["key_ids"], ctx["query_ids"]
    if out is None:
        out = np.empty(key_ids.shape, dtype=keys.dtype)
    out = _blockwise_row_dot(keys, key_ids, queries, query_ids, out, ctx,
                             "f_", ctx["block_rows"])
    slope = ctx.get("negative_slope")
    if slope is not None:
        # Fused LeakyReLU: same mask/scale/multiply arithmetic as the
        # standalone op, applied in place on the fresh scores — one fewer
        # O(nnz) read+write pass, bitwise-identical values.
        mask = np.greater(out, 0, out=ctx_buffer(ctx, "lr_mask", out.shape,
                                                 bool))
        scale = ctx_buffer(ctx, "lr_scale", out.shape, out.dtype)
        np.copyto(scale, slope)
        np.copyto(scale, 1.0, where=mask)
        np.multiply(out, scale, out=out)
    return out


def _incidence_scores_backward(ctx, out, keys, queries):
    grad = out.grad
    if ctx.get("negative_slope") is not None:
        # Chain through the fused activation first: d(raw)/d(score) is the
        # cached scale — the same multiply the standalone backward does.
        grad = np.multiply(grad, ctx["lr_scale"],
                           out=ctx_buffer(ctx, "lr_g", grad.shape,
                                          grad.dtype))
    key_ids, query_ids = ctx["key_ids"], ctx["query_ids"]
    block_rows = ctx["block_rows"]
    grad_keys = grad_queries = None
    if keys.requires_grad:
        grad_keys = ctx_zeros(ctx, "gk", keys.data.shape, keys.data.dtype)
        partition = ctx["key_partition"]
        if partition is not None:
            _partition_grad_scatter(ctx, partition, "q_by_k", query_ids,
                                    queries.data, grad, grad_keys, "bk_")
        else:
            _scatter_scaled_rows(grad_keys, key_ids, queries.data, query_ids,
                                 grad, ctx, "bk_", block_rows)
    if queries.requires_grad:
        grad_queries = ctx_zeros(ctx, "gq", queries.data.shape,
                                 queries.data.dtype)
        partition = ctx["query_partition"]
        if partition is not None:
            _partition_grad_scatter(ctx, partition, "k_by_q", key_ids,
                                    keys.data, grad, grad_queries, "bq_")
        else:
            _scatter_scaled_rows(grad_queries, query_ids, keys.data, key_ids,
                                 grad, ctx, "bq_", block_rows)
    return grad_keys, grad_queries


def _check_index_partition(partition: SegmentPartition | None,
                           ids: np.ndarray, num_rows: int, name: str) -> None:
    if partition is None:
        return
    if partition.num_segments != num_rows or partition.size != ids.size:
        raise ValueError(f"{name} does not match the ids/table it groups")


def incidence_scores(keys: Tensor, queries: Tensor, key_ids: np.ndarray,
                     query_ids: np.ndarray, *,
                     key_partition: SegmentPartition | None = None,
                     query_partition: SegmentPartition | None = None,
                     block_rows: int | None = None,
                     negative_slope: float | None = None) -> Tensor:
    """Per-incidence bilinear scores ``sum_d keys[key_ids]·queries[query_ids]``.

    The fused Eq. (6)/(9) kernel: a 1-D score per (node, hyperedge)
    incidence entry, computed blockwise so the two gathered ``(nnz, a)``
    operands and their product are never materialised — bitwise-identical to
    ``(gather_rows(keys, key_ids) * gather_rows(queries, query_ids)).sum(1)``.

    ``negative_slope`` additionally fuses a LeakyReLU onto the scores in
    the same kernel (two fewer O(nnz) passes over the score vector than a
    separate activation op), bitwise-identical — forward values and
    gradients — to ``leaky_relu(incidence_scores(...), negative_slope)``.

    ``key_partition`` / ``query_partition`` are optional
    :class:`SegmentPartition` groupings of the incidence entries by
    ``key_ids`` / ``query_ids``; when given, the backward scatter runs as a
    cached-sort ``reduceat`` instead of an unbuffered ``np.add.at``
    (round-off-level gradient difference, large speedup).
    """
    key_ids = np.asarray(key_ids, dtype=np.int64)
    query_ids = np.asarray(query_ids, dtype=np.int64)
    if key_ids.ndim != 1 or key_ids.shape != query_ids.shape:
        raise ValueError("key_ids and query_ids must be equal-length 1-D")
    if keys.data.ndim != 2 or queries.data.ndim != 2 \
            or keys.data.shape[1] != queries.data.shape[1]:
        raise ValueError("keys and queries must be 2-D with equal width")
    _check_index_partition(key_partition, key_ids, keys.data.shape[0],
                           "key_partition")
    _check_index_partition(query_partition, query_ids, queries.data.shape[0],
                           "query_partition")
    if block_rows is None:
        block_rows = _default_block_rows(keys.data.shape[1])
    return apply_op("incidence_scores", (keys, queries),
                    _incidence_scores_forward, _incidence_scores_backward,
                    ctx={"key_ids": key_ids, "query_ids": query_ids,
                         "key_partition": key_partition,
                         "query_partition": query_partition,
                         "block_rows": block_rows,
                         "negative_slope": negative_slope})


def _segment_attend_forward(ctx, att, values, out=None):
    partition: SegmentPartition = ctx["partition"]
    if out is None:
        out = np.zeros((partition.num_segments,) + values.shape[1:],
                       dtype=values.dtype)
    else:
        out.fill(0)
    value_ids_sorted = _sorted_ids(ctx, "v_by_s", partition, ctx["value_ids"])
    weights_sorted = _sorted_weights(ctx, "fw_w", partition, att)
    return _segment_scaled_gather_sum(partition, values, value_ids_sorted,
                                      weights_sorted, out, ctx, "fw_",
                                      ctx["block_rows"])


def _segment_attend_backward(ctx, out, att, values):
    grad = out.grad
    segment_ids, value_ids = ctx["segment_ids"], ctx["value_ids"]
    block_rows = ctx["block_rows"]
    grad_att = grad_values = None
    if att.requires_grad:
        grad_att = ctx_buffer(ctx, "g_att", att.data.shape, att.data.dtype)
        _blockwise_row_dot(grad, segment_ids, values.data, value_ids,
                           grad_att, ctx, "ba_", block_rows)
    if values.requires_grad:
        grad_values = ctx_zeros(ctx, "g_val", values.data.shape,
                                values.data.dtype)
        partition = ctx["value_partition"]
        if partition is not None:
            _partition_grad_scatter(ctx, partition, "s_by_v", segment_ids,
                                    grad, att.data, grad_values, "bv_")
        else:
            _scatter_scaled_rows(grad_values, value_ids, grad, segment_ids,
                                 att.data, ctx, "bv_", block_rows)
    return grad_att, grad_values


def segment_attend(att: Tensor, values: Tensor, value_ids: np.ndarray,
                   segment_ids: np.ndarray, num_segments: int, *,
                   partition: SegmentPartition | None = None,
                   value_partition: SegmentPartition | None = None,
                   block_rows: int | None = None) -> Tensor:
    """Attention-weighted SpMM ``out[s] = Σ_{k∈seg(s)} att[k]·values[value_ids[k]]``.

    The fused Eq. (4)/(7) aggregation: streams the incidence entries through
    ``partition``'s cached CSR order in O(block · d) scratch, never
    materialising the ``(nnz, d)`` gather or ``messages`` buffer — and keeps
    every segment's summation order identical to the unfused
    ``segment_sum(gather_rows(values, value_ids) * att[:, None], ...)``
    composition with the same partition, so results are bitwise-equal.

    ``partition`` groups entries by ``segment_ids`` (built here when absent);
    ``value_partition`` optionally groups them by ``value_ids`` to turn the
    backward scatter into a cached-sort ``reduceat``.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    value_ids = np.asarray(value_ids, dtype=np.int64)
    if value_ids.ndim != 1 or value_ids.shape != segment_ids.shape:
        raise ValueError("value_ids and segment_ids must be equal-length 1-D")
    if att.data.ndim != 1 or att.data.shape != segment_ids.shape:
        raise ValueError("att must be 1-D with one entry per incidence")
    if values.data.ndim != 2:
        raise ValueError("values must be 2-D")
    _check_partition(partition, segment_ids, num_segments)
    _check_index_partition(value_partition, value_ids, values.data.shape[0],
                           "value_partition")
    if partition is None:
        partition = SegmentPartition(segment_ids, num_segments)
    if block_rows is None:
        block_rows = _default_block_rows(values.data.shape[1])
    return apply_op("segment_attend", (att, values),
                    _segment_attend_forward, _segment_attend_backward,
                    ctx={"segment_ids": segment_ids, "value_ids": value_ids,
                         "partition": partition,
                         "value_partition": value_partition,
                         "block_rows": block_rows})


def _sparse_matmul_forward(ctx, x, out=None):
    return ctx["csr"] @ x


def _sparse_matmul_backward(ctx, out, x):
    return (ctx["csr"].T @ out.grad,)


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a constant scipy sparse matrix with a dense tensor.

    The sparse structure carries no gradient (it encodes graph topology); the
    gradient w.r.t. ``x`` is ``matrix.T @ grad`` (``.T`` is an O(1) CSC view,
    so it is taken per backward call rather than materialised up front).
    """
    return apply_op("sparse_matmul", (x,), _sparse_matmul_forward,
                    _sparse_matmul_backward, ctx={"csr": matrix.tocsr()})


# ---------------------------------------------------------------------------
# Losses-adjacent helpers
# ---------------------------------------------------------------------------

def _clip_forward(ctx, x, out=None):
    low, high = ctx["low"], ctx["high"]
    mask = np.logical_and(x > low, x < high,
                          out=ctx_buffer(ctx, "mask", x.shape, bool))
    return np.clip(x, low, high, out=out)


def _clip_backward(ctx, out, x):
    return (out.grad * ctx["mask"],)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through only inside the interval."""
    return apply_op("clip", (x,), _clip_forward, _clip_backward,
                    ctx={"low": low, "high": high})


# ---------------------------------------------------------------------------
# Recompute-in-backward checkpointing (memory-lean deep training)
# ---------------------------------------------------------------------------

def _checkpoint_input_freed(ctx, x_data) -> bool:
    return x_data.size == 0 and ctx["input_size"] != 0


def _invertible_checkpoint_forward(ctx, x_data, *param_datas, out=None):
    """Run the wrapped subgraph as a pure value computation, then free x.

    The subgraph is executed with every captured tensor's ``requires_grad``
    suspended and a tape shield in place, so no closure graph is built and
    no inner op reaches an enclosing tape — the checkpoint is one opaque
    node.  When ``free_input`` is set the input activation is replaced with
    a zero-size placeholder; backward reconstructs it via ``fn_inverse``.
    """
    fn = ctx["fn"]
    captured = ctx["captured"]
    with tape_shield(), grads_suspended(captured):
        result = fn(Tensor(x_data))
    if not isinstance(result, Tensor):
        raise TypeError("invertible_checkpoint fn must return a Tensor")
    if ctx["free_input"]:
        holder = ctx["input_ref"]
        holder.data = np.empty(0, dtype=x_data.dtype)
    return result.data


def _release_recompute_graph(root: Tensor, protect: set[int]) -> None:
    """Dismantle a transient eager graph so refcounting frees it promptly.

    Every grad-carrying node holds a ``_backward`` closure that refers back
    to the node — a reference cycle only the garbage collector would break.
    Chained checkpoint backwards would therefore stack every block's
    recompute scratch until a collection ran, defeating the O(1)-in-depth
    memory claim; clearing the closures and parent links here makes each
    block's graph die the moment its backward returns.  Externally owned
    tensors (the captured params, which belong to the outer graph) are
    protected.
    """
    for node in topological_order(root):
        if id(node) in protect:
            continue
        node._backward = None
        node._parents = ()
        node.grad = None


def _invertible_checkpoint_backward(ctx, out, x, *params):
    fn, fn_inverse = ctx["fn"], ctx["fn_inverse"]
    captured = ctx["captured"]
    if _checkpoint_input_freed(ctx, x.data):
        # Reconstruct the freed input from the output (reversible blocks)
        # and restore it so upstream backward functions see valid data.
        with tape_shield(), grads_suspended(captured):
            x_data = fn_inverse(Tensor(out.data)).numpy()
        if x_data.shape != ctx["input_shape"]:
            raise ValueError(
                f"fn_inverse produced shape {x_data.shape}, expected the "
                f"recorded input shape {ctx['input_shape']}")
        x.data = np.ascontiguousarray(x_data, dtype=out.data.dtype)
    # Re-run the subgraph with gradients enabled on an isolated leaf, then
    # backpropagate the output gradient through the transient inner graph.
    # Captured tensors' existing grads are parked so the inner backward's
    # contributions can be collected cleanly and returned to the caller
    # (apply_op's closure or a tape's backward), which delivers them to the
    # outer graph exactly once.
    with tape_shield():
        x_leaf = Tensor(x.data, requires_grad=x.requires_grad)
        parked = [(p, p.grad) for p in captured]
        for p in captured:
            p.grad = None
        try:
            y = fn(x_leaf)
            y.backward(out.grad)
            grads = tuple(p.grad for p in params)
        finally:
            for p, saved in parked:
                p.grad = saved
    x_grad = x_leaf.grad if x.requires_grad else None
    _release_recompute_graph(y, {id(t) for t in captured})
    return (x_grad,) + grads


def invertible_checkpoint(fn, fn_inverse, x: Tensor,
                          params: tuple = (), *,
                          free_input: bool = True,
                          op: str = "invertible_checkpoint") -> Tensor:
    """Apply ``fn`` to ``x`` without storing the subgraph's activations.

    The recompute-in-backward op pair (after DGL's ``InvertibleCheckpoint``
    for grouped reversible residual blocks): forward evaluates ``fn`` as a
    plain value computation and — when ``free_input`` is set and ``x`` is an
    intermediate — frees ``x``'s activation, keeping only the inversion
    closure in ``ctx``.  Backward calls ``fn_inverse(output)`` to
    reconstruct the input, restores it for upstream ops, re-runs ``fn`` with
    gradients enabled, and returns the input/parameter gradients.  Chained
    checkpoints therefore hold O(1) activations in chain depth.

    ``params`` must list every tensor ``fn`` reads besides ``x`` (layer
    weights and captured activations such as the attention stem); they
    become parents of the output so their gradients flow, and their
    ``requires_grad`` is suspended during the no-grad passes.  ``fn`` must
    be deterministic given current tensor values (no RNG draws), and the
    checkpoint must be ``x``'s only consumer when ``free_input`` is set.
    Leaf tensors are never freed — their data is user-owned.

    The op follows the registry contract, marks itself ``tape_transient``,
    and is fully replayable: under a :class:`repro.nn.Tape` the output gets
    no pinned buffer and replay frees activation and gradient as soon as
    backward is done with them.
    """
    params = tuple(params)
    for p in params:
        if not isinstance(p, Tensor):
            raise TypeError("params must be Tensors consumed by fn")
    ctx = {
        "fn": fn,
        "fn_inverse": fn_inverse,
        "captured": params,
        "input_ref": x,
        "input_shape": x.data.shape,
        "input_size": x.data.size,
        # Never free a leaf: its array is user/optimizer-owned state.
        "free_input": bool(free_input) and bool(x._parents),
        "tape_transient": True,
    }
    return apply_op(op, (x,) + params, _invertible_checkpoint_forward,
                    _invertible_checkpoint_backward, ctx=ctx)
