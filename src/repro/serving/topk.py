"""Deterministic top-k selection for catalog screening.

The screening engine ranks candidates by ``(score descending, index
ascending)`` — exactly the order ``np.argsort(-scores, kind="stable")``
produces, but without ever sorting (or even holding) the full catalog's
scores.  Two pieces:

- :func:`batch_top_k_sets`: per-row top-k *sets* of a ``(Q, n)`` score
  block, ``np.argpartition``-based, O(n) per row, with boundary ties
  resolved by ascending column — the entries a stable argsort's first
  ``k`` slots would contain.  :func:`~repro.serving.shards.screen_shard`
  streams a shard's blocks through it; because ``(score, index)`` is a
  *total* order (indices are unique), streaming selection is exact and
  independent of how the shard was split into blocks.
- :func:`merge_top_k`: deterministic merge of per-shard top-k results under
  the same total order, so a sharded catalog returns bitwise-identical
  rankings for every shard layout.

Scores may contain ``-inf`` as an exclusion sentinel (excluded candidates
can then only surface when fewer than ``k`` valid candidates exist; callers
filter them).  NaN scores are not supported.
"""

from __future__ import annotations

import numpy as np


def as_float_scores(scores) -> np.ndarray:
    """Coerce to a floating array without widening: float32 stays float32.

    Non-floating inputs (integer score blocks) are promoted to float64;
    floating inputs keep their dtype so the float32 serving tier never
    silently pays float64 bandwidth.
    """
    scores = np.asarray(scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    return scores


def batch_top_k_sets(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row top-``k`` column sets of a ``(Q, n)`` score matrix.

    Membership under the (score desc, column asc) total order is unique,
    so each row's set is found in O(n) without ordering it: one
    ``argpartition`` call for the whole query batch.  Boundary ties are
    broken by ascending *column*, so a row's set is exactly the first
    ``k`` entries of its stable descending argsort whenever columns are
    ordered by ascending global index.  Returns a ``(Q, min(k, n))`` array
    of column indices in ascending order per row.
    """
    scores = np.asarray(scores)
    num_queries, n = scores.shape
    if k <= 0 or n == 0:
        return np.zeros((num_queries, 0), dtype=np.int64)
    if k >= n:
        return np.broadcast_to(np.arange(n, dtype=np.int64),
                               (num_queries, n))
    part = np.argpartition(scores, n - k, axis=1)[:, n - k:]
    pivots = np.take_along_axis(scores, part, axis=1).min(axis=1)
    above = scores > pivots[:, None]
    at_pivot = scores == pivots[:, None]
    # Entries strictly above the per-row pivot always make the cut; the
    # remaining slots go to pivot-valued entries left-to-right (ascending
    # column), as a stable argsort would.  Each row keeps exactly k
    # columns, so the flat nonzero unravels to a dense (Q, k) grid.
    need = k - above.sum(axis=1)
    keep = above | (at_pivot & (np.cumsum(at_pivot, axis=1)
                                <= need[:, None]))
    return np.nonzero(keep)[1].reshape(num_queries, k).astype(
        np.int64, copy=False)


def merge_top_k(results: list[tuple[np.ndarray, np.ndarray]],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically merge per-shard ``(indices, scores)`` top-k lists.

    Under the (score desc, index asc) total order the merge of per-shard
    winners equals the global top-k, for every partition of the catalog
    into shards.
    """
    if not results:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    indices = np.concatenate([np.asarray(i, dtype=np.int64)
                              for i, _ in results])
    # Preserve the per-shard score dtype (mixed dtypes promote to the
    # widest, which is the only defensible merge semantics anyway).
    scores = np.concatenate([as_float_scores(s) for _, s in results])
    keep = np.lexsort((indices, -scores))[:max(k, 0)]
    return indices[keep], scores[keep]
