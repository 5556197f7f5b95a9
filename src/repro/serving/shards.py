"""One shard plan for every placement of a catalog screen.

A screen ranks the whole catalog for a batch of queries and keeps each
query's top-k.  The catalog is split into shards of contiguous rows — cut
by :func:`shard_ranges`, the one layout the in-memory catalog, a saved
store and a compacted one all share — and every placement answers a screen
in the same three steps:

1. :class:`ShardPlan` normalises the request once: per-query ``top_k``
   budgets, per-query exclusion arrays, and the *padded* budget
   ``top_k + len(exclude)`` every shard keeps.
2. Each shard streams its rows block by block through :func:`screen_shard`
   (one vectorised top-k selection per block for the whole query batch)
   and returns its padded top-k per query.
3. :func:`finalize_screen` merges the per-shard winners under the total
   (score desc, index asc) order, drops excluded rows and truncates.

Placements differ only in where step 2 runs: :class:`ShardedEmbeddingCatalog`
runs it inline — over in-memory views, or over a
:class:`~repro.serving.store.ShardStore`'s memory-mapped shard files (what
``ShardStore.catalog()`` returns) — and
:class:`~repro.serving.remote.RemoteShardExecutor` on shard worker
processes — local or remote — with a local fallback.  The exact-mode unit
of work the workers and the fallback run is one function,
:func:`screen_exact_shard`, which builds its own kernel from the
weight-free kernel kind of an :class:`ExactRequest`.
Results are bitwise-identical for every block size, shard count and
placement; peak scoring memory is O(block + k) per shard, never O(catalog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..core.decoder import make_kernel
from ..nn.functional import stable_sigmoid
from .topk import as_float_scores, batch_top_k_sets, merge_top_k

# score_block(embeddings_block, projections_block) -> (num_queries, block) scores
ScoreBlockFn = Callable[[np.ndarray, dict[str, np.ndarray]], np.ndarray]


def shard_ranges(num_rows: int, num_shards: int) -> list[tuple[int, int]]:
    """The ``[start, stop)`` row range of every non-empty shard.

    An even split: the first ``num_rows % num_shards`` shards hold one row
    more, and shards beyond ``num_rows`` are dropped.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return [(int(chunk[0]), int(chunk[-1]) + 1)
            for chunk in np.array_split(np.arange(num_rows), num_shards)
            if len(chunk)]


def normalize_top_k(top_k, num_queries: int) -> list[int]:
    """Per-query top-k budgets from a scalar or per-query sequence.

    Booleans are rejected explicitly: ``True`` would silently mean
    ``top_k=1`` under the ``int`` check.
    """
    def as_k(value):
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"top_k must be an integer, got {value!r}")
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"top_k must be an integer, got {value!r}")
        return int(value)

    if isinstance(top_k, (int, np.integer, bool, np.bool_)):
        return [as_k(top_k)] * num_queries
    top_ks = [as_k(k) for k in top_k]
    if len(top_ks) != num_queries:
        raise ValueError(f"per-query top_k has {len(top_ks)} entries for "
                         f"{num_queries} queries")
    return top_ks


def normalize_exclude(exclude, num_queries: int) -> list[np.ndarray]:
    """Per-query exclusion arrays from the polymorphic ``exclude`` argument."""
    empty = np.zeros(0, dtype=np.int64)
    if exclude is None:
        return [empty] * num_queries
    # A flat collection of integers is one shared exclusion set; only a
    # collection of *array-likes* is per-query.  Deciding by element
    # type (not length) keeps `exclude=[3, 5]` meaning "rows 3 and 5,
    # every query" even when the list length equals num_queries.
    if isinstance(exclude, (list, tuple)) and any(
            not isinstance(e, (int, np.integer)) for e in exclude):
        if len(exclude) != num_queries:
            raise ValueError(
                f"per-query exclude has {len(exclude)} entries for "
                f"{num_queries} queries")
        return [np.asarray(e, dtype=np.int64).reshape(-1)
                for e in exclude]
    shared = np.asarray(exclude, dtype=np.int64).reshape(-1)
    return [shared] * num_queries


@dataclass(frozen=True)
class ShardPlan:
    """One screen's per-query budgets, normalised once for every placement.

    ``top_ks`` are the requested budgets, ``excludes`` the global rows to
    drop, and ``padded`` what each shard keeps: ``top_k + len(exclude)``
    (0 for a non-positive budget).  Exclusions are applied *after*
    selection — the excluded rows, at most that many, can never displace
    an eligible one — which keeps the per-block work free of membership
    tests and is exactly equivalent to masking candidates up front.
    """

    top_ks: tuple[int, ...]
    excludes: tuple[np.ndarray, ...]
    padded: tuple[int, ...]

    @classmethod
    def build(cls, num_queries: int, top_k: int | Sequence[int],
              exclude: Sequence[np.ndarray] | np.ndarray | None = None
              ) -> "ShardPlan":
        """``top_k`` is one shared budget or a per-query sequence;
        ``exclude`` is one global-index array applied to every query or a
        per-query sequence of arrays."""
        top_ks = normalize_top_k(top_k, num_queries)
        excludes = normalize_exclude(exclude, num_queries)
        return cls(tuple(top_ks), tuple(excludes),
                   tuple(k + e.size if k > 0 else 0
                         for k, e in zip(top_ks, excludes)))

    @property
    def num_queries(self) -> int:
        return len(self.padded)


def exact_score_fn(kernel, query_proj: dict,
                   two_sided: bool = False) -> Callable:
    """The exact-mode probability kernel, shared by every placement.

    Every exact screen builds its ``score_block`` callback here, from the
    same kernel type — which is what makes their scores bitwise-comparable.
    """
    def exact_probs(_emb_block, proj_block):
        probs = stable_sigmoid(kernel.score_block(query_proj, proj_block))
        if two_sided:
            probs = 0.5 * (probs + stable_sigmoid(
                kernel.score_block(query_proj, proj_block, reverse=True)))
        return probs
    return exact_probs


@dataclass(frozen=True)
class ExactRequest:
    """What every shard of one exact-mode screen is asked.

    Weight-free: the kernel travels as its registry *kind*
    (:func:`repro.core.decoder.kernel_kind`), so a request crosses a
    socket as a few bytes plus the query-side projections.
    """

    kind: str                 # screening-kernel registry name
    query_proj: dict          # query-side projections (nested for the MLP)
    padded: tuple[int, ...]   # per-query budget each shard keeps
    block_size: int
    two_sided: bool = False


def screen_exact_shard(shard: "CatalogShard", request: ExactRequest
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One shard's exact-mode top-k: the unit of work placements ship.

    A shard worker and the remote client's local fallback both run this.
    It builds its own kernel from ``request.kind``: kernels keep
    non-reentrant scratch buffers (:mod:`repro.core.decoder`), so shard
    calls running concurrently — a remote screen's fan-out threads all
    falling back at once — must never share one.
    """
    score = exact_score_fn(make_kernel(request.kind), request.query_proj,
                           request.two_sided)
    return screen_shard(shard, request.block_size, score,
                        len(request.padded), request.padded)


def iter_shard_blocks(shard: "CatalogShard", block_size: int) -> Iterator[
        tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]]:
    """Yield ``(global_indices, embeddings, projections)`` scoring blocks."""
    for start in range(0, shard.num_drugs, block_size):
        stop = start + block_size
        yield (shard.indices[start:stop],
               shard.embeddings[start:stop],
               {k: v[start:stop] for k, v in shard.projections.items()})


def screen_shard(shard: "CatalogShard", block_size: int,
                 score_block: ScoreBlockFn, num_queries: int,
                 padded: Sequence[int]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blockwise streaming top-``padded[qi]`` over one shard, per query.

    Streams a single ``(num_queries, running)`` candidate pool: each block
    contributes its per-row top-``kmax`` columns (one ``argpartition`` for
    the whole batch), the pool is re-sorted by global index so boundary
    ties keep the total order, and re-selected.  Selecting ``kmax =
    max(padded)`` rows for every query and truncating per query at the end
    is exact — the top ``padded[qi]`` of the total order is a prefix of
    the top ``kmax``.  Shards hold ascending global indices (contiguous
    row ranges), so a block's column order is its global index order.
    """
    kmax = max(padded, default=0)
    run_idx = run_sc = None
    for indices, emb_block, proj_block in iter_shard_blocks(shard,
                                                            block_size):
        scores = np.atleast_2d(as_float_scores(
            score_block(emb_block, proj_block)))
        if scores.shape != (num_queries, len(indices)):
            raise ValueError(
                f"score_block returned shape {scores.shape}; "
                f"expected ({num_queries}, {len(indices)})")
        if kmax <= 0:
            continue
        cols = batch_top_k_sets(scores, kmax)
        blk_idx = indices[cols]
        blk_sc = np.take_along_axis(scores, cols, axis=1)
        if run_idx is None:
            run_idx, run_sc = blk_idx, blk_sc
            continue
        pool_idx = np.concatenate([run_idx, blk_idx], axis=1)
        pool_sc = np.concatenate([run_sc, blk_sc], axis=1)
        if pool_idx.shape[1] > kmax:
            # Arrange the pool index-ascending per row so positional ties
            # in the re-selection coincide with the (score desc, index
            # asc) total order.
            order = np.argsort(pool_idx, axis=1)
            pool_idx = np.take_along_axis(pool_idx, order, axis=1)
            pool_sc = np.take_along_axis(pool_sc, order, axis=1)
            cols = batch_top_k_sets(pool_sc, kmax)
            run_idx = np.take_along_axis(pool_idx, cols, axis=1)
            run_sc = np.take_along_axis(pool_sc, cols, axis=1)
        else:
            run_idx, run_sc = pool_idx, pool_sc
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    if run_idx is None:
        return [empty] * num_queries
    # Final ordering: index-ascending rows + a stable sort on descending
    # score == the (score desc, index asc) total order.
    order = np.argsort(run_idx, axis=1)
    run_idx = np.take_along_axis(run_idx, order, axis=1)
    run_sc = np.take_along_axis(run_sc, order, axis=1)
    order = np.argsort(-run_sc, axis=1, kind="stable")
    run_idx = np.take_along_axis(run_idx, order, axis=1)
    run_sc = np.take_along_axis(run_sc, order, axis=1)
    return [(run_idx[qi, :k], run_sc[qi, :k]) if k > 0 else empty
            for qi, k in enumerate(padded)]


def validate_shard_results(results: list[tuple[np.ndarray, np.ndarray]],
                           padded: Sequence[int], start: int, stop: int
                           ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Check one shard's per-query top-k against the shard it answers.

    Remote workers answer over a network transport; a frame that passes
    the checksum can still be wrong (a buggy or mismatched worker).  The
    client checks every reply before it enters the merge: one pair of
    paired 1-D arrays per query, integral indices, floating scores, at
    most the padded budget, every index inside the requested shard's rows
    ``[start, stop)``, and strict (score desc, index asc) order — which
    :func:`finalize_screen` relies on and, for a single shard, does not
    re-establish.  Raises ``ValueError`` on any violation, which the
    caller treats like any other failed request (retry / failover).
    """
    if len(results) != len(padded):
        raise ValueError(f"shard returned {len(results)} per-query results "
                         f"for {len(padded)} queries")
    checked = []
    for qi, (indices, scores) in enumerate(results):
        indices = np.asarray(indices)
        scores = np.asarray(scores)
        if indices.ndim != 1 or scores.ndim != 1 \
                or len(indices) != len(scores):
            raise ValueError(f"query {qi}: indices/scores are not paired "
                             f"1-D arrays")
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"query {qi}: indices dtype {indices.dtype} "
                             f"is not integral")
        if not np.issubdtype(scores.dtype, np.floating):
            raise ValueError(f"query {qi}: scores dtype {scores.dtype} "
                             f"is not floating")
        if len(indices) > max(padded[qi], 0):
            raise ValueError(f"query {qi}: {len(indices)} rows exceed the "
                             f"padded budget {padded[qi]}")
        if len(indices) and (indices.min() < start
                             or indices.max() >= stop):
            raise ValueError(f"query {qi}: candidate index outside the "
                             f"shard's rows [{start}, {stop})")
        above, below = scores[:-1], scores[1:]
        if not np.all((above > below) | ((above == below)
                                         & (indices[:-1] < indices[1:]))):
            raise ValueError(f"query {qi}: rows are not in (score desc, "
                             f"index asc) order")
        checked.append((indices.astype(np.int64, copy=False), scores))
    return checked


def finalize_screen(per_shard: list[list[tuple[np.ndarray, np.ndarray]]],
                    plan: ShardPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic cross-shard reduce: merge, filter exclusions, truncate.

    Queries are reduced independently, so a batch with mixed budgets is
    bitwise-identical to running each query alone with its own budget.
    """
    results = []
    for qi, (top_k, excluded, padded) in enumerate(
            zip(plan.top_ks, plan.excludes, plan.padded)):
        if len(per_shard) == 1:
            indices, scores = per_shard[0][qi]
        else:
            indices, scores = merge_top_k([res[qi] for res in per_shard],
                                          padded)
        if excluded.size:
            # Tiny membership test ((padded, E) broadcast) — np.isin's
            # dispatch overhead dwarfs the actual work at these sizes.
            keep = ~(indices[:, None] == excluded[None, :]).any(axis=1)
            indices, scores = indices[keep], scores[keep]
        results.append((indices[:max(top_k, 0)], scores[:max(top_k, 0)]))
    return results


@dataclass(frozen=True)
class CatalogShard:
    """One shard: global row ids + its slice of embeddings and projections."""

    indices: np.ndarray                  # (m,) global catalog row ids
    embeddings: np.ndarray               # (m, d) embedding rows
    projections: dict[str, np.ndarray]   # per-key (m, ...) projection rows

    @property
    def num_drugs(self) -> int:
        return len(self.indices)


class ShardedEmbeddingCatalog:
    """Embeddings + candidate projections in contiguous shards.

    One catalog for every in-process placement.  The array constructor
    cuts in-memory matrices at :func:`shard_ranges`, so every shard is a
    zero-copy view of the parent arrays; :meth:`from_shards` wraps shards
    opened elsewhere — ``ShardStore.catalog()`` passes its memory-mapped
    ones, which screen bitwise-identically while heap memory stays
    O(block + k).  The shard list is fixed at construction, so a catalog
    built from a store pins that store's version: the store can append,
    compact or roll back underneath it and the catalog keeps screening
    the rows it opened.
    """

    def __init__(self, embeddings: np.ndarray,
                 projections: dict[str, np.ndarray] | None = None,
                 num_shards: int = 1, block_size: int = 1024):
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be a (num_drugs, dim) matrix")
        projections = dict(projections or {})
        for name, matrix in projections.items():
            if len(matrix) != len(embeddings):
                raise ValueError(
                    f"projection {name!r} has {len(matrix)} rows for "
                    f"{len(embeddings)} catalog drugs")
        self._set_shards([
            CatalogShard(indices=np.arange(lo, hi, dtype=np.int64),
                         embeddings=embeddings[lo:hi],
                         projections={k: v[lo:hi]
                                      for k, v in projections.items()})
            for lo, hi in shard_ranges(len(embeddings), num_shards)],
            block_size)

    @classmethod
    def from_shards(cls, shards: Sequence[CatalogShard],
                    block_size: int) -> "ShardedEmbeddingCatalog":
        """A catalog over ready-made shards of ascending, contiguous rows."""
        catalog = cls.__new__(cls)
        catalog._set_shards(list(shards), block_size)
        return catalog

    def _set_shards(self, shards: list[CatalogShard],
                    block_size: int) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._shards = shards
        self._starts = np.array([int(s.indices[0]) for s in shards],
                                dtype=np.int64)
        self._num_drugs = sum(s.num_drugs for s in shards)
        self.block_size = block_size

    # ------------------------------------------------------------------
    @property
    def num_drugs(self) -> int:
        return self._num_drugs

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[CatalogShard]:
        return list(self._shards)

    def rows(self, indices: Sequence[int] | np.ndarray
             ) -> dict[str, np.ndarray]:
        """Gather candidate projection rows by global catalog index.

        Rows come back as in-memory arrays (callers gather shortlists, not
        catalogs), bitwise-equal for every placement and shard count; from
        a memory-mapped store only the pages they live on are read.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        lo, hi = (indices.min(), indices.max()) if indices.size else (0, 0)
        if lo < 0 or hi >= self._num_drugs:
            raise IndexError(f"row index out of catalog range "
                             f"[0, {self._num_drugs})")
        first, last = np.searchsorted(self._starts, (lo, hi),
                                      side="right") - 1
        if first == last:
            # Every row in one shard (always, for a one-shard catalog):
            # the takes are the answer, no scatter.
            shard = self._shards[first]
            local = indices - shard.indices[0]
            return {name: np.take(matrix, local, axis=0)
                    for name, matrix in shard.projections.items()}
        shard_of = np.searchsorted(self._starts, indices, side="right") - 1
        out = {name: np.empty((len(indices),) + matrix.shape[1:],
                              dtype=matrix.dtype)
               for name, matrix in self._shards[0].projections.items()}
        for sid in range(first, last + 1):
            mask = shard_of == sid
            shard = self._shards[sid]
            local = indices[mask] - shard.indices[0]
            for name, matrix in shard.projections.items():
                out[name][mask] = np.take(matrix, local, axis=0)
        return out

    # ------------------------------------------------------------------
    def screen(self, score_block: ScoreBlockFn, num_queries: int,
               top_k: int | Sequence[int],
               exclude: Sequence[np.ndarray] | np.ndarray | None = None,
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Blockwise per-shard top-k + deterministic merge, per query.

        ``score_block`` maps one ``(embeddings, projections)`` block to a
        ``(num_queries, block)`` score matrix; it is invoked once per block
        for the whole query batch.  ``top_k`` and ``exclude`` are
        normalised by :class:`ShardPlan`.  Returns one ``(indices,
        scores)`` pair per query, sorted by (score desc, index asc),
        excluded rows removed; fewer than ``top_k`` entries come back when
        the catalog has fewer eligible candidates.
        """
        plan = ShardPlan.build(num_queries, top_k, exclude)
        per_shard = [screen_shard(shard, self.block_size, score_block,
                                  num_queries, plan.padded)
                     for shard in self._shards]
        return finalize_screen(per_shard, plan)
