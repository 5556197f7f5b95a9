"""Process-pool placement of the shard plan.

:class:`ParallelShardExecutor` runs the per-shard exact screens of a
persisted catalog (:class:`~repro.serving.store.ShardStore`) in a process
pool.  Like every placement it normalises the request with
:class:`~repro.serving.shards.ShardPlan`, runs
:func:`~repro.serving.shards.screen_exact_shard` once per shard and reduces
through :func:`~repro.serving.shards.finalize_screen`, so its answers are
bitwise-identical to the serial in-memory engine:

- Workers never receive catalog arrays.  The pool initializer hands each
  worker the *manifest path*; a worker assigned shard *i* memory-maps
  shard *i*'s files itself (``np.load(..., mmap_mode="r")``).  The only
  per-task payload is the :class:`~repro.serving.shards.ExactRequest`: the
  weight-free kernel kind, the query-side projections (a few rows), and
  the per-query padded budgets — a few kilobytes per screen.
- ``Pool.map`` preserves shard order, so the merge sees shards in exactly
  the serial order.

The pool prefers the ``fork`` start method when the platform offers it
(workers inherit the imported interpreter; startup is milliseconds) and
falls back to the default (``spawn``) elsewhere — everything shipped to
workers is module-level and picklable either way.

Worker death is survived, not propagated: the pool is a
``concurrent.futures.ProcessPoolExecutor``, which raises
:class:`~concurrent.futures.process.BrokenProcessPool` when a worker is
killed mid-task (OOM killer, SIGKILL, segfault) instead of hanging.  On
breakage the executor discards the pool, rebuilds it once, and re-runs
the whole screen; if the rebuilt pool breaks too it degrades to serial
execution of the same per-shard task over the parent's memory-mapped
store, so the degraded answer is still bitwise-identical, just slower.
:attr:`stats` counts rebuilds and serial fallbacks so operators can see
the degradation.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.decoder import kernel_kind
from .shards import (ExactRequest, ShardPlan, finalize_screen,
                     screen_exact_shard)
from .store import ShardStore


# ---------------------------------------------------------------------------
# Worker-side machinery (module-level for picklability under spawn).
# ---------------------------------------------------------------------------
_WORKER_STORE: ShardStore | None = None


def _init_worker(manifest_path: str, mmap_mode: str | None) -> None:
    """Pool initializer: open the shard store once per worker process.

    Opened as a *reader* (``recover=False``, the default): only the
    owning service process recovers torn state, a pool worker must never
    mutate the directory it shares with its siblings.  The worker pins
    the catalog version committed at pool creation — the service closes
    the pool on every store mutation, so a fresh pool reopens here at
    the new version.
    """
    global _WORKER_STORE
    _WORKER_STORE = ShardStore(manifest_path, mmap_mode=mmap_mode)


def _screen_shard_task(shard_id: int, request: ExactRequest
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One unit of pool work: one memory-mapped shard's exact top-k."""
    return screen_exact_shard(_WORKER_STORE.open_shard(shard_id), request)


class ParallelShardExecutor:
    """Process-pool fan-out over the shards of one :class:`ShardStore`.

    The pool is created lazily on the first :meth:`screen` and reused —
    worker startup and the per-worker store open are paid once, not per
    query.  Call :meth:`close` (or use the executor as a context manager)
    to release the workers; the executor can be reused afterwards (a new
    pool spins up on demand).
    """

    def __init__(self, store: ShardStore | str | Path,
                 num_workers: int | None = None,
                 mmap_mode: str | None = "r",
                 start_method: str | None = None):
        if not isinstance(store, ShardStore):
            store = ShardStore(store, mmap_mode=mmap_mode)
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, store.num_shards)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._store = store
        self.num_workers = num_workers
        self._mmap_mode = mmap_mode
        self._start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self.stats = {"pool_rebuilds": 0, "serial_fallbacks": 0}

    @property
    def store(self) -> ShardStore:
        return self._store

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = mp.get_all_start_methods()
            method = self._start_method or (
                "fork" if "fork" in methods else None)
            ctx = mp.get_context(method)
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.num_workers, self._store.num_shards),
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(str(self._store.path), self._mmap_mode))
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpses."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def screen(self, kernel, query_proj: dict, num_queries: int,
               top_k: int | Sequence[int],
               block_size: int | None = None,
               exclude: Sequence[np.ndarray] | np.ndarray | None = None,
               two_sided: bool = False
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parallel exact-mode screen; bitwise-equal to the serial engine.

        Same contract as :meth:`ShardedEmbeddingCatalog.screen`: one
        ``(indices, probabilities)`` pair per query, sorted by
        (probability desc, index asc), exclusions removed; ``top_k`` may
        be one shared budget or a per-query sequence.
        """
        plan = ShardPlan.build(num_queries, top_k, exclude)
        request = ExactRequest(kernel_kind(kernel), query_proj, plan.padded,
                               block_size or self._store.block_size,
                               bool(two_sided))
        return finalize_screen(self._run(request), plan)

    def _run(self, request: ExactRequest
             ) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Pool map with survival: rebuild once on a broken pool, then
        degrade to serial execution over the parent's mapped store.

        ``ProcessPoolExecutor.map`` preserves shard order, and every
        recovery path runs the same per-shard task over the same shard
        bytes — results are bitwise-identical whichever plan answered.
        """
        shard_ids = range(self._store.num_shards)
        for round_index in range(2):
            try:
                return list(self._ensure_pool().map(
                    _screen_shard_task, shard_ids,
                    [request] * len(shard_ids)))
            except BrokenProcessPool:
                self._discard_pool()
                if round_index == 0:
                    self.stats["pool_rebuilds"] += 1
        self.stats["serial_fallbacks"] += 1
        return [screen_exact_shard(self._store.open_shard(shard_id), request)
                for shard_id in shard_ids]

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self):
        # Best-effort cleanup if close() was never called; don't wait
        # because __del__ may run at interpreter shutdown.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
