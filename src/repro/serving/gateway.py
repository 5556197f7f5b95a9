"""Asyncio serving gateway with dynamic micro-batching.

:class:`DDIScreeningService` scores a whole query batch in one catalog pass
(:meth:`~repro.serving.service.DDIScreeningService.screen_batch`), but a
live deployment does not receive batches — it receives many small
concurrent requests.  :class:`ScreeningGateway` is the front door that
turns one into the other:

1. Concurrent :meth:`screen` / :meth:`score_pairs` / :meth:`screen_smiles`
   awaits land in a FIFO queue as ``(payload, future)`` records.
2. A single batcher task *batches while busy*: it never waits for more
   requests.  Each flush takes the first queued request plus everything
   already queued behind it, up to ``max_batch``, so requests accumulate
   only while the previous flush runs — batches grow with load and an
   idle gateway adds no delay.  Between flushes the batcher yields to the
   loop once: ``Queue.get`` does not suspend while items are queued, so
   without the yield a backlog would run flush after flush while answer
   delivery, new arrivals and admission wait.
3. Each flush groups compatible requests (same request kind and screening
   flags) and issues **one** coalesced service call per group —
   ``screen_batch`` with per-query ``top_k``/``exclude``,
   ``screen_smiles_batch``, or a single vectorized ``score_pairs`` over
   the concatenated pair lists — then fans the per-request results back
   out through the futures.

Because the engine keeps an independent accumulator per query and projects
query rows individually, a catalog screen answered inside a coalesced
flush is **bitwise-identical** to the same call made serially — including
flushes that mix different ``top_k`` values or exclusion lists.  SMILES
screens and ``score_pairs`` are not: a flush encodes its SMILES in one
batch and scores its pairs in one vectorized call, and BLAS rounds a
batched GEMM's rows differently than a serial per-request call, so
results can differ in the last ulp (see
``DDIScreeningService.screen_smiles_batch`` and ROADMAP's cold-start
item).

Operational controls:

- **Admission control**: submissions beyond ``max_queue`` pending requests
  fast-fail with :class:`GatewayOverloaded` instead of growing the queue
  without bound (counted in ``stats.gateway_rejections``).
- **Per-request deadlines**: ``timeout_ms`` (or the gateway-wide
  ``default_timeout_ms``) is an end-to-end budget; a request whose
  deadline passes before its batch is scored fails with
  :class:`DeadlineExceeded` and is dropped from the flush, and one whose
  deadline elapses *during* scoring (a retrying remote screen, a
  local fallback) fails the same way instead of returning late
  (``stats.gateway_expirations`` counts both).  Requests failed by a
  scoring exception are counted in ``stats.gateway_failures``.
- **Graceful drain**: :meth:`close` stops admitting new requests, flushes
  everything already queued, and only then stops the batcher; every
  accepted request gets its answer.  :meth:`drain` is the non-terminal
  variant (barrier: wait until the current backlog is flushed).
- **Isolation**: if a coalesced call raises, the batch is retried one
  request at a time so only the offending request sees the error —
  a malformed request cannot poison its flush neighbours.
- **Observability**: every admitted request is timed enqueue → response
  into ``ServiceStats.gateway_latency`` (p50/p99/QPS over a sliding
  window) and every flush into the ``gateway_batch_sizes`` histogram.

A weight update between enqueue and flush is safe: the coalesced service
call checks that the cache still holds the model's current weight arrays
(``_ensure_fresh``) before scoring, so every request in a flush is
answered from one post-update cache version — embeddings are never mixed
across versions.

The gateway is single-event-loop: create it, submit to it, and close it
from one running loop.  Scoring runs inline on the loop (numpy releases
the GIL inside kernels, and the flush *is* the throughput path — handing
it to a thread would only add latency jitter for a CPU-bound call).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

import numpy as np

from .service import DDIScreeningService, ScreenHit


class GatewayClosed(RuntimeError):
    """Submitted to a gateway that is draining or already closed."""


class GatewayOverloaded(RuntimeError):
    """Admission-control fast-fail: the request queue is at ``max_queue``."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline elapsed before its batch was scored."""


@dataclass
class _Request:
    """One queued caller: payload, result future, and timing bookkeeping."""

    key: tuple                    # coalescing key (kind + screening flags)
    payload: dict
    future: asyncio.Future
    enqueued_at: float            # loop-time of admission
    deadline: float | None        # absolute loop-time budget, if any


@dataclass
class _Barrier:
    """Queue sentinel for :meth:`ScreeningGateway.drain`."""

    future: asyncio.Future


_STOP = object()


class ScreeningGateway:
    """Dynamic micro-batching front door for a :class:`DDIScreeningService`.

    Parameters
    ----------
    service:
        The screening service to serve.  The gateway never bypasses its
        cache lifecycle — every flush goes through the public batch entry
        points, staleness checks included.
    max_batch:
        Most requests one flush takes from the queue.  ``1`` disables
        coalescing (every request is its own flush) — the unbatched
        baseline the benchmark compares against.
    max_queue:
        Admission cap on pending requests; submissions beyond it raise
        :class:`GatewayOverloaded` immediately.
    default_timeout_ms:
        End-to-end deadline applied to requests that do not pass their
        own ``timeout_ms`` (``None`` or ``math.inf`` = no deadline).
    """

    def __init__(self, service: DDIScreeningService,
                 max_batch: int = 32, max_queue: int = 1024,
                 default_timeout_ms: float | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        # ``not > 0`` rather than ``<= 0``: a NaN budget never expires.
        if default_timeout_ms is not None and not default_timeout_ms > 0:
            raise ValueError("default_timeout_ms must be positive")
        self._service = service
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.default_timeout_ms = default_timeout_ms
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._last_epoch: int | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> DDIScreeningService:
        return self._service

    @property
    def stats(self):
        """The service's :class:`~repro.serving.cache.ServiceStats`."""
        return self._service.stats

    @property
    def pending(self) -> int:
        """Requests admitted but not yet flushed."""
        return self._queue.qsize()

    def stats_snapshot(self) -> dict:
        """One JSON-ready dict of everything observable about serving.

        The service counters (including the living-catalog fields:
        ``registrations``, ``appends_committed``, ``compactions``,
        ``rollbacks``, ``registration_latency``, ``gateway_epoch_swaps``)
        plus the gateway's queue depth and the catalog epoch/version the
        next flush will be answered under.
        """
        snapshot = self._service.stats.as_dict()
        snapshot["pending"] = self.pending
        snapshot["catalog_epoch"] = self._service.catalog_epoch
        snapshot["catalog_version"] = self._service.catalog_version
        return snapshot

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    async def screen(self, query: int | str, top_k: int = 5,
                     exclude: tuple = (), symmetric: bool = False,
                     approx: bool = False, approx_oversample: int = 4,
                     timeout_ms: float | None = None) -> list[ScreenHit]:
        """Batched :meth:`DDIScreeningService.screen`; same result, awaited.

        Requests sharing the same flags (``symmetric`` / ``approx`` /
        ``approx_oversample``) coalesce into one ``screen_batch`` flush
        even when their ``top_k`` or ``exclude`` differ — results are
        bitwise what a serial ``screen`` returns.
        """
        key = ("screen", bool(symmetric), bool(approx),
               int(approx_oversample))
        payload = {"query": query, "top_k": top_k,
                   "exclude": tuple(exclude)}
        return await self._submit(key, payload, timeout_ms)

    async def screen_smiles(self, smiles: str, top_k: int = 5,
                            symmetric: bool = False,
                            allow_unknown: bool = False,
                            approx: bool = False,
                            approx_oversample: int = 4,
                            timeout_ms: float | None = None
                            ) -> list[ScreenHit]:
        """Batched transient-SMILES screening (one encode per flush)."""
        key = ("smiles", bool(symmetric), bool(approx),
               int(approx_oversample), bool(allow_unknown))
        payload = {"smiles": smiles, "top_k": top_k}
        return await self._submit(key, payload, timeout_ms)

    async def score_pairs(self, pairs: np.ndarray,
                          timeout_ms: float | None = None) -> np.ndarray:
        """Batched :meth:`DDIScreeningService.score_pairs`.

        All queued pair lists are concatenated into a single vectorized
        decoder call; each caller gets back its own slice.  Pairs are
        validated here, synchronously, so a malformed request fails the
        caller immediately instead of travelling to the flush.
        """
        checked = self._service._check_pairs(pairs)
        payload = {"pairs": checked}
        return await self._submit(("pairs",), payload, timeout_ms)

    async def drain(self) -> None:
        """Wait until every request admitted so far has been answered.

        The barrier goes through the FIFO queue, so the batcher resolves
        it only after flushing every request queued ahead of it.
        """
        if self._task is None or self._task.done():
            return
        barrier = _Barrier(asyncio.get_running_loop().create_future())
        self._queue.put_nowait(barrier)
        await barrier.future

    async def close(self) -> None:
        """Graceful shutdown: reject new work, flush the backlog, stop.

        Every request admitted before ``close`` still gets its result
        (or its error); only then does the batcher task exit.  Idempotent.
        """
        already_closed, self._closed = self._closed, True
        if self._task is None:
            return
        if not already_closed and not self._task.done():
            self._queue.put_nowait(_STOP)
        await asyncio.shield(self._task)
        self._task = None

    async def __aenter__(self) -> "ScreeningGateway":
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.close()
        return False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def _submit(self, key: tuple, payload: dict,
                      timeout_ms: float | None) -> Any:
        if self._closed:
            raise GatewayClosed("gateway is closed to new requests")
        stats = self._service.stats
        if self._queue.qsize() >= self.max_queue:
            stats.gateway_rejections += 1
            raise GatewayOverloaded(
                f"gateway queue is full ({self.max_queue} pending)")
        loop = asyncio.get_running_loop()
        if self._task is None or self._task.done():
            self._task = loop.create_task(self._run())
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        if timeout_ms is not None and not timeout_ms > 0:
            raise ValueError("timeout_ms must be positive")
        now = loop.time()
        request = _Request(
            key=key, payload=payload, future=loop.create_future(),
            enqueued_at=now,
            deadline=None if timeout_ms is None else now + timeout_ms / 1e3)
        self._queue.put_nowait(request)
        stats.gateway_requests += 1
        return await request.future

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Batch-while-busy loop: flush what is queued, yield, repeat."""
        while True:
            batch: list[_Request] = []
            item = await self._queue.get()
            # Take what is already queued, never waiting for more.  A drain
            # barrier or the stop sentinel ends the batch and is handled
            # once the batch is flushed.
            while isinstance(item, _Request):
                batch.append(item)
                if len(batch) >= self.max_batch or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                self._flush(batch)
            if isinstance(item, _Barrier) and not item.future.done():
                item.future.set_result(None)
            if item is _STOP:
                # Drain whatever arrived after the stop sentinel was cut
                # in front of (nothing new is admitted once closed).
                leftovers: list[_Request] = []
                while not self._queue.empty():
                    item = self._queue.get_nowait()
                    if isinstance(item, _Request):
                        leftovers.append(item)
                    elif isinstance(item, _Barrier):
                        if not item.future.done():
                            item.future.set_result(None)
                if leftovers:
                    self._flush(leftovers)
                return
            # Queue.get() does not suspend while items are queued: yield
            # once so a backlog cannot starve answer delivery, arrivals
            # and admission on the loop.
            await asyncio.sleep(0)

    def _flush(self, batch: list[_Request]) -> None:
        """Score one collected batch: expire, group, coalesce, fan out."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            # Also skips a caller that cancelled while queued.
            if not self._expire_if_late(
                    request, now, "before its batch was scored"):
                groups.setdefault(request.key, []).append(request)
        for key, group in groups.items():
            self._flush_group(loop, key, group)

    def _expire_if_late(self, request: _Request, now: float,
                        when: str = "during scoring") -> bool:
        """Fail ``request`` with :class:`DeadlineExceeded` if it is overdue
        (True also when it is already done).

        Used both before and *after* scoring: a deadline is an end-to-end
        budget, so time burned inside a slow flush (a retrying remote
        screen, a local fallback) counts against it too — the caller
        must never receive a result after the budget it asked for.
        """
        if request.future.done():
            return True
        if request.deadline is not None and now > request.deadline:
            self._service.stats.gateway_expirations += 1
            request.future.set_exception(DeadlineExceeded(
                f"request deadline elapsed {when}"))
            return True
        return False

    def _flush_group(self, loop, key: tuple,
                     group: list[_Request]) -> None:
        stats = self._service.stats
        stats.gateway_batches += 1
        stats.gateway_batch_sizes[len(group)] = \
            stats.gateway_batch_sizes.get(len(group), 0) + 1
        # Living-catalog observability: this flush is answered under the
        # service's current catalog epoch; when it differs from the last
        # flush's, live traffic just crossed a catalog version boundary
        # (a registration, rollback, or rebuild landed in between).
        epoch = self._service.catalog_epoch
        if self._last_epoch is not None and epoch != self._last_epoch:
            stats.gateway_epoch_swaps += 1
        self._last_epoch = epoch
        try:
            results = self._score_group(key, group)
        except Exception:
            # Isolate the poison request: re-score one at a time so a
            # malformed request fails alone, not its flush neighbours.
            results = None
        if results is None:
            for request in group:
                if self._expire_if_late(request, loop.time()):
                    continue
                try:
                    value = self._score_group(key, [request])[0]
                except Exception as exc:  # noqa: BLE001 — forwarded
                    if not request.future.done():
                        stats.gateway_failures += 1
                        request.future.set_exception(exc)
                else:
                    if not self._expire_if_late(request, loop.time()):
                        request.future.set_result(value)
        else:
            now = loop.time()
            for request, value in zip(group, results):
                if not self._expire_if_late(request, now):
                    request.future.set_result(value)
        done = loop.time()
        for request in group:
            stats.gateway_latency.record(done - request.enqueued_at, done)

    def _score_group(self, key: tuple,
                     group: list[_Request]) -> list[Any]:
        """One coalesced service call for a group of compatible requests."""
        kind = key[0]
        if kind == "screen":
            _, symmetric, approx, oversample = key
            return self._service.screen_batch(
                [r.payload["query"] for r in group],
                top_k=[r.payload["top_k"] for r in group],
                exclude=[r.payload["exclude"] for r in group],
                symmetric=symmetric, approx=approx,
                approx_oversample=oversample)
        if kind == "smiles":
            _, symmetric, approx, oversample, allow_unknown = key
            return self._service.screen_smiles_batch(
                [r.payload["smiles"] for r in group],
                top_k=[r.payload["top_k"] for r in group],
                symmetric=symmetric, allow_unknown=allow_unknown,
                approx=approx, approx_oversample=oversample)
        arrays = [r.payload["pairs"] for r in group]
        probs = self._service.score_pairs(np.concatenate(arrays, axis=0))
        out, offset = [], 0
        for pairs in arrays:
            out.append(probs[offset:offset + len(pairs)].copy())
            offset += len(pairs)
        return out
