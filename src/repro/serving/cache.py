"""Versioned drug-embedding cache for the DDI screening service.

The cache binds three things together: the catalog's embedding matrix, the
frozen :class:`~repro.core.encoder.EncoderContext` new drugs are encoded
against, and the model's parameter arrays that produced both.  Every weight
update in this package rebinds a parameter's ``.data`` to a new array (an
optimizer step, ``load_state_dict``, a tape binding a leaf), so the service
compares the arrays by identity on every query and rebuilds the cache when
one moved — stale embeddings are never served.  The service marks each
array it encodes from read-only, so an in-place edit of a served model's
weights raises ``ValueError`` instead of going unseen.  (numpy cannot
freeze a view taken *before* that: a writeable view of a parameter made
before the service first saw it still writes through.)

Shard stores carry :func:`weights_fingerprint`, a BLAKE2b digest of the
weights, which loaders compare before trusting them.
``DDIScreeningService.invalidate()`` remains the explicit, guaranteed path.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.encoder import EncoderContext
from ..nn import Module


def weights_fingerprint(model: Module) -> str:
    """BLAKE2b digest of every parameter's name, shape and bytes.

    It hashes the whole model, so only artifact writes and loads call it;
    the per-query staleness check compares parameter arrays by identity.
    """
    digest = hashlib.blake2b(digest_size=16)
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode("utf-8"))
        digest.update(str(param.data.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(param.data))
    return digest.hexdigest()


class LatencyWindow:
    """Sliding window of per-request latencies for percentile/QPS readouts.

    Keeps the most recent ``capacity`` completions as
    ``(latency_seconds, completed_at)`` pairs (monotonic-clock timestamps).
    Percentiles interpolate linearly over the window; throughput is
    completions over the window's completion-time span — both are *recent*
    figures by construction, so a long-lived gateway reports current load,
    not its lifetime average.  ``count`` is the lifetime total.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._latencies: deque[float] = deque(maxlen=capacity)
        self._completed: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def record(self, latency: float, completed_at: float) -> None:
        """Fold one completed request into the window."""
        self._latencies.append(float(latency))
        self._completed.append(float(completed_at))
        self.count += 1

    def __len__(self) -> int:
        return len(self._latencies)

    def percentile(self, q: float) -> float:
        """Latency percentile (seconds) over the window; NaN when empty."""
        if not self._latencies:
            return float("nan")
        return float(np.percentile(
            np.fromiter(self._latencies, dtype=np.float64), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def qps(self) -> float:
        """Completions per second across the window's time span."""
        if len(self._completed) < 2:
            return 0.0
        span = self._completed[-1] - self._completed[0]
        return (len(self._completed) - 1) / span if span > 0 else 0.0

    def summary(self) -> dict:
        """Plain-dict readout (milliseconds for the percentiles)."""
        return {"count": self.count,
                "window": len(self._latencies),
                "p50_ms": self.p50 * 1e3,
                "p99_ms": self.p99 * 1e3,
                "qps": self.qps}


@dataclass
class ServiceStats:
    """Observability counters for one :class:`DDIScreeningService`.

    ``pairs_scored`` counts *useful* exact decoder evaluations only: pairs
    whose scores a caller could observe.  Screening charges
    ``num_drugs - len(excluded)`` per query (excluded candidates — always
    at least the query itself — are filtered and never reported);
    approximate screening charges its shortlist scan to
    ``prefilter_pairs`` (one cheap inner-product comparison per candidate)
    and only the exact rescores of the surviving shortlist to
    ``pairs_scored``.

    The ``gateway_*`` fields are maintained by
    :class:`~repro.serving.gateway.ScreeningGateway`: admission /
    deadline / flush counters, a batch-size histogram (batch size →
    number of flushes at that size), and a :class:`LatencyWindow` of
    end-to-end request latencies (enqueue → response) exposing
    p50/p99/QPS.

    The living-catalog fields track streaming mutations:
    ``registrations`` counts drugs registered onto the live service (with
    end-to-end timings in ``registration_latency``),
    ``appends_committed`` / ``compactions`` / ``rollbacks`` count catalog
    versions committed to the attached shard store, and
    ``gateway_epoch_swaps`` counts flushes that observed a different
    catalog epoch than the previous flush — how often in-flight traffic
    crossed a catalog version boundary.
    """

    corpus_encodes: int = 0        # full catalog-context rebuilds
    incremental_encodes: int = 0   # drugs embedded without a rebuild
    cache_hits: int = 0            # queries answered from cached embeddings
    invalidations: int = 0         # caches dropped (stale weights / explicit)
    pairs_scored: int = 0          # exact decoder pair evaluations (eligible)
    prefilter_pairs: int = 0       # approximate-mode prefilter comparisons
    screens: int = 0
    remote_screens: int = 0        # queries answered by shard workers
    registrations: int = 0         # drugs registered onto the live catalog
    appends_committed: int = 0     # store versions committed by appends
    compactions: int = 0           # store versions committed by compaction
    rollbacks: int = 0             # store versions committed by rollback
    gateway_requests: int = 0      # requests admitted to the gateway queue
    gateway_rejections: int = 0    # admission-control fast-fails (queue full)
    gateway_expirations: int = 0   # deadlines missed before/during scoring
    gateway_failures: int = 0      # admitted requests failed by an exception
    gateway_batches: int = 0       # coalesced service calls (flushes)
    gateway_epoch_swaps: int = 0   # flushes that crossed a catalog epoch
    gateway_batch_sizes: dict = field(default_factory=dict)
    gateway_latency: LatencyWindow = field(default_factory=LatencyWindow)
    registration_latency: LatencyWindow = field(
        default_factory=LatencyWindow)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["gateway_batch_sizes"] = dict(self.gateway_batch_sizes)
        out["gateway_latency"] = self.gateway_latency.summary()
        out["registration_latency"] = self.registration_latency.summary()
        return out


# Cache versions are allocated from one process-wide monotonic counter, so a
# version number is never reused — not across mutations of one cache, and not
# across cache *instances*: a version recorded against one cache (a memoized
# engine's key) can never match another cache's content.
_VERSION_COUNTER = itertools.count(1)


@dataclass
class EmbeddingCache:
    """Embedding matrix + encoder context, valid for one set of weight arrays.

    Alongside the raw embeddings the cache can hold the *candidate-side
    decoder projections* (``decoder.candidate_projections``), the per-
    (weights, catalog) precompute that makes screening queries one
    broadcast-add instead of a catalog-sized GEMM.  ``version`` is a
    globally unique token reassigned on every content change (from
    ``_VERSION_COUNTER``) so derived structures (the service's sharded
    catalog) know when to rebuild — and can never confuse two caches'
    states.
    """

    # The model's parameter arrays the content was computed from; the
    # service compares them by identity to decide staleness.
    weights: tuple[np.ndarray, ...] | None = None
    context: EncoderContext | None = None
    embeddings: np.ndarray | None = None  # (num_catalog_drugs, hidden_dim)
    projections: dict[str, np.ndarray] | None = None  # candidate precompute
    # Low-rank prefilter factors ({"mean", "std", "components"}) behind the
    # "sketch" rows of the projections, or of the shard store the service
    # serves from; per (weights, catalog) version like them.
    sketch_factors: dict[str, np.ndarray] | None = None
    version: int = 0                      # globally unique content token
    stats: ServiceStats = field(default_factory=ServiceStats)

    @property
    def valid(self) -> bool:
        return self.weights is not None

    def matches(self, weights: tuple[np.ndarray, ...]) -> bool:
        """True when the content was computed from exactly these arrays."""
        return self.valid and all(map(operator.is_, self.weights, weights))

    def drop(self) -> None:
        if self.valid:
            self.stats.invalidations += 1
        self.weights = None
        self.context = None
        self.embeddings = None
        self.projections = None
        self.sketch_factors = None
        self.version = next(_VERSION_COUNTER)

    def install(self, weights: tuple[np.ndarray, ...],
                context: EncoderContext, embeddings: np.ndarray,
                projections: dict[str, np.ndarray] | None = None) -> None:
        """:meth:`adopt` the product of a corpus encode, and count it."""
        self.adopt(weights, context, embeddings, projections)
        self.stats.corpus_encodes += 1

    def adopt(self, weights: tuple[np.ndarray, ...],
              context: EncoderContext, embeddings: np.ndarray,
              projections: dict[str, np.ndarray] | None = None) -> None:
        """Install content that was *not* produced by an encode pass.

        ``corpus_encodes`` stays untouched — the cold-boot path
        (``DDIScreeningService.from_store``) adopts embeddings gathered
        from persisted shards, and its whole point is that no corpus
        encode ever ran.
        """
        self.weights = weights
        self.context = context
        self.embeddings = embeddings
        self.projections = projections
        self.sketch_factors = None
        self.version = next(_VERSION_COUNTER)

    def append_rows(self, rows: np.ndarray,
                    projections: dict[str, np.ndarray] | None = None) -> None:
        if not self.valid:
            raise RuntimeError("cannot append to an invalid cache")
        previous = self.embeddings
        self.embeddings = np.concatenate([self.embeddings, rows], axis=0)
        if self.projections is not None:
            if projections is None or set(projections) != set(self.projections):
                # No matching precompute for the new rows: fall back to a
                # lazy full recompute on the next ensure_projections call.
                self.projections = None
            else:
                # A projection that *is* the embedding matrix (the dot
                # decoder's identity precompute) stays an alias instead of
                # forking into a second full copy.
                self.projections = {
                    name: (self.embeddings if matrix is previous
                           else np.concatenate([matrix, projections[name]],
                                               axis=0))
                    for name, matrix in self.projections.items()}
        self.version = next(_VERSION_COUNTER)
        self.stats.incremental_encodes += len(rows)

    def truncate_rows(self, num_rows: int) -> None:
        """Drop every row past ``num_rows`` (the rollback counterpart of
        :meth:`append_rows`).

        Rows are append-only, so the surviving prefix is bitwise-identical
        to the cache content as of when row ``num_rows`` was the end of
        the catalog — which is what lets a service rollback restore exact
        screening for a retained store version.
        """
        if not self.valid:
            raise RuntimeError("cannot truncate an invalid cache")
        current = len(self.embeddings)
        if not 0 < num_rows <= current:
            raise ValueError(f"cannot truncate {current} cached rows "
                             f"to {num_rows}")
        previous = self.embeddings
        self.embeddings = np.ascontiguousarray(self.embeddings[:num_rows])
        if self.projections is not None:
            self.projections = {
                name: (self.embeddings if matrix is previous
                       else np.ascontiguousarray(matrix[:num_rows]))
                for name, matrix in self.projections.items()}
        self.version = next(_VERSION_COUNTER)

    def ensure_projections(self, decoder) -> dict[str, np.ndarray]:
        """Candidate projections for the cached embeddings, computing once.

        ``decoder`` is any module exposing ``candidate_projections`` (see
        :mod:`repro.core.decoder`).  A cold boot adopts no projections,
        and attaching a shard store releases them; both recompute
        here when the in-memory engine next needs them.
        """
        if not self.valid:
            raise RuntimeError("cannot project an invalid cache")
        if self.projections is None:
            self.projections = decoder.candidate_projections(self.embeddings)
            self.sketch_factors = None  # factors described dropped rows
            self.version = next(_VERSION_COUNTER)
        return self.projections

    def ensure_sketch(self, decoder) -> dict[str, np.ndarray]:
        """Low-rank prefilter factors + ``"sketch"`` projection rows, once.

        ``decoder`` must expose ``sketch_factors`` / ``sketch_candidates``
        (the MLP decoder's PCA surrogate).  The sketch rows live *inside*
        the projections dict, so they ride shard blocking and the shard
        store exactly like the exact-kernel projections;
        the factors ride alongside for query-side sketching.
        """
        projections = self.ensure_projections(decoder)
        if "sketch" in projections and self.sketch_factors is not None:
            return self.sketch_factors
        self.sketch_factors = decoder.sketch_factors(projections)
        projections["sketch"] = decoder.sketch_candidates(
            projections, self.sketch_factors)
        self.version = next(_VERSION_COUNTER)
        return self.sketch_factors
