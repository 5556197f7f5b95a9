"""``repro.serving`` — query-shaped deployment layer for trained HyGNN models.

Turns the repeat-scoring hot path from O(full-graph encode) per call into
O(pairs) over cached drug embeddings, with exact invalidation on weight
updates (the cache keeps the parameter arrays it was encoded from, read-only,
and compares them by identity) and incremental (cold-start, paper Table IX)
registration of new drugs.  Screening runs on a scale-aware engine:
precomputed split-weight decoder projections, blockwise streaming top-k
(O(block + k) peak memory), sharded catalogs with deterministic merge, query
micro-batching, and an optional prefilter (inner products for the dot
decoder, a low-rank sketch for the MLP decoder) for approximate top-k at
very large catalog sizes.
Precision tiers trade exactness for throughput explicitly: float32
serving halves memory bandwidth on the GEMM-bound hot loop, and the
approximate tier shortlists with the prefilter and reranks exactly, from
memory or from a shard store alike.  Under concurrency,
:class:`ScreeningGateway` is the
asyncio front door: it coalesces concurrent requests into dynamic
micro-batches (one engine pass per flush) with admission control,
per-request deadlines, graceful drain, and p50/p99/QPS stats — coalesced
catalog screens stay bitwise-identical to serial calls.

Out of process, the same engine runs on shard workers — one placement
for local processes and other hosts alike: :class:`ShardWorker` serves a
shard store's per-shard top-k over a stdlib TCP transport (``python -m
repro.serving.worker``, or :meth:`DDIScreeningService.start_workers` for
local processes), :class:`RemoteShardExecutor` fans screens out to
workers with retries, replica failover, per-worker circuit breakers, and
a local memory-mapped fallback — merged results stay bitwise-identical
to the serial engine under any fault schedule
(:class:`~repro.serving.faults.FaultPolicy` drives them
deterministically from the worker side in tests) — and
:meth:`DDIScreeningService.from_store` cold-boots a full service from a
CRC-verified store, the one record of the catalog, plus the model
archive, without re-encoding the corpus.

The catalog is *living*, not frozen: :class:`ShardStore` is a versioned,
crash-consistent, append-only store — every mutation (append, compaction,
rollback) stages new segment files through a write-ahead intent journal
and commits with one atomic manifest replace, so a writer killed at any
point (driven exhaustively by :class:`~repro.serving.faults.CrashPolicy`
crash points) recovers to a committed version, never a torn hybrid.
``DDIScreeningService.register_drugs`` appends through to the attached
store instead of detaching it, ``rollback_catalog`` restores any retained
version bitwise, and remote workers heal catalog version skew by
re-opening instead of being excluded.
"""

from .cache import (EmbeddingCache, LatencyWindow, ServiceStats,
                    weights_fingerprint)
from .faults import (FAULT_ACTIONS, CrashPoint, CrashPolicy, FaultPolicy,
                     FaultRule, corrupt_payload)
from .gateway import (DeadlineExceeded, GatewayClosed, GatewayOverloaded,
                      ScreeningGateway)
from .precision import (SERVING_PRECISIONS, rank_agreement, recall_at_k,
                        resolve_precision)
from .remote import (CircuitBreaker, FrameError, RemoteShardError,
                     RemoteShardExecutor, ShardWorker, recv_message,
                     send_message)
from .service import DDIScreeningService, ScreenHit
from .shards import CatalogShard, ShardedEmbeddingCatalog, exact_score_fn
from .store import ShardIntegrityError, ShardStore
from .topk import merge_top_k

__all__ = [
    "DDIScreeningService", "ScreenHit",
    "ScreeningGateway", "GatewayClosed", "GatewayOverloaded",
    "DeadlineExceeded",
    "EmbeddingCache", "ServiceStats", "LatencyWindow",
    "weights_fingerprint",
    "ShardedEmbeddingCatalog", "CatalogShard",
    "ShardStore", "ShardIntegrityError",
    "exact_score_fn",
    "ShardWorker", "RemoteShardExecutor", "CircuitBreaker",
    "RemoteShardError", "FrameError", "send_message", "recv_message",
    "FaultPolicy", "FaultRule", "FAULT_ACTIONS",
    "corrupt_payload", "CrashPoint", "CrashPolicy",
    "merge_top_k",
    "SERVING_PRECISIONS", "resolve_precision",
    "rank_agreement", "recall_at_k",
]
