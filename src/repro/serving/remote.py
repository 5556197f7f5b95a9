"""Remote placement of the shard plan: TCP shard workers + failover client.

The remote tier takes the engine's shard plan across machines, shaped like
DGL's distributed serving stack (dumb shard-holding workers, a smart
client):

- :class:`ShardWorker` — a stdlib-only ``socketserver`` TCP server that
  opens shards from a :class:`~repro.serving.store.ShardStore` manifest
  and answers per-shard ``screen`` requests plus a ``health`` probe.
  Workers hold no model weights: a request carries an
  :class:`~repro.serving.shards.ExactRequest` (the weight-free kernel
  *kind*, the query projections and the per-query padded budgets), and
  the worker answers it with
  :func:`~repro.serving.shards.screen_exact_shard`, the per-shard task
  the client's local fallback runs too; it composes the in-process
  engine's ``exact_score_fn`` and ``screen_shard``, so per-shard results
  are bitwise-equal by construction.  Every ``screen`` request also
  names the store it must be answered from — fingerprint, catalog
  digest, row count, shard count and committed version — and the worker
  answers only from that store: one that is behind reloads its manifest
  once, and one that still differs replies ``stale`` with what it holds.
  Its ``fault_policy`` (:mod:`repro.serving.faults`) is where tests
  inject faults: each one reaches the client over the wire, like a real
  one.
- :class:`RemoteShardExecutor` — the client: it normalises a screen with
  :class:`~repro.serving.shards.ShardPlan`, fans the per-shard requests
  out over worker connections with per-request timeouts, bounded
  exponential backoff with deterministic jitter, failover to the next
  replica and a per-worker circuit breaker (consecutive-failure trip,
  half-open probe recovery), checks every reply against the store and
  shard it asked for, and — when every replica is down — runs the same
  per-shard task on the locally mapped store.  The reduce is the
  engine's :func:`~repro.serving.shards.finalize_screen`, so the merged
  results are **bitwise-identical** to the serial in-memory engine under
  any fault schedule, and each shard costs one round trip.  The client
  keeps its connections to each worker open and reuses them: one the
  worker has closed is dropped before reuse, one whose request failed is
  closed, and :meth:`RemoteShardExecutor.close` closes them all.

Wire format (no third-party deps): each frame is a 4-byte big-endian
header length, a JSON header, and the raw C-order bytes of each array the
header declares (name, dtype, shape) — with a CRC32 of the binary section
in the header, so a torn or corrupted frame is *detected* and retried
instead of silently mis-merged.  Nested projection dicts flatten to
``"as_left/g_max"``-style keys.

Launch a worker standalone with (:mod:`repro.serving.worker`)::

    PYTHONPATH=src python -m repro.serving.worker /path/to/manifest.json \
        --host 0.0.0.0 --port 7461
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.decoder import kernel_kind
from .faults import FaultPolicy, corrupt_payload
from .shards import (ExactRequest, ShardPlan, finalize_screen,
                     screen_exact_shard, validate_shard_results)
from .store import ShardStore

_HEADER_STRUCT = struct.Struct("!I")
_MAX_HEADER_BYTES = 64 * 1024 * 1024
PROTOCOL = "repro.serving.remote/v2"


class FrameError(ConnectionError):
    """A wire frame failed structural or CRC validation."""


class RemoteShardError(RuntimeError):
    """A worker answered with an error, or every replica was exhausted."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def _flatten_arrays(tree: dict, prefix: str = "") -> dict[str, np.ndarray]:
    """Nested array dicts -> flat ``{"as_left/g_max": array}`` mapping."""
    flat: dict[str, np.ndarray] = {}
    for name, value in tree.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict):
            flat.update(_flatten_arrays(value, prefix=f"{key}/"))
        else:
            flat[key] = np.asarray(value)
    return flat


def _unflatten_arrays(flat: dict[str, np.ndarray]) -> dict:
    """Inverse of :func:`_flatten_arrays`."""
    tree: dict = {}
    for key, value in flat.items():
        node = tree
        parts = key.split("/")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return tree


def send_message(stream, header: dict,
                 arrays: dict[str, np.ndarray] | None = None,
                 _corrupt: bool = False) -> None:
    """Write one length-prefixed JSON + binary-arrays frame to ``stream``.

    ``_corrupt`` is the fault-injection hook: it flips payload bytes
    *after* the CRC is computed, producing exactly the torn frame a
    receiver must detect.  ``stream`` may be a socket or any object with
    ``sendall``.
    """
    arrays = arrays or {}
    specs = []
    chunks = []
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        specs.append([name, array.dtype.str, list(array.shape)])
        chunks.append(array.tobytes())
    payload = b"".join(chunks)
    frame_header = dict(header)
    frame_header["protocol"] = PROTOCOL
    frame_header["arrays"] = specs
    frame_header["crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
    encoded = json.dumps(frame_header).encode("utf-8")
    if _corrupt:
        payload = corrupt_payload(payload)
    stream.sendall(_HEADER_STRUCT.pack(len(encoded)) + encoded + payload)


def _recv_exact(stream, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``EOFError`` on a closed peer."""
    parts = []
    remaining = count
    while remaining:
        chunk = stream.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame"
                           if parts or remaining != count else
                           "connection closed")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def recv_message(stream) -> tuple[dict, dict[str, np.ndarray]]:
    """Read one frame; returns ``(header, arrays)``.

    Raises :class:`FrameError` when the frame is structurally invalid or
    its payload CRC does not match — the caller treats either exactly
    like a dropped connection (retry / failover), never as data.
    """
    (header_len,) = _HEADER_STRUCT.unpack(
        _recv_exact(stream, _HEADER_STRUCT.size))
    if not 0 < header_len <= _MAX_HEADER_BYTES:
        raise FrameError(f"implausible header length {header_len}")
    try:
        header = json.loads(_recv_exact(stream, header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError("frame header is not valid JSON") from error
    if not isinstance(header, dict) or header.get("protocol") != PROTOCOL:
        raise FrameError(f"unexpected protocol "
                         f"{header.get('protocol') if isinstance(header, dict) else header!r}")
    try:
        specs = [(str(name), np.dtype(dtype), tuple(int(d) for d in shape))
                 for name, dtype, shape in header.get("arrays", [])]
        sizes = [dtype.itemsize * int(np.prod(shape, dtype=np.int64))
                 for _, dtype, shape in specs]
    except (TypeError, ValueError) as error:
        raise FrameError("malformed array specs") from error
    # Only plain numeric arrays travel: an object dtype or a negative
    # dimension would fail (or worse) in np.frombuffer below.
    if any(dtype.kind not in "biufc" or min(shape, default=0) < 0
           for _, dtype, shape in specs):
        raise FrameError("malformed array specs")
    payload = _recv_exact(stream, sum(sizes))
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header.get("crc32"):
        raise FrameError("payload CRC32 mismatch — frame corrupt in flight")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for (name, dtype, shape), size in zip(specs, sizes):
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=offset).reshape(shape)
        offset += size
    return header, arrays


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------
def _identity(manifest: dict) -> dict:
    """The store a manifest commits, as every ``screen`` request names it."""
    return {"fingerprint": manifest.get("fingerprint"),
            "catalog_digest": manifest.get("catalog_digest"),
            "num_drugs": int(manifest["num_drugs"]),
            "num_shards": len(manifest["shards"]),
            "version": int(manifest.get("version", 0))}


class _WorkerServer(socketserver.ThreadingTCPServer):
    """Handler threads are not daemons, so ``server_close`` joins them;
    the accept loop records each open connection for ``stop`` to end."""

    allow_reuse_address = True

    def process_request(self, request, client_address) -> None:
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.connections.discard(request)
        super().shutdown_request(request)


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One client connection: frames are handled sequentially until EOF."""

    def handle(self) -> None:
        worker: ShardWorker = self.server.shard_worker  # type: ignore[attr-defined]
        while True:
            try:
                header, arrays = recv_message(self.connection)
                if not worker.dispatch(self.connection, header, arrays):
                    return
            except (EOFError, FrameError, OSError):
                return


class ShardWorker:
    """Dumb shard-holding TCP server: opens a store, answers screen requests.

    The worker owns no model — only the persisted shard bytes.  Each
    ``screen`` request names a store (see :func:`_identity`), a shard, a
    kernel *kind* and per-query padded-k budgets, and carries the
    precomputed query projections; the worker answers with the very same
    :func:`~repro.serving.shards.screen_exact_shard` the client's local
    fallback runs.  When the request names a newer committed version than
    the worker holds, it reloads its manifest (under its lock, so one
    screen causes one reload) and says so in its ``ok`` reply; when the
    store it holds still differs from the one named, it replies
    ``stale`` with its own identity instead of scores.  ``health`` reports
    liveness, quarantined shards and the identity.

    ``fault_policy`` injects deterministic faults into ``screen``
    handling — the test and benchmark harness for the failover client,
    which meets each action on its own path: ``drop`` as an EOF,
    ``error`` as a :class:`RemoteShardError`, ``corrupt`` as a
    :class:`FrameError` and ``delay`` (past ``timeout_s``) as a timeout.
    """

    def __init__(self, manifest: str | Path | ShardStore,
                 host: str = "127.0.0.1", port: int = 0,
                 fault_policy: FaultPolicy | None = None):
        if isinstance(manifest, ShardStore):
            self.store = manifest
        else:
            self.store = ShardStore(manifest)
        self.fault_policy = fault_policy
        self._server = _WorkerServer((host, int(port)), _WorkerHandler)
        self._server.shard_worker = self  # type: ignore[attr-defined]
        self._server.connections = set()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.requests_served = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ShardWorker":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"shard-worker-{self.address[1]}", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the standalone-process entry point)."""
        self._server.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop serving; returns once no handler thread runs (idempotent).

        The accept loop stops first.  Then every open connection's read
        side is shut, so a handler idle in ``recv`` returns at once and
        one inside a request finishes it, and ``server_close`` joins them.
        """
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join()
            self._thread = None
        for connection in list(self._server.connections):
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self._server.server_close()

    def __enter__(self) -> "ShardWorker":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def dispatch(self, connection, header: dict,
                 arrays: dict[str, np.ndarray]) -> bool:
        """Answer one request frame; returns False to sever the connection."""
        op = header.get("op")
        with self._lock:
            self.requests_served += 1
        try:
            if op == "health":
                send_message(connection, {"status": "ok", "meta": {
                    **_identity(self.store.manifest),
                    "quarantined": sorted(self.store.quarantined),
                    "requests_served": self.requests_served}})
                return True
            if op == "screen":
                return self._handle_screen(connection,
                                           header.get("meta") or {}, arrays)
            send_message(connection, {"status": "error", "meta": {
                "message": f"unknown op {op!r}"}})
            return True
        except Exception as error:  # noqa: BLE001 — forwarded to the client
            # Any server-side failure (a quarantined shard's
            # ShardIntegrityError included) becomes a structured error
            # reply the client can fail over on — never a hung socket.
            try:
                send_message(connection, {
                    "status": "error",
                    "meta": {"message": f"{type(error).__name__}: {error}"}})
            except OSError:
                return False
            return True

    def _handle_screen(self, connection, meta: dict,
                       arrays: dict[str, np.ndarray]) -> bool:
        index = int(meta["shard"])
        rule = (self.fault_policy.decide("screen", index)
                if self.fault_policy is not None else None)
        if rule is not None:
            if rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "drop":
                return False  # sever without a reply — a crashed worker
            elif rule.action == "error":
                send_message(connection, {
                    "status": "error",
                    "meta": {"message": "injected worker fault"}})
                return True
        named = meta.get("store")
        with self._lock:
            held = _identity(self.store.manifest)
            reloaded = (held != named
                        and int(named["version"]) > held["version"])
            if reloaded:
                # Mmaps of shards opened before stay valid: appends and
                # compactions write new files.
                self.store.reload()
                held = _identity(self.store.manifest)
            # Opened under the lock, so no other request's reload can
            # slip in: the answer comes from the store this one named.
            shard = self.store.open_shard(index) if held == named else None
        if shard is None:
            send_message(connection, {"status": "stale", "meta": held})
            return True
        request = ExactRequest(
            kind=str(meta["kernel"]), query_proj=_unflatten_arrays(arrays),
            padded=tuple(int(k) for k in meta["padded"]),
            block_size=int(meta["block_size"]),
            two_sided=bool(meta["two_sided"]))
        results = screen_exact_shard(shard, request)
        out = {}
        for qi, (indices, scores) in enumerate(results):
            out[f"idx_{qi}"] = indices
            out[f"sc_{qi}"] = scores
        send_message(connection,
                     {"status": "ok",
                      "meta": {"shard": index, "num_queries": len(results),
                               "reloaded": reloaded}},
                     out, _corrupt=rule is not None
                     and rule.action == "corrupt")
        return True


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probe recovery.

    Closed: every request passes.  After ``threshold`` *consecutive*
    failures the breaker opens: requests are refused without touching the
    network for ``reset_s`` seconds.  Then it goes half-open: exactly one
    probe request is let through — success closes the breaker, failure
    re-opens it for another full window.  Thread-safe (the executor's
    fan-out threads share per-worker breakers).
    """

    def __init__(self, threshold: int = 3, reset_s: float = 5.0,
                 clock=time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_s < 0:
            raise ValueError("reset_s must be >= 0")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing:
                return "half-open"
            if self._clock() - self._opened_at >= self.reset_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a request go out now?  Claims the half-open probe slot."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False  # another thread holds the probe
            if self._clock() - self._opened_at >= self.reset_s:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> bool:
        """Fold in one failure; returns True when this trips the breaker."""
        with self._lock:
            if self._probing:
                # Failed probe: straight back to open, fresh window.
                self._probing = False
                self._opened_at = self._clock()
                self.trips += 1
                return True
            self._failures += 1
            if self._opened_at is None and self._failures >= self.threshold:
                self._opened_at = self._clock()
                self.trips += 1
                return True
            return False


def _parse_address(worker) -> tuple[str, int]:
    """``(host, port)`` from a tuple, a ``"host:port"`` string, or a worker."""
    if isinstance(worker, ShardWorker):
        return worker.address
    if isinstance(worker, str):
        host, _, port = worker.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"worker address {worker!r} is not 'host:port'")
        return host, int(port)
    host, port = worker
    return str(host), int(port)


@dataclass
class _Endpoint:
    """Client-side view of one worker: address, health machinery and the
    idle connections to it (most recently used last)."""

    address: tuple[str, int]
    breaker: CircuitBreaker
    mismatched: bool = False   # serves a different store — never use
    idle: list[socket.socket] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


class RemoteShardExecutor:
    """Fault-tolerant fan-out of per-shard top-k over remote shard workers.

    Same ``screen`` contract as the in-process engine
    (:meth:`~repro.serving.shards.ShardedEmbeddingCatalog.screen`), so the
    service routes a screen to either interchangeably.  Determinism under
    faults: every replica and the local fallback run the same per-shard
    task over the same shard bytes, responses are CRC-checked and checked
    against the shard they answer before entering the merge, and the
    reduce is the engine's deterministic
    :func:`~repro.serving.shards.finalize_screen` — so the merged top-k
    is bitwise-identical to the serial in-memory engine no matter which
    replicas answered, how many retries it took, or whether any shard
    fell back to local execution.

    Per-shard request routing: attempt ``a`` for shard ``s`` goes to
    worker ``(s + a) % len(workers)`` (skipping workers whose circuit
    breaker is open or that serve another store), sleeping a bounded,
    deterministically-jittered exponential backoff between attempts.
    When every attempt fails and ``local_fallback`` is on, the shard is
    screened from the locally mapped store.

    Every request names the store version :meth:`screen` read from the
    attached store.  A ``stale`` reply is a failed attempt: from a
    replica whose files lag (it holds a version this store retains) it
    is retried; any other worker is excluded for good
    (``stats["mismatched_workers"]``).
    """

    def __init__(self, store: ShardStore | str | Path,
                 workers: Sequence, *,
                 timeout_s: float = 10.0,
                 attempts: int = 3,
                 backoff_base_s: float = 0.05,
                 backoff_max_s: float = 1.0,
                 breaker_threshold: int = 3,
                 breaker_reset_s: float = 5.0,
                 local_fallback: bool = True,
                 seed: int = 0):
        if not isinstance(store, ShardStore):
            store = ShardStore(store)
        addresses = [_parse_address(w) for w in workers]
        if not addresses and not local_fallback:
            raise ValueError("need at least one worker when local_fallback "
                             "is off")
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")
        self._store = store
        self._endpoints = [
            _Endpoint(address=addr,
                      breaker=CircuitBreaker(threshold=breaker_threshold,
                                             reset_s=breaker_reset_s))
            for addr in addresses]
        self.timeout_s = timeout_s
        self.attempts = attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.local_fallback = local_fallback
        self._seed = int(seed)
        self._threads: ThreadPoolExecutor | None = None
        self._stats_lock = threading.Lock()
        self.stats: dict[str, int] = {
            "remote_requests": 0, "remote_failures": 0, "retries": 0,
            "failovers": 0, "local_fallbacks": 0, "breaker_trips": 0,
            "breaker_skips": 0, "corrupt_responses": 0,
            "mismatched_workers": 0, "version_skews": 0,
            "worker_reloads": 0}

    # ------------------------------------------------------------------
    @property
    def store(self) -> ShardStore:
        return self._store

    @property
    def workers(self) -> list[tuple[str, int]]:
        return [e.address for e in self._endpoints]

    def breaker_states(self) -> dict[tuple[str, int], str]:
        """Current circuit-breaker state per worker address."""
        return {e.address: ("mismatched" if e.mismatched
                            else e.breaker.state)
                for e in self._endpoints}

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[counter] += amount

    def _ensure_threads(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=min(self._store.num_shards, 16),
                thread_name_prefix="remote-shard")
        return self._threads

    def close(self) -> None:
        """Release the fan-out threads and close every idle worker
        connection, which ends its handler on the worker (idempotent; the
        executor stays usable and its next request reconnects)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        for endpoint in self._endpoints:
            with endpoint.lock:
                idle, endpoint.idle = endpoint.idle, []
            for sock in idle:
                sock.close()

    def __enter__(self) -> "RemoteShardExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _connection(self, endpoint: _Endpoint) -> socket.socket:
        """The most recently used idle connection to ``endpoint`` that the
        worker has not closed, or a new one."""
        while True:
            with endpoint.lock:
                if not endpoint.idle:
                    break
                sock = endpoint.idle.pop()
            # An idle connection has nothing to read: EOF means the worker
            # closed it (stopped or restarted), and a byte is data nobody
            # asked for.  A non-blocking peek never waits; select() would
            # refuse descriptors >= 1024, which mapped shards reach.
            sock.settimeout(0.0)
            try:
                sock.recv(1, socket.MSG_PEEK)
            except BlockingIOError:
                sock.settimeout(self.timeout_s)
                return sock
            except OSError:
                pass
            sock.close()
        return socket.create_connection(endpoint.address,
                                        timeout=self.timeout_s)

    def _roundtrip(self, endpoint: _Endpoint, header: dict,
                   arrays: dict[str, np.ndarray] | None = None
                   ) -> tuple[dict, dict[str, np.ndarray]]:
        """Send one request frame and read its reply over a pooled
        connection.  The connection goes back to the pool only once the
        whole reply frame is read; any failure closes it, so a late reply
        is never read as the answer to a later request."""
        sock = self._connection(endpoint)
        try:
            send_message(sock, header, arrays)
            reply = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        with endpoint.lock:
            endpoint.idle.append(sock)
        return reply

    def probe_health(self) -> dict[tuple[str, int], dict | None]:
        """``health`` probe of every worker (None = unreachable)."""
        out: dict[tuple[str, int], dict | None] = {}
        for endpoint in self._endpoints:
            try:
                reply, _ = self._roundtrip(endpoint, {"op": "health"})
                out[endpoint.address] = reply.get("meta")
            except (OSError, EOFError, FrameError):
                out[endpoint.address] = None
        return out

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------
    def screen(self, kernel, query_proj: dict, num_queries: int,
               top_k: int | Sequence[int],
               block_size: int | None = None,
               exclude: Sequence[np.ndarray] | np.ndarray | None = None,
               two_sided: bool = False
               ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Remote exact-mode screen; bitwise-equal to the serial engine.

        Same contract as :meth:`ShardedEmbeddingCatalog.screen
        <repro.serving.shards.ShardedEmbeddingCatalog.screen>`: one
        ``(indices, probabilities)`` pair per query, sorted by
        (probability desc, index asc), exclusions removed; ``top_k`` may
        be one shared budget or a per-query sequence.
        """
        plan = ShardPlan.build(num_queries, top_k, exclude)
        request = ExactRequest(kernel_kind(kernel), query_proj, plan.padded,
                               int(block_size or self._store.block_size),
                               bool(two_sided))
        # One committed version names the store for every shard request.
        manifest = self._store.manifest
        shard_ids = range(len(manifest["shards"]))
        if len(shard_ids) == 1 or not self._endpoints:
            per_shard = [self._screen_shard(request, sid, manifest)
                         for sid in shard_ids]
        else:
            pool = self._ensure_threads()
            per_shard = list(pool.map(
                lambda sid: self._screen_shard(request, sid, manifest),
                shard_ids))
        return finalize_screen(per_shard, plan)

    # -- per-shard retry / failover loop --------------------------------
    def _screen_shard(self, request: ExactRequest, shard: int,
                      manifest: dict
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
        last_error: Exception | None = None
        previous_address = None
        for attempt in range(self.attempts):
            endpoint = self._pick_endpoint(shard, attempt)
            if endpoint is None:
                break  # every replica's breaker is open / mismatched
            if attempt:
                self._bump("retries")
                if endpoint.address != previous_address:
                    self._bump("failovers")
                time.sleep(self._backoff_s(shard, attempt - 1))
            previous_address = endpoint.address
            try:
                result = self._request_screen(endpoint, request, shard,
                                              manifest)
            except FrameError as error:
                self._bump("corrupt_responses")
                last_error = self._record_failure(endpoint, error)
            except (OSError, EOFError, TimeoutError, RemoteShardError,
                    ValueError) as error:
                last_error = self._record_failure(endpoint, error)
            else:
                endpoint.breaker.record_success()
                return result
        if self.local_fallback:
            self._bump("local_fallbacks")
            # Same per-shard task over the same bytes, so falling back is
            # invisible in the results — only in the stats.
            return screen_exact_shard(self._store.open_shard(shard), request)
        raise RemoteShardError(
            f"shard {shard}: every remote attempt failed and local "
            f"fallback is disabled") from last_error

    def _record_failure(self, endpoint: _Endpoint,
                        error: Exception) -> Exception:
        self._bump("remote_failures")
        if not endpoint.mismatched and endpoint.breaker.record_failure():
            self._bump("breaker_trips")
        return error

    def _pick_endpoint(self, shard: int, attempt: int) -> _Endpoint | None:
        """Next replica for ``(shard, attempt)``, honouring breakers."""
        count = len(self._endpoints)
        if not count:
            return None
        for offset in range(count):
            endpoint = self._endpoints[(shard + attempt + offset) % count]
            if endpoint.mismatched:
                continue
            if endpoint.breaker.allow():
                return endpoint
            self._bump("breaker_skips")
        return None

    def _backoff_s(self, shard: int, exponent: int) -> float:
        """Bounded exponential backoff with deterministic jitter.

        Jitter derives from CRC32 of ``(seed, shard, exponent)`` — spread
        like randomness across shards (no thundering herd on a recovering
        worker), yet byte-reproducible run to run, which keeps fault-
        schedule tests deterministic.
        """
        base = min(self.backoff_max_s,
                   self.backoff_base_s * (2.0 ** exponent))
        token = zlib.crc32(
            f"{self._seed}:{shard}:{exponent}".encode()) / 0xFFFFFFFF
        return base * (0.5 + 0.5 * token)

    def _request_screen(self, endpoint: _Endpoint, request: ExactRequest,
                        shard: int, manifest: dict
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
        store = _identity(manifest)
        header = {"op": "screen",
                  "meta": {"store": store, "shard": shard,
                           "block_size": request.block_size,
                           "kernel": request.kind,
                           "two_sided": request.two_sided,
                           "num_queries": len(request.padded),
                           "padded": list(request.padded)}}
        self._bump("remote_requests")
        reply, arrays = self._roundtrip(endpoint, header,
                                        _flatten_arrays(request.query_proj))
        meta = reply.get("meta") or {}
        if reply.get("status") == "stale":
            self._bump("version_skews")
            try:
                lagging = meta == _identity(
                    self._store.manifest_for(int(meta["version"])))
            except (KeyError, TypeError, ValueError, OSError):
                lagging = False  # not a version this client retains
            if lagging:
                # It holds one of this store's committed versions, still
                # after reloading: a replica whose files lag.  A later
                # attempt may find it caught up.
                raise RemoteShardError(
                    f"worker {endpoint.address} is at catalog version "
                    f"{meta.get('version')} (local {store['version']}) — "
                    f"will retry")
            # Concurrent shard threads may meet the same worker at once;
            # count each mismatched worker exactly once.
            with self._stats_lock:
                if not endpoint.mismatched:
                    endpoint.mismatched = True
                    self.stats["mismatched_workers"] += 1
            raise RemoteShardError(
                f"worker {endpoint.address} serves a different store "
                f"(fingerprint/digest/shape mismatch) — excluded")
        if reply.get("status") != "ok":
            raise RemoteShardError(
                f"worker {endpoint.address} failed shard {shard}: "
                f"{meta.get('message')}")
        if meta.get("reloaded"):
            self._bump("version_skews")
            self._bump("worker_reloads")
        try:
            results = [(arrays[f"idx_{qi}"], arrays[f"sc_{qi}"])
                       for qi in range(len(request.padded))]
        except KeyError as error:
            raise RemoteShardError(
                f"worker {endpoint.address} reply is missing arrays "
                f"({error})") from None
        spec = manifest["shards"][shard]
        return validate_shard_results(results, request.padded,
                                      int(spec["start"]), int(spec["stop"]))
