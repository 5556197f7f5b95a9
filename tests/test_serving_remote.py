"""Tests for the fault-tolerant shard-worker screening tier: wire framing,
deterministic fault injection (`repro.serving.faults`), the shard worker +
failover client (`repro.serving.remote`) and the worker connections it
keeps, the store every screen request names (swapped workers, lagging
replicas, one round trip per shard),
store integrity checksums and quarantine, cold boot
(`DDIScreeningService.from_store`), local worker processes
(`DDIScreeningService.start_workers`: worker death, weight updates,
living-catalog reloads), and the gateway's failure/deadline accounting.

The contract under test everywhere: under **any** fault schedule — dropped
connections, injected errors, corrupted frames, timeouts, dead workers,
torn shard files — the merged top-k is either bitwise-identical to the
serial in-memory engine or an explicit error; never silently wrong.
"""

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import asyncio

import numpy as np
import pytest

import repro
from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig, save_model
from repro.core.decoder import (KERNEL_KINDS, kernel_kind, make_kernel,
                                make_screen_kernel)
from repro.serving import (CircuitBreaker, DDIScreeningService,
                           DeadlineExceeded, FaultPolicy, FaultRule,
                           FrameError, RemoteShardError,
                           RemoteShardExecutor, ScreeningGateway,
                           ShardIntegrityError, ShardStore, ShardWorker,
                           corrupt_payload, exact_score_fn, recv_message,
                           send_message)
from repro.serving import remote as remote_module
from repro.serving import store as store_module
from repro.serving.remote import (PROTOCOL, _flatten_arrays, _identity,
                                  _unflatten_arrays)
from repro.serving.shards import validate_shard_results


def _corpus(n=30, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module", params=["mlp", "dot"])
def setup(request):
    corpus = _corpus()
    config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12, seed=5,
                         decoder=request.param)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, config, model, builder


@pytest.fixture(scope="module")
def served(setup, tmp_path_factory):
    """A service with a saved + attached 3-shard store, plus its manifest."""
    corpus, _, model, builder = setup
    service = DDIScreeningService(model, builder, corpus, num_shards=3,
                                  block_size=16)
    root = tmp_path_factory.mktemp("remote-store")
    manifest = service.save_shards(root / "store", num_shards=3)
    assert service.open_shards(manifest, strict=True)
    return service, manifest


def _hits(results):
    return [[(h.index, h.probability) for h in hits] for hits in results]


def _drugs(count):
    """Drug ids and SMILES for ``count`` synthetic rows."""
    return {"drug_ids": [f"drug_{i}" for i in range(count)],
            "smiles": ["C" * (1 + i % 4) for i in range(count)]}


def _frame(specs, payload=b"", protocol=PROTOCOL):
    """A raw wire frame with a valid payload CRC and arbitrary specs."""
    header = json.dumps({"protocol": protocol, "arrays": specs,
                         "crc32": zlib.crc32(payload)}).encode("utf-8")
    return struct.pack("!I", len(header)) + header + payload


def _corrupt_file_tail(path):
    """Flip data bytes at the end of a ``.npy`` file.

    Leaves the numpy header intact, so the file still *loads* — only an
    integrity check can tell the rows are wrong, which is exactly the
    torn-page failure mode the checksums exist for.
    """
    raw = path.read_bytes()
    path.write_bytes(raw[:-16] + corrupt_payload(raw[-16:]))


class _Pipe:
    """In-memory socket stand-in for framing tests."""

    def __init__(self):
        self.buffer = bytearray()
        self.offset = 0

    def sendall(self, data):
        self.buffer.extend(data)

    def recv(self, count):
        chunk = bytes(self.buffer[self.offset:self.offset + count])
        self.offset += len(chunk)
        return chunk


def _dead_addresses(count):
    """Ports from closed listeners: connections are refused immediately."""
    dead = []
    for _ in range(count):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead.append(probe.getsockname())
        probe.close()
    return dead


class _TamperingWorker(ShardWorker):
    """A worker double whose screen replies are well-formed but wrong.

    ``shard_of`` redirects each screen request to another shard's rows;
    ``reverse`` flips every query's rows.  The tampered reply is re-framed,
    so it passes the CRC check — only the client's reply checks catch it.
    """

    def __init__(self, manifest, shard_of=None, reverse=False):
        super().__init__(manifest)
        self.shard_of = shard_of
        self.reverse = reverse

    def dispatch(self, connection, header, arrays):
        if header.get("op") != "screen":
            return super().dispatch(connection, header, arrays)
        meta = dict(header["meta"])
        if self.shard_of is not None:
            meta["shard"] = self.shard_of(meta["shard"])
        pipe = _Pipe()
        super().dispatch(pipe, {**header, "meta": meta}, arrays)
        reply, out = recv_message(pipe)
        if self.reverse:
            out = {name: value[::-1] for name, value in out.items()}
        send_message(connection, reply, out)
        return True


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------
class TestFraming:
    def test_round_trip_nested_arrays_bitwise(self):
        rng = np.random.default_rng(0)
        tree = {"as_left": {"const": rng.standard_normal((2, 5)),
                            "g_max": rng.standard_normal((2, 5, 3))},
                "emb": rng.standard_normal((2, 4)).astype(np.float32),
                "idx": np.arange(7, dtype=np.int64)}
        pipe = _Pipe()
        send_message(pipe, {"op": "screen", "meta": {"shard": 2}},
                     _flatten_arrays(tree))
        header, arrays = recv_message(pipe)
        assert header["op"] == "screen" and header["meta"] == {"shard": 2}
        back = _unflatten_arrays(arrays)
        assert back["emb"].dtype == np.float32
        np.testing.assert_array_equal(back["emb"], tree["emb"])
        np.testing.assert_array_equal(back["idx"], tree["idx"])
        for name in ("const", "g_max"):
            np.testing.assert_array_equal(back["as_left"][name],
                                          tree["as_left"][name])

    def test_empty_arrays_and_no_arrays(self):
        pipe = _Pipe()
        send_message(pipe, {"op": "health"})
        header, arrays = recv_message(pipe)
        assert header["op"] == "health" and arrays == {}
        pipe = _Pipe()
        send_message(pipe, {"op": "x"}, {"empty": np.zeros((0, 4))})
        _, arrays = recv_message(pipe)
        assert arrays["empty"].shape == (0, 4)

    def test_corrupted_payload_raises_frame_error(self):
        pipe = _Pipe()
        send_message(pipe, {"op": "screen"},
                     {"a": np.arange(8, dtype=np.float64)}, _corrupt=True)
        with pytest.raises(FrameError, match="CRC32"):
            recv_message(pipe)

    def test_truncated_frame_raises_eof(self):
        pipe = _Pipe()
        send_message(pipe, {"op": "screen"}, {"a": np.arange(8.0)})
        pipe.buffer = pipe.buffer[:len(pipe.buffer) - 5]
        with pytest.raises(EOFError):
            recv_message(pipe)

    def test_garbage_header_rejected(self):
        frames = [
            b"\x00\x00\x00\x04notj",                 # header not JSON
            _frame([["a", "<f8", [-1]]]),               # negative dimension
            _frame([["a", "|O", [1]]], b"\x00" * 8),    # object dtype
        ]
        for frame in frames:
            pipe = _Pipe()
            pipe.buffer.extend(frame)
            with pytest.raises(FrameError):
                recv_message(pipe)

    def test_v1_frame_is_refused(self):
        """A peer on the first protocol, whose screen requests named no
        store, is refused like a corrupt frame — the client fails over."""
        pipe = _Pipe()
        pipe.buffer.extend(_frame([], protocol="repro.serving.remote/v1"))
        with pytest.raises(FrameError, match="protocol"):
            recv_message(pipe)


# ---------------------------------------------------------------------------
# Fault policy determinism
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_attempt_counters_are_per_op_shard(self):
        policy = FaultPolicy([FaultRule("error", shard=1, attempt=1)])
        assert policy.decide("screen", 1) is None      # shard 1 attempt 0
        assert policy.decide("screen", 0) is None      # other shard
        rule = policy.decide("screen", 1)              # shard 1 attempt 1
        assert rule is not None and rule.action == "error"
        assert policy.decide("screen", 1) is None      # rule budget spent
        assert policy.attempts("screen", 1) == 3

    def test_times_budget_and_reset(self):
        policy = FaultPolicy.single("drop", shard=0, attempt=None, times=2)
        assert [policy.decide("screen", 0) is not None
                for _ in range(4)] == [True, True, False, False]
        policy.reset()
        assert policy.decide("screen", 0) is not None
        assert len(policy.fired) == 1

    def test_two_runs_fire_identically(self):
        def run():
            policy = FaultPolicy([FaultRule("error", shard=2, attempt=0),
                                  FaultRule("corrupt", attempt=1,
                                            times=None)])
            log = []
            for shard in (0, 1, 2, 0, 1, 2):
                rule = policy.decide("screen", shard)
                log.append(None if rule is None else rule.action)
            return log
        assert run() == run()

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="action"):
            FaultRule("explode")
        with pytest.raises(ValueError, match="times"):
            FaultRule("drop", times=0)
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule("delay", delay_s=-1.0)

    def test_corrupt_payload_flips_bytes_same_length(self):
        data = bytes(range(64))
        damaged = corrupt_payload(data)
        assert len(damaged) == len(data) and damaged != data
        assert corrupt_payload(b"") == b""


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_and_half_open_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, reset_s=10.0,
                                 clock=lambda: clock[0])
        assert breaker.allow() and breaker.state == "closed"
        assert not breaker.record_failure()
        assert breaker.record_failure()          # second failure trips
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 11.0                          # reset window elapsed
        assert breaker.state == "half-open"
        assert breaker.allow()                   # the probe slot
        assert not breaker.allow()               # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_full_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()                   # probe
        assert breaker.record_failure()          # probe fails -> reopen
        assert not breaker.allow()
        clock[0] = 10.0                          # not a full window yet
        assert not breaker.allow()
        clock[0] = 11.5
        assert breaker.allow()
        assert breaker.trips == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()      # 1 consecutive, not 2


# ---------------------------------------------------------------------------
# Reply validation
# ---------------------------------------------------------------------------
class TestValidateShardResults:
    def _good(self):
        return [(np.array([3, 1], dtype=np.int64), np.array([0.9, 0.8]))]

    def test_passes_and_casts(self):
        out = validate_shard_results(
            [(np.array([3, 1], dtype=np.int32), np.array([0.9, 0.8]))],
            [2], 0, 5)
        assert out[0][0].dtype == np.int64
        # Equal scores are fine in ascending index order; empty is fine.
        validate_shard_results(
            [(np.array([1, 3]), np.array([0.5, 0.5])),
             (np.zeros(0, dtype=np.int64), np.zeros(0))], [2, 0], 0, 5)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_shard_results(self._good(), [2, 2], 0, 5)
        with pytest.raises(ValueError):   # unpaired lengths
            validate_shard_results(
                [(np.array([1]), np.array([0.5, 0.4]))], [2], 0, 5)
        with pytest.raises(ValueError):   # over padded budget
            validate_shard_results(self._good(), [1], 0, 5)
        with pytest.raises(ValueError):   # index out of catalog
            validate_shard_results(self._good(), [2], 0, 2)
        with pytest.raises(ValueError):   # float indices
            validate_shard_results(
                [(np.array([1.5, 2.5]), np.array([0.5, 0.4]))], [2], 0, 5)

    def test_rejects_rows_of_another_shard(self):
        """Rows must come from the requested shard's [start, stop)."""
        with pytest.raises(ValueError, match="outside the shard"):
            validate_shard_results(self._good(), [2], 2, 5)   # 1 < start
        with pytest.raises(ValueError, match="outside the shard"):
            validate_shard_results(self._good(), [2], 0, 3)   # 3 >= stop
        validate_shard_results(self._good(), [2], 1, 4)

    def test_rejects_rows_out_of_order(self):
        with pytest.raises(ValueError, match="order"):   # ascending scores
            validate_shard_results(
                [(np.array([1, 3]), np.array([0.8, 0.9]))], [2], 0, 5)
        with pytest.raises(ValueError, match="order"):   # tie, index desc
            validate_shard_results(
                [(np.array([3, 1]), np.array([0.5, 0.5]))], [2], 0, 5)
        with pytest.raises(ValueError, match="order"):   # repeated row
            validate_shard_results(
                [(np.array([1, 1]), np.array([0.5, 0.5]))], [2], 0, 5)
        with pytest.raises(ValueError, match="order"):   # NaN score
            validate_shard_results(
                [(np.array([1, 3]), np.array([np.nan, 0.5]))], [2], 0, 5)


# ---------------------------------------------------------------------------
# Worker + remote executor
# ---------------------------------------------------------------------------
class TestShardWorker:
    def test_health_and_manifest_probes(self, served):
        service, manifest = served
        store = ShardStore(manifest)
        with ShardWorker(manifest) as worker:
            executor = RemoteShardExecutor(store, [worker])
            health = executor.probe_health()
            (meta,) = health.values()
            assert meta["num_shards"] == 3
            assert meta["num_drugs"] == store.num_drugs
            assert meta["quarantined"] == []
            # One probe shows an operator which store the worker serves.
            assert {key: meta[key] for key in _identity(store.manifest)} \
                == _identity(store.manifest)

    def test_unknown_op_is_structured_error(self, served):
        """Unknown ops get an error reply — the manifest and reload ops
        of the first protocol among them."""
        _, manifest = served
        with ShardWorker(manifest) as worker:
            for op in ("nonsense", "manifest", "reload"):
                with socket.create_connection(worker.address,
                                              timeout=5) as sock:
                    send_message(sock, {"op": op})
                    reply, _ = recv_message(sock)
                assert reply["status"] == "error"
                assert f"unknown op {op!r}" in reply["meta"]["message"]

    def test_worker_module_runs_without_runpy_warning(self):
        """The package never imports the entry module, so ``-m`` runs it
        without runpy's "found in sys.modules" RuntimeWarning."""
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.serving.worker", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert "manifest" in result.stdout

    def test_screen_request_matches_local_screen_shard(self, setup, served):
        _, config, model, _ = setup
        service, manifest = served
        store = ShardStore(manifest)
        kernel = make_screen_kernel(model.decoder)
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((2, config.embed_dim))
        query_proj = model.decoder.project_queries(queries,
                                                   sides=("as_left",))
        with ShardWorker(manifest) as worker:
            with socket.create_connection(worker.address, timeout=5) as sock:
                send_message(sock, {"op": "screen", "meta": {
                    "store": _identity(store.manifest),
                    "shard": 1, "block_size": 8,
                    "kernel": kernel_kind(kernel), "two_sided": False,
                    "num_queries": 2, "padded": [4, 4]}},
                    _flatten_arrays(query_proj))
                reply, arrays = recv_message(sock)
        assert reply["status"] == "ok"
        local = exact_score_fn(kernel, query_proj, False)
        from repro.serving.shards import screen_shard
        expected = screen_shard(store.open_shard(1), 8, local, 2, [4, 4])
        for qi, (idx, scores) in enumerate(expected):
            np.testing.assert_array_equal(arrays[f"idx_{qi}"], idx)
            np.testing.assert_array_equal(arrays[f"sc_{qi}"], scores)

    def test_stop_returns_after_in_flight_requests(self, served,
                                                   monkeypatch):
        """A handler still inside a request when the worker stops finishes
        it before ``stop()`` returns: no worker thread opens or
        CRC-checks a shard afterwards."""
        service, manifest = served
        serial = _hits(service.screen_batch([0, 5, 9], top_k=6))
        checked = []
        crc32 = store_module._crc32_file

        def counting_crc32(path):
            checked.append(Path(path).name)
            return crc32(path)

        monkeypatch.setattr(store_module, "_crc32_file", counting_crc32)
        policy = FaultPolicy.single("delay", shard=1, delay_s=0.4)
        worker = ShardWorker(manifest, fault_policy=policy).start()
        try:
            service.connect_workers([worker], timeout_s=0.1, attempts=1,
                                    backoff_base_s=0.0)
            got = _hits(service.screen_batch([0, 5, 9], top_k=6))
        finally:
            service.disconnect_workers()
            worker.stop()
        stopped = len(checked)
        time.sleep(0.5)  # past the delay the handler slept through
        assert checked[stopped:] == []
        assert got == serial

    def test_stop_ends_idle_connections(self, served):
        """An open connection with no request in flight does not hold
        ``stop()``: its handler returns and the client sees EOF."""
        _, manifest = served
        worker = ShardWorker(manifest).start()
        with socket.create_connection(worker.address, timeout=2) as idle:
            send_message(idle, {"op": "health"})
            recv_message(idle)  # a handler now waits on this connection
            stopper = threading.Thread(target=worker.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=1.0)
            assert not stopper.is_alive()
            assert idle.recv(1) == b""


class TestRemoteExecutor:
    def _serial(self, served, **kwargs):
        service, _ = served
        return _hits(service.screen_batch([0, 5, 9], top_k=6, **kwargs))

    def test_parity_and_routing(self, served, monkeypatch):
        """Remote screens equal the serial ones over kept connections: no
        worker ever has more requests in flight than the store has
        shards, so 20 screens open at most that many connections."""
        service, manifest = served
        serial = self._serial(served)
        opened = []
        connect = socket.create_connection

        def counting_connect(address, *args, **kwargs):
            opened.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        with ShardWorker(manifest) as w1, ShardWorker(manifest) as w2:
            service.connect_workers([w1, w2], backoff_base_s=0.001)
            try:
                before = service.stats.remote_screens
                remote = _hits(service.screen_batch([0, 5, 9], top_k=6))
                assert remote == serial
                assert service.stats.remote_screens == before + 3
                assert service.remote.stats["remote_requests"] == 3
                assert service.remote.stats["local_fallbacks"] == 0
                for _ in range(19):
                    assert _hits(service.screen_batch([0, 5, 9],
                                                      top_k=6)) == serial
                stats = dict(service.remote.stats)
            finally:
                service.disconnect_workers()
        assert stats["remote_requests"] == 60
        assert stats["remote_failures"] == 0
        assert 1 <= len(opened) <= service.shard_store.num_shards

    def test_parity_two_sided_and_heterogeneous(self, served):
        service, manifest = served
        queries, top_ks = [1, 4, 7], [2, 6, 4]
        exclude = [(3,), (), (0, 2)]
        serial = _hits(service.screen_batch(
            queries, top_k=top_ks, exclude=exclude, symmetric=True))
        with ShardWorker(manifest) as worker:
            service.connect_workers([worker], backoff_base_s=0.001)
            try:
                remote = _hits(service.screen_batch(
                    queries, top_k=top_ks, exclude=exclude, symmetric=True))
                assert remote == serial
            finally:
                service.disconnect_workers()

    def test_fault_schedule_sweep_stays_bitwise(self, served):
        """Drop / error / corrupt each shard for 1..3 consecutive attempts:
        every schedule either fails over or falls back locally, and the
        merged top-k is bitwise the serial answer every single time."""
        service, manifest = served
        serial = self._serial(served)
        attempts = 3
        for action in ("drop", "error", "corrupt"):
            for shard in range(3):
                for consecutive in (1, 2, 3):
                    policy = FaultPolicy.single(
                        action, shard=shard, attempt=None,
                        times=consecutive)
                    with ShardWorker(manifest, fault_policy=policy) as w1, \
                            ShardWorker(manifest, fault_policy=policy) as w2:
                        service.connect_workers(
                            [w1, w2], attempts=attempts,
                            backoff_base_s=0.001, breaker_threshold=10)
                        try:
                            got = _hits(service.screen_batch(
                                [0, 5, 9], top_k=6))
                            stats = service.remote.stats
                        finally:
                            service.disconnect_workers()
                    label = f"{action}/shard{shard}/x{consecutive}"
                    assert got == serial, label
                    assert len(policy.fired) == consecutive, label
                    if consecutive == attempts:
                        assert stats["local_fallbacks"] >= 1, label
                    else:
                        assert stats["local_fallbacks"] == 0, label
                        assert stats["retries"] >= consecutive, label

    def test_timeout_then_failover(self, served):
        service, manifest = served
        serial = self._serial(served)
        policy = FaultPolicy.single("delay", shard=1, delay_s=1.0)
        with ShardWorker(manifest, fault_policy=policy) as w1, \
                ShardWorker(manifest, fault_policy=policy) as w2:
            service.connect_workers([w1, w2], timeout_s=0.25,
                                    backoff_base_s=0.001)
            try:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
            finally:
                stats = service.remote.stats
                service.disconnect_workers()
        assert got == serial
        assert stats["remote_failures"] >= 1 and stats["retries"] >= 1

    def test_dead_worker_fails_over_bitwise(self, served):
        service, manifest = served
        serial = self._serial(served)
        w1 = ShardWorker(manifest).start()
        w2 = ShardWorker(manifest).start()
        try:
            service.connect_workers([w1, w2], backoff_base_s=0.001)
            w1.stop()   # a crashed host: connections now refused
            got = _hits(service.screen_batch([0, 5, 9], top_k=6))
            assert got == serial
            assert service.remote.stats["failovers"] >= 1
        finally:
            service.disconnect_workers()
            w2.stop()

    def test_all_workers_down_local_fallback_bitwise(self, served):
        service, manifest = served
        serial = self._serial(served)
        service.connect_workers(_dead_addresses(2), timeout_s=0.25,
                                backoff_base_s=0.001, breaker_threshold=2,
                                breaker_reset_s=30.0)
        try:
            got = _hits(service.screen_batch([0, 5, 9], top_k=6))
            stats = dict(service.remote.stats)
        finally:
            service.disconnect_workers()
        assert got == serial
        assert stats["local_fallbacks"] == 3      # one per shard
        assert stats["breaker_trips"] >= 1        # breakers opened
        assert stats["breaker_skips"] >= 1        # later shards skipped them

    def test_concurrent_local_fallbacks_never_share_a_kernel(
            self, served, monkeypatch):
        """Fan-out threads falling back at once each score with their own
        kernel: kernels keep non-reentrant scratch buffers, so a shared
        one lets concurrent shards overwrite each other's scores."""
        service, _ = served
        serial = self._serial(served)
        num_shards = service.shard_store.num_shards
        barrier = threading.Barrier(num_shards, timeout=10)
        first_call = threading.local()
        kernels = []
        for cls in KERNEL_KINDS.values():
            def score_block(kernel, *args, _original=cls.score_block,
                            **kwargs):
                # Hold every shard's first block until all shards are
                # scoring, so the fallbacks are sure to overlap.
                if not getattr(first_call, "seen", False):
                    first_call.seen = True
                    kernels.append(kernel)
                    barrier.wait()
                return _original(kernel, *args, **kwargs)
            monkeypatch.setattr(cls, "score_block", score_block)
        service.connect_workers(_dead_addresses(2), attempts=1,
                                timeout_s=0.25, backoff_base_s=0.0)
        try:
            got = _hits(service.screen_batch([0, 5, 9], top_k=6))
            fallbacks = service.remote.stats["local_fallbacks"]
        finally:
            service.disconnect_workers()
        assert fallbacks == num_shards
        assert len(kernels) == num_shards
        assert len({id(kernel) for kernel in kernels}) == num_shards
        assert got == serial

    def test_reply_from_another_shard_is_retried_then_screened_locally(
            self, served):
        """A worker answering every shard with shard 0's rows is caught
        by the shard-range check, not merged into the top-k."""
        service, manifest = served
        serial = self._serial(served)
        with _TamperingWorker(manifest, shard_of=lambda shard: 0) as worker:
            service.connect_workers([worker], attempts=2,
                                    backoff_base_s=0.0,
                                    breaker_threshold=100)
            try:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
                stats = dict(service.remote.stats)
            finally:
                service.disconnect_workers()
        assert got == serial
        assert stats["retries"] == 2              # shards 1 and 2, once each
        assert stats["remote_failures"] == 4
        assert stats["local_fallbacks"] == 2

    def test_reply_out_of_order_is_retried_then_screened_locally(
            self, setup, tmp_path):
        """On a one-shard store the merge is skipped, so only the order
        check stands between reversed worker rows and the caller."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus)
        service.open_shards(service.save_shards(tmp_path / "one",
                                                num_shards=1), strict=True)
        serial = _hits(service.screen_batch([0, 5, 9], top_k=6))
        with _TamperingWorker(service.shard_store.path,
                              reverse=True) as worker:
            service.connect_workers([worker], attempts=2,
                                    backoff_base_s=0.0)
            try:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
                stats = dict(service.remote.stats)
            finally:
                service.close()
        assert got == serial
        assert stats["remote_failures"] == 2
        assert stats["local_fallbacks"] == 1

    def test_no_fallback_raises_after_exhaustion(self, served):
        _, manifest = served
        store = ShardStore(manifest)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        executor = RemoteShardExecutor(
            store, [address], timeout_s=0.25, attempts=2,
            backoff_base_s=0.001, local_fallback=False)
        kernel = make_kernel(sorted(KERNEL_KINDS)[0])
        with pytest.raises(RemoteShardError, match="remote attempt"):
            executor.screen(kernel, {"emb": np.zeros((1, store.embed_dim))},
                            1, 3)
        with pytest.raises(ValueError, match="worker"):
            RemoteShardExecutor(store, [], local_fallback=False)

    def test_worker_fault_policy_drives_retries(self, served):
        """A worker-side policy reaches every client failure path — an
        error reply, a dropped connection (EOF), a corrupt frame — and
        each is retried on the one worker to the serial bits."""
        service, manifest = served
        serial = self._serial(served)
        policy = FaultPolicy([FaultRule("error", shard=0, attempt=0),
                              FaultRule("drop", shard=1, attempt=0),
                              FaultRule("corrupt", shard=2, attempt=0)])
        with ShardWorker(manifest, fault_policy=policy) as worker:
            service.connect_workers([worker], backoff_base_s=0.001)
            try:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
                stats = dict(service.remote.stats)
            finally:
                service.disconnect_workers()
        assert got == serial
        # Shards fan out on threads, so assert per-shard (order-free).
        assert {(f.shard, f.action) for f in policy.fired} == {
            (0, "error"), (1, "drop"), (2, "corrupt")}
        assert stats["corrupt_responses"] == 1
        assert stats["remote_failures"] == 3
        # Faults are injected on the worker only.
        with pytest.raises(TypeError):
            RemoteShardExecutor(manifest, [], fault_policy=policy)

    def test_mismatched_worker_is_excluded_permanently(self, served,
                                                       tmp_path):
        service, manifest = served
        serial = self._serial(served)
        rng = np.random.default_rng(9)
        store = ShardStore(manifest)
        foreign = ShardStore.save(
            tmp_path / "foreign", rng.standard_normal(
                (store.num_drugs, store.embed_dim)),
            num_shards=3, catalog_digest="someone-else",
            **_drugs(store.num_drugs))
        with ShardWorker(foreign) as bad, ShardWorker(manifest) as good:
            service.connect_workers([bad, good], backoff_base_s=0.001)
            try:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
                states = service.remote.breaker_states()
                stats = dict(service.remote.stats)
            finally:
                service.disconnect_workers()
        assert got == serial
        assert stats["mismatched_workers"] == 1
        assert "mismatched" in states.values()

    def test_connect_workers_requires_attached_exact_store(
            self, setup, tmp_path, monkeypatch):
        def no_spawn(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus, num_shards=2)
        with pytest.raises(RuntimeError, match="attached shard store"):
            service.connect_workers([("127.0.0.1", 1)])
        with pytest.raises(RuntimeError, match="attached shard store"):
            service.start_workers(2)


# ---------------------------------------------------------------------------
# Kept worker connections
# ---------------------------------------------------------------------------
def _handler_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.endswith("(process_request_thread)")]


class TestKeptConnections:
    """The client keeps its connections to each worker open: one the
    worker closed is dropped before reuse, one whose request failed is
    closed, and ``close()`` closes the rest."""

    def test_restarted_worker_costs_no_failure(self, served):
        """A worker stopped and started again on the same address closed
        the kept connections, so they are dropped before the next screen
        and it counts no failure and no retry."""
        service, manifest = served
        serial = _hits(service.screen_batch([0, 5, 9], top_k=6))
        original = ShardWorker(manifest).start()
        address = original.address
        try:
            remote = service.connect_workers([address],
                                             backoff_base_s=0.001)
            assert _hits(service.screen_batch([0, 5, 9], top_k=6)) == serial
            original.stop()
            with ShardWorker(manifest, port=address[1]) as restarted:
                got = _hits(service.screen_batch([0, 5, 9], top_k=6))
                stats = dict(remote.stats)
                answered = restarted.requests_served
        finally:
            service.disconnect_workers()
            original.stop()
        assert got == serial
        assert stats["remote_failures"] == 0 and stats["retries"] == 0
        assert stats["local_fallbacks"] == 0
        assert answered == 3

    def test_timed_out_connection_is_not_reused(self, served):
        """A request that timed out closes its connection: the next
        screen, sent to the same worker while it still owes the late
        reply, reads its own answers, never that reply."""
        service, manifest = served
        batches = ([0, 5, 9], [1, 4, 7])
        expected = [_hits(service.screen_batch(queries, top_k=6))
                    for queries in batches]
        policy = FaultPolicy.single("delay", shard=1, delay_s=1.2)
        with ShardWorker(manifest, fault_policy=policy) as worker:
            remote = service.connect_workers([worker], timeout_s=0.5,
                                             attempts=1, backoff_base_s=0.0)
            try:
                got = [_hits(service.screen_batch(queries, top_k=6))
                       for queries in batches]
                stats = dict(remote.stats)
            finally:
                service.disconnect_workers()
        assert got == expected
        assert len(policy.fired) == 1
        assert stats["remote_failures"] == 1
        assert stats["local_fallbacks"] == 1

    def test_close_ends_idle_worker_handlers(self, served):
        """Each kept connection holds a handler thread on the worker.
        ``close()`` closes them, so those handlers end before the worker
        is stopped, and the executor reconnects on its next screen;
        ``disconnect_workers()`` closes them too."""
        service, manifest = served
        serial = _hits(service.screen_batch([0, 5, 9], top_k=6))

        def handlers_end():
            deadline = time.monotonic() + 5.0
            while _handler_threads() and time.monotonic() < deadline:
                time.sleep(0.01)
            return _handler_threads() == []

        with ShardWorker(manifest) as worker:
            remote = service.connect_workers([worker])
            try:
                service.screen_batch([0, 5, 9], top_k=6)
                assert _handler_threads()
                remote.close()
                assert handlers_end()
                assert _hits(service.screen_batch([0, 5, 9],
                                                  top_k=6)) == serial
                assert _handler_threads()
            finally:
                service.disconnect_workers()
            assert handlers_end()


# ---------------------------------------------------------------------------
# The store each screen request names
# ---------------------------------------------------------------------------
class TestStoreIdentity:
    """Every screen request names the store version it must be answered
    from, so a worker never answers from another one, and each shard
    costs one round trip whatever the catalog did."""

    def test_swapped_worker_is_excluded_at_its_first_reply(
            self, setup, served, tmp_path):
        """A worker replaced on an address that already answered, by one
        serving a foreign store of the same shape (the same drugs under
        the same weights, in another order), never gets its rows merged:
        its first reply excludes it and local fallback answers."""
        corpus, _, model, builder = setup
        service, manifest = served
        queries = [0, 5, 9]
        serial = _hits(service.screen_batch(queries, top_k=6))
        foreign = DDIScreeningService(
            model, builder, corpus[::-1], num_shards=3).save_shards(
                tmp_path / "foreign", num_shards=3)
        assert ShardStore(foreign).num_drugs == service.num_drugs
        original = ShardWorker(manifest).start()
        address = original.address
        try:
            remote = service.connect_workers([address],
                                             backoff_base_s=0.001)
            assert _hits(service.screen_batch(queries, top_k=6)) == serial
            assert remote.stats["local_fallbacks"] == 0
            original.stop()
            with ShardWorker(foreign, port=address[1]) as impostor:
                got = _hits(service.screen_batch(queries, top_k=6))
                sent = remote.stats["remote_requests"]
                again = _hits(service.screen_batch(queries, top_k=6))
                stats = dict(remote.stats)
                states = remote.breaker_states()
                answered = impostor.requests_served
        finally:
            service.disconnect_workers()
            original.stop()
        assert got == serial and again == serial
        assert stats["mismatched_workers"] == 1
        assert states == {address: "mismatched"}
        assert answered <= 3                  # at most one per shard
        assert stats["remote_requests"] == sent   # never asked again
        assert stats["local_fallbacks"] == 6

    def test_one_screen_frame_per_shard(self, setup, tmp_path,
                                        monkeypatch):
        """The first screen, and the first after an append, send only
        screen frames, one per shard: the worker that is behind reloads
        once, inside the request that found it behind, and CRC-checks
        only the appended segment's files."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus, num_shards=2)
        manifest = service.save_shards(tmp_path / "store")
        assert service.open_shards(manifest, strict=True)
        twin = DDIScreeningService(model, builder, corpus)
        ops, checked = [], []
        send, crc32 = remote_module.send_message, store_module._crc32_file

        def spy(stream, header, *args, **kwargs):
            if "op" in header:  # requests; replies carry a status
                ops.append(header["op"])
            return send(stream, header, *args, **kwargs)

        def worker_crc32(path):
            if threading.current_thread().name.endswith(
                    "(process_request_thread)"):
                checked.append(Path(path).name)
            return crc32(path)

        monkeypatch.setattr(remote_module, "send_message", spy)
        monkeypatch.setattr(store_module, "_crc32_file", worker_crc32)
        # The worker opens its own store instance, as another process
        # would, so the append leaves it behind.
        with ShardWorker(manifest) as worker:
            remote = service.connect_workers([worker])
            try:
                assert _hits(service.screen_batch([0, 5], top_k=4)) == \
                    _hits(twin.screen_batch([0, 5], top_k=4))
                assert ops == ["screen"] * 2
                ops.clear()
                checked.clear()
                for target in (service, twin):
                    target.register_drug("CCOCC", drug_id="late")
                assert service.shard_store.num_shards == 3
                assert _hits(service.screen_batch([0, "late"], top_k=4)) \
                    == _hits(twin.screen_batch([0, "late"], top_k=4))
                assert ops == ["screen"] * 3
                segment = service.shard_store.manifest["shards"][-1]
                stats = dict(remote.stats)
            finally:
                service.close()
        assert sorted(checked) == sorted(
            [segment["embeddings"], *segment["projections"].values()])
        assert all(name.startswith("seg_v000001.") for name in checked)
        assert stats["remote_requests"] == 5
        assert stats["worker_reloads"] == 1
        assert stats["version_skews"] == 1
        assert stats["local_fallbacks"] == 0

    def test_worker_on_another_catalog_is_excluded(self, setup, tmp_path):
        """A worker on another catalog saved under the same weights is no
        lagging replica, although it holds an older version: once this
        store has moved past version 0 it is excluded at its first reply
        and later screens send it nothing."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus, num_shards=2)
        assert service.open_shards(service.save_shards(tmp_path / "store"),
                                   strict=True)
        twin = DDIScreeningService(model, builder, corpus)
        for target in (service, twin):
            target.register_drug("CCOCC", drug_id="late")
        other = DDIScreeningService(model, builder, corpus[:20]).save_shards(
            tmp_path / "other", num_shards=2)
        queries = [0, 5, "late"]
        expected = _hits(twin.screen_batch(queries, top_k=4))
        with ShardWorker(other) as worker:
            remote = service.connect_workers([worker], attempts=1,
                                             breaker_reset_s=0.05)
            try:
                first = _hits(service.screen_batch(queries, top_k=4))
                sent = remote.stats["remote_requests"]
                later = [_hits(service.screen_batch(queries, top_k=4))
                         for _ in range(19)]
                stats = dict(remote.stats)
            finally:
                service.close()
        assert first == expected
        assert all(hits == expected for hits in later)
        assert stats["mismatched_workers"] == 1
        assert 1 <= sent <= 3                      # one per shard at most
        assert stats["remote_requests"] == sent    # never asked again
        assert stats["breaker_trips"] == 0

    def test_lagging_replica_is_retried_not_excluded(self, setup, tmp_path):
        """A replica whose files lag the catalog answers ``stale`` with an
        older version: the shards fall back, the worker stays in the
        rotation, and once its files catch up it answers again."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus, num_shards=2)
        live, replica = tmp_path / "store", tmp_path / "replica"
        assert service.open_shards(service.save_shards(live), strict=True)
        shutil.copytree(live, replica)
        twin = DDIScreeningService(model, builder, corpus)
        queries = [0, 5, "late"]
        with ShardWorker(replica) as worker:
            remote = service.connect_workers([worker], backoff_base_s=0.001,
                                             breaker_reset_s=0)
            try:
                for target in (service, twin):
                    target.register_drug("CCOCC", drug_id="late")
                expected = _hits(twin.screen_batch(queries, top_k=4))
                assert _hits(service.screen_batch(queries, top_k=4)) == \
                    expected
                assert remote.stats["mismatched_workers"] == 0
                assert remote.stats["version_skews"] >= 1
                assert remote.stats["worker_reloads"] == 0
                assert remote.breaker_states()[worker.address] != \
                    "mismatched"
                # The replica catches up: data files first, then the
                # manifest that commits them.
                for path in sorted(live.iterdir()):
                    if path.is_file() and not (replica / path.name).exists():
                        shutil.copy2(path, replica / path.name)
                shutil.copy2(live / "manifest.json", replica / "manifest.json")
                # The half-open breaker admits one probe at a time, so
                # some shards may still fall back on this screen.
                assert _hits(service.screen_batch(queries, top_k=4)) == \
                    expected
                assert remote.stats["worker_reloads"] >= 1
                assert remote.stats["mismatched_workers"] == 0
            finally:
                service.close()


# ---------------------------------------------------------------------------
# Store integrity: checksums, quarantine, atomic writes
# ---------------------------------------------------------------------------
class TestStoreIntegrity:
    def _store(self, tmp_path, n=40, shards=3):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((n, 6))
        return ShardStore.save(tmp_path / "store", emb,
                               {"emb": emb}, num_shards=shards,
                               block_size=8, **_drugs(n))

    def test_manifest_records_checksums_and_no_temp_files(self, tmp_path):
        manifest = self._store(tmp_path)
        store = ShardStore(manifest)
        files = {p.name for p in manifest.parent.iterdir()}
        assert not any(name.endswith(".tmp") for name in files)
        manifests = {name for name in files
                     if name == "manifest.json"
                     or name.startswith("manifest.v")}
        assert set(store.manifest["checksums"]) == files - manifests
        assert store.verify() == []

    def test_corrupt_shard_detected_and_quarantined(self, tmp_path):
        manifest = self._store(tmp_path)
        _corrupt_file_tail(manifest.parent / "shard_00001.emb.npy")
        store = ShardStore(manifest)
        store.open_shard(0)                       # intact shards still open
        with pytest.raises(ShardIntegrityError, match="CRC32"):
            store.open_shard(1)
        assert store.quarantined == {1}
        fresh = ShardStore(manifest)
        assert fresh.verify() == [1]
        with pytest.raises(ShardIntegrityError):
            ShardStore(manifest).verify(strict=True)

    def test_verification_is_memoized_and_optional(self, tmp_path):
        manifest = self._store(tmp_path)
        victim = manifest.parent / "shard_00000.emb.npy"
        store = ShardStore(manifest)
        store.open_shard(0)
        # Corruption after a shard was verified+mapped is the OS's problem;
        # a *new* store instance re-checks and catches it.
        _corrupt_file_tail(victim)
        with pytest.raises(ShardIntegrityError):
            ShardStore(manifest).open_shard(0)

    def test_manifest_without_full_checksums_rejected(self, tmp_path):
        """Every referenced file must carry a CRC32: a manifest with no
        checksums, or one that leaves a shard file out, is refused."""
        manifest = self._store(tmp_path)
        saved = json.loads(manifest.read_text())
        for drop in (lambda spec: spec.pop("checksums"),
                     lambda spec: spec["checksums"].pop(
                         "shard_00001.emb.npy")):
            spec = json.loads(json.dumps(saved))
            drop(spec)
            manifest.write_text(json.dumps(spec))
            with pytest.raises(ValueError, match="checksum"):
                ShardStore(manifest)

    def test_verify_covers_records_and_context_open_shard_does_not(
            self, served, tmp_path):
        """A worker reads only rows: ``open_shard`` never reads a drug
        record or encoder-context file, while ``verify`` checks both."""
        _, manifest = served
        root = tmp_path / "store"
        shutil.copytree(manifest.parent, root)
        _corrupt_file_tail(root / "shard_00001.drugs.npy")
        store = ShardStore(root)
        store.open_shard(1)
        assert store.verify() == [1]
        _corrupt_file_tail(root / "context.0.npy")
        with pytest.raises(ShardIntegrityError):
            ShardStore(root).verify()

    def test_worker_reports_quarantined_shard_as_error(self, tmp_path,
                                                       served):
        service, _ = served
        manifest = self._store(tmp_path)
        _corrupt_file_tail(manifest.parent / "shard_00002.emb.npy")
        store = ShardStore(manifest)
        with ShardWorker(manifest) as worker:
            executor = RemoteShardExecutor(store, [worker], attempts=1,
                                           timeout_s=5.0,
                                           local_fallback=False)
            kernel = make_kernel("dot")
            rng = np.random.default_rng(1)
            proj = {"emb": rng.standard_normal((1, store.embed_dim))}
            with pytest.raises(RemoteShardError):
                executor.screen(kernel, proj, 1, 3)


# ---------------------------------------------------------------------------
# Cold boot
# ---------------------------------------------------------------------------
class TestColdBoot:
    @pytest.fixture(scope="class")
    def booted(self, setup, tmp_path_factory):
        corpus, _, model, builder = setup
        warm = DDIScreeningService(model, builder, corpus, num_shards=3,
                                   block_size=16)
        warm.register_drug("CCOCC", drug_id="late_1")
        warm.register_drug("CCNCC", drug_id="late_2")
        root = tmp_path_factory.mktemp("coldboot")
        manifest = warm.save_shards(root / "store", num_shards=3)
        artifact = root / "model.npz"
        save_model(artifact, model, builder)
        cold = DDIScreeningService.from_store(manifest, artifact)
        return warm, cold, manifest, artifact

    def test_no_corpus_encode_and_bitwise_screens(self, booted):
        warm, cold, _, _ = booted
        assert cold.stats.corpus_encodes == 0
        queries = [0, 7, "late_1", "late_2"]
        assert _hits(cold.screen_batch(queries, top_k=6)) == \
            _hits(warm.screen_batch(queries, top_k=6))
        np.testing.assert_array_equal(cold.embeddings, warm.embeddings)
        assert cold.stats.corpus_encodes == 0

    def test_cold_boot_serves_remote_workers(self, booted):
        warm, _, manifest, artifact = booted
        with ShardWorker(manifest) as worker:
            cold = DDIScreeningService.from_store(
                manifest, artifact, workers=[worker])
            try:
                assert _hits(cold.screen_batch([0, 4], top_k=5)) == \
                    _hits(warm.screen_batch([0, 4], top_k=5))
                assert cold.stats.remote_screens == 2
                assert cold.stats.corpus_encodes == 0
            finally:
                cold.disconnect_workers()

    def test_corrupt_store_fails_the_boot(self, booted, tmp_path):
        import shutil
        warm, _, manifest, artifact = booted
        for victim in ("shard_00001.emb.npy", "shard_00001.drugs.npy",
                       "context.0.npy"):
            root = tmp_path / victim
            shutil.copytree(manifest.parent, root)
            _corrupt_file_tail(root / victim)
            with pytest.raises(ShardIntegrityError):
                DDIScreeningService.from_store(root, artifact)

    def test_quantized_store_rejected(self, booted, tmp_path):
        """A manifest with the ``quantization`` field earlier releases
        wrote for int8 stores is refused everywhere a store is opened."""
        import shutil
        _, _, manifest, artifact = booted
        root = tmp_path / "int8"
        shutil.copytree(manifest.parent, root)
        spec = json.loads((root / "manifest.json").read_text())
        aliases = set(spec["aliases"])
        spec["quantization"] = {"scheme": "int8", "scales": {
            "embeddings": [1.0] * spec["embed_dim"],
            "projections": {name: [1.0] for name in spec["projections"]
                            if name not in aliases}}}
        (root / "manifest.json").write_text(json.dumps(spec))
        with pytest.raises(ValueError, match="save_shards"):
            ShardStore(root)
        # A service the store's rows otherwise match still refuses it.
        service = DDIScreeningService.from_store(manifest, artifact)
        assert not service.open_shards(root)
        with pytest.raises(ValueError, match="save_shards"):
            service.open_shards(root, strict=True)
        with pytest.raises(ValueError, match="save_shards"):
            DDIScreeningService.from_store(root, artifact)

    def test_store_without_drug_records_rejected(self, booted, tmp_path):
        """A manifest whose shards carry no drug records (what earlier
        releases wrote) is refused everywhere a store is opened."""
        import shutil
        _, _, manifest, artifact = booted
        root = tmp_path / "legacy"
        shutil.copytree(manifest.parent, root)
        spec = json.loads((root / "manifest.json").read_text())
        for shard in spec["shards"]:
            del spec["checksums"][shard.pop("drugs")]
        (root / "manifest.json").write_text(json.dumps(spec))
        for open_store in (ShardStore, ShardWorker,
                           lambda path: DDIScreeningService.from_store(
                               path, artifact)):
            with pytest.raises(ValueError, match="save_shards"):
                open_store(root)
        service = DDIScreeningService.from_store(manifest, artifact)
        assert not service.open_shards(root)
        with pytest.raises(ValueError, match="save_shards"):
            service.open_shards(root, strict=True)

    def test_wrong_model_fingerprint_rejected(self, booted, tmp_path):
        warm, _, manifest, _ = booted
        other_corpus = _corpus(n=12, seed=99)
        config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12,
                             seed=77)
        model, _, builder = HyGNN.for_corpus(other_corpus, config)
        foreign = tmp_path / "foreign.npz"
        save_model(foreign, model, builder)
        with pytest.raises(ValueError, match="fingerprint"):
            DDIScreeningService.from_store(manifest, foreign)

    def test_store_opened_and_verified_once(self, booted, monkeypatch):
        """The boot plus the first exact and approximate screens open one
        ShardStore, recover it once and CRC-check each of its files once,
        and answer with the warm service's bits."""
        warm, _, manifest, artifact = booted
        queries = [0, 7, "late_1"]
        expected = [_hits(warm.screen_batch(queries, top_k=5, approx=approx))
                    for approx in (False, True)]
        opened, checked = [], []
        init, crc32 = ShardStore.__init__, store_module._crc32_file

        def counting_init(self, *args, **kwargs):
            opened.append(kwargs.get("recover", False))
            init(self, *args, **kwargs)

        def counting_crc32(path):
            checked.append(Path(path).name)
            return crc32(path)

        monkeypatch.setattr(ShardStore, "__init__", counting_init)
        monkeypatch.setattr(store_module, "_crc32_file", counting_crc32)
        cold = DDIScreeningService.from_store(manifest, artifact)
        assert [_hits(cold.screen_batch(queries, top_k=5, approx=approx))
                for approx in (False, True)] == expected
        assert opened == [True]
        assert sorted(checked) == sorted(
            json.loads(manifest.read_text())["checksums"])
        assert cold.stats.corpus_encodes == 0

    @pytest.mark.parametrize("case, error, match", [
        ("reordered", ValueError, "different drug catalog"),
        ("fewer_drugs", ValueError, None),
        ("missing", FileNotFoundError, None),
        ("garbage", ValueError, None),
        ("serving_context", ValueError, "save_model"),
    ], ids=["reordered", "fewer_drugs", "missing", "garbage",
            "serving_context"])
    def test_mismatched_or_unreadable_context_rejected(
            self, booted, tmp_path, case, error, match):
        """What a boot encodes against — the store's drug records and
        the model archive — must match the rows, and be readable."""
        import shutil
        _, _, manifest, artifact = booted
        root, model = tmp_path / "store", tmp_path / "model.npz"
        shutil.copytree(manifest.parent, root)
        shutil.copyfile(artifact, model)
        if case in ("reordered", "fewer_drugs"):
            # Edit the last shard's records under a fresh CRC32, so only
            # the catalog digest can tell.
            spec = json.loads((root / "manifest.json").read_text())
            name = spec["shards"][-1]["drugs"]
            records = json.loads(np.load(root / name).tobytes())
            records = records[::-1] if case == "reordered" else records[:-1]
            np.save(root / name, np.frombuffer(
                json.dumps(records).encode(), dtype=np.uint8))
            spec["checksums"][name] = store_module._crc32_file(root / name)
            (root / "manifest.json").write_text(json.dumps(spec))
        elif case == "missing":
            model.unlink()
        elif case == "garbage":
            model.write_bytes(b"not a zip archive")
        else:  # the .npz serving context an earlier release wrote
            np.savez(model, meta_json=np.zeros(2, dtype=np.uint8),
                     model_archive=np.fromfile(artifact, dtype=np.uint8))
        with pytest.raises(error, match=match):
            DDIScreeningService.from_store(root, model)

    def test_approx_screens_equal_in_memory_mapped_and_booted(
            self, setup, tmp_path):
        """An approximate screen takes one path for every placement: in
        memory, from the mapped store and after a cold boot it returns
        the same bits, with the store attached and no corpus encode."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus, num_shards=2,
                                      block_size=8)
        queries = [0, 7, 12]
        expected = _hits(service.screen_batch(queries, top_k=5, approx=True))
        manifest = service.save_shards(tmp_path / "store")
        save_model(tmp_path / "model.npz", model, builder)
        assert service.open_shards(manifest, strict=True)
        cold = DDIScreeningService.from_store(manifest,
                                              tmp_path / "model.npz")
        for placement in (service, cold):
            assert _hits(placement.screen_batch(queries, top_k=5,
                                                approx=True)) == expected
            assert placement.shard_store is not None
        assert cold.stats.corpus_encodes == 0

    def test_attached_store_supplies_the_sketch_factors(self, setup,
                                                        tmp_path):
        """A service that built its own sketch factors and then attaches a
        store prefilters with the store's factors — the ones its sketch
        rows were made with — not its own."""
        corpus, config, model, builder = setup
        if config.decoder != "mlp":
            pytest.skip("the dot decoder prefilters without a sketch")
        ids = [f"new_{i}" for i in range(10)]
        writer = DDIScreeningService(model, builder, corpus[:-10],
                                     num_shards=2, block_size=8)
        assert writer.open_shards(writer.save_shards(tmp_path / "store"),
                                  strict=True)
        writer.register_drugs(corpus[-10:], drug_ids=ids)
        reader = DDIScreeningService(model, builder, corpus[:-10],
                                     num_shards=2, block_size=8)
        reader.register_drugs(corpus[-10:], drug_ids=ids)
        reader.screen(0, top_k=3, approx=True)  # factors over all rows
        assert reader.open_shards(tmp_path / "store", strict=True)
        queries = list(range(reader.num_drugs))
        screen = dict(top_k=3, approx=True, approx_oversample=1)
        assert _hits(reader.screen_batch(queries, **screen)) == \
            _hits(writer.screen_batch(queries, **screen))

    def test_approx_after_append_through_matches_exact(self, setup,
                                                       tmp_path):
        """Rows appended through the store get sketch rows too: a full
        shortlist reranks to the exact screen's bits."""
        corpus, _, model, builder = setup
        service = DDIScreeningService(model, builder, corpus[:-4],
                                      num_shards=2, block_size=8)
        assert service.open_shards(service.save_shards(tmp_path / "store"),
                                   strict=True)
        service.register_drugs(corpus[-4:],
                               drug_ids=[f"new_{i}" for i in range(4)])
        assert service.catalog_version == 1
        queries = [0, 7, "new_3"]
        assert _hits(service.screen_batch(
            queries, top_k=5, approx=True,
            approx_oversample=service.num_drugs)) == \
            _hits(service.screen_batch(queries, top_k=5))
        assert service.shard_store is not None

    def test_pair_scores_and_registration_still_work(self, booted):
        # Runs last in the class: registration grows both catalogs, so
        # earlier store-vs-service parity tests must not see the append.
        warm, cold, _, _ = booted
        pairs = np.array([[0, 3], [2, warm.index_of("late_1")]])
        np.testing.assert_array_equal(cold.score_pairs(pairs),
                                      warm.score_pairs(pairs))
        # New registrations encode against the adopted frozen context.
        index = cold.register_drug("CCSCC", drug_id="after_boot")
        expected = warm.register_drug("CCSCC", drug_id="after_boot")
        assert index == expected
        np.testing.assert_array_equal(cold.embeddings[index],
                                      warm.embeddings[index])
        assert cold.stats.corpus_encodes == 0


# ---------------------------------------------------------------------------
# Local worker processes (start_workers)
# ---------------------------------------------------------------------------
class TestExecutorHardening:
    def test_killed_worker_rebuilds_pool_bitwise(self, served):
        service, _ = served
        queries = [0, 5, 9]
        serial = _hits(service.screen_batch(queries, top_k=6))
        try:
            service.start_workers(2, backoff_base_s=0.001)
            children = list(service._worker_processes)
            assert _hits(service.screen_batch(queries, top_k=6)) == serial
            os.kill(children[0].pid, signal.SIGKILL)
            children[0].wait(timeout=10)
            assert _hits(service.screen_batch(queries, top_k=6)) == serial
            stats = service.remote.stats
            assert stats["failovers"] + stats["local_fallbacks"] >= 1
        finally:
            service.disconnect_workers()
        assert all(child.poll() is not None for child in children)


class TestStartedWorkers:
    """Started worker processes across catalog and weight changes, for one
    decoder (the in-thread worker tests above cover both).  The tests
    share one started pair; the weight update, last, stops it."""

    @pytest.fixture(scope="class")
    def started(self, tmp_path_factory):
        corpus = _corpus()
        config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12,
                             seed=5, decoder="mlp")
        model, _, builder = HyGNN.for_corpus(corpus, config)
        service = DDIScreeningService(model, builder, corpus, num_shards=3)
        root = tmp_path_factory.mktemp("started")
        service.open_shards(service.save_shards(root / "store"),
                            strict=True)
        service.start_workers(2, backoff_base_s=0.001)
        children = list(service._worker_processes)
        yield service, children, corpus, model, builder
        service.close()

    def test_living_catalog_reloads_started_workers(self, started):
        service, children, corpus, model, builder = started
        in_process = DDIScreeningService(model, builder, corpus)
        queries = [0, 5, "late_1", "late_2"]
        for target in (service, in_process):
            target.register_drugs(["CCOCC", "CCNCC"],
                                  drug_ids=["late_1", "late_2"])
        expected = _hits(in_process.screen_batch(queries, top_k=6))
        before = service.stats.remote_screens
        assert _hits(service.screen_batch(queries, top_k=6)) == expected
        service.compact_shards()
        assert _hits(service.screen_batch(queries, top_k=6)) == expected
        assert service.stats.remote_screens == before + 2 * len(queries)
        assert service.remote.stats["worker_reloads"] >= 1
        assert service.remote.stats["local_fallbacks"] == 0
        assert all(child.poll() is None for child in children)

    def test_weight_update_stops_workers_and_screens_fresh(self, started):
        service, children, corpus, model, builder = started
        fresh = DDIScreeningService(model, builder, corpus)
        late = slice(len(corpus), None)
        if service.num_drugs > len(corpus):
            fresh.register_drugs(service._smiles[late],
                                 drug_ids=service.drug_ids[late])
        before = service.stats.remote_screens
        service.screen_batch([0, 5, 9], top_k=6)
        assert service.stats.remote_screens == before + 3
        original = model.encoder.node_embedding.data
        try:
            model.encoder.node_embedding.data = original + 0.1
            after = _hits(service.screen_batch([0, 5, 9], top_k=6))
            assert after == _hits(fresh.screen_batch([0, 5, 9], top_k=6))
            assert service.remote is None
            assert all(child.poll() is not None for child in children)
        finally:
            model.encoder.node_embedding.data = original


# ---------------------------------------------------------------------------
# Gateway failure accounting + deadlines
# ---------------------------------------------------------------------------
class TestGatewayFaults:
    @pytest.fixture
    def service(self, setup):
        corpus, _, model, builder = setup
        return DDIScreeningService(model, builder, corpus)

    def test_gateway_failures_counted_per_failed_request(self, service):
        async def main():
            async with ScreeningGateway(service, max_batch=4) as gateway:
                return await asyncio.gather(
                    gateway.screen(0, top_k=3),
                    gateway.screen(10_000, top_k=3),   # poison: bad index
                    gateway.screen(1, top_k=3),
                    return_exceptions=True)
        before = service.stats.gateway_failures
        good_a, poison, good_b = asyncio.run(main())
        assert isinstance(poison, IndexError)
        assert not isinstance(good_a, Exception)
        assert not isinstance(good_b, Exception)
        assert service.stats.gateway_failures == before + 1

    def test_deadline_covers_in_flush_execution(self, service, monkeypatch):
        real = service.screen_batch

        def slow_screen_batch(*args, **kwargs):
            time.sleep(0.08)
            return real(*args, **kwargs)

        monkeypatch.setattr(service, "screen_batch", slow_screen_batch)
        before = service.stats.gateway_expirations

        async def main():
            async with ScreeningGateway(service, max_batch=2) as gateway:
                return await asyncio.gather(
                    gateway.screen(0, top_k=3, timeout_ms=20.0),
                    gateway.screen(1, top_k=3),
                    return_exceptions=True)
        expired, unbounded = asyncio.run(main())
        # The batch was scored promptly after enqueue (queue wait ~0) but
        # scoring itself blew the 20 ms budget: the bounded request must
        # fail, the deadline-free one still gets its (late) answer.
        assert isinstance(expired, DeadlineExceeded)
        assert not isinstance(unbounded, Exception)
        assert service.stats.gateway_expirations == before + 1

    def test_drain_under_failing_service_answers_everything(self, service,
                                                            monkeypatch):
        calls = {"n": 0}

        def broken_screen_batch(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(service, "screen_batch", broken_screen_batch)
        before = service.stats.gateway_failures

        async def main():
            gateway = ScreeningGateway(service, max_batch=4)
            tasks = [asyncio.ensure_future(gateway.screen(i, top_k=3))
                     for i in range(6)]
            await asyncio.sleep(0)      # let everything enqueue
            await gateway.close()       # drain while the service is failing
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(main())
        assert len(results) == 6
        assert all(isinstance(r, RuntimeError) for r in results)
        assert service.stats.gateway_failures == before + 6
        assert calls["n"] >= 6          # group call + per-request isolation
