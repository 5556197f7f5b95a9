"""Tests for the asyncio serving gateway and the heterogeneous batch entry
points it coalesces into: dynamic micro-batching parity (bitwise vs serial
``screen``), batch-while-busy flushing, admission control, per-request
deadlines, graceful drain, poison-request isolation, invalidation racing
in-flight batches, and the latency/throughput stats."""

import asyncio
import math
import time

import numpy as np
import pytest

from repro.chem import MoleculeGenerator
from repro.core import HyGNN, HyGNNConfig
from repro.serving import (DDIScreeningService, DeadlineExceeded,
                           GatewayClosed, GatewayOverloaded, LatencyWindow,
                           ScreeningGateway)
from repro.serving.shards import normalize_top_k


def _corpus(n=40, seed=11):
    return [r.smiles for r in MoleculeGenerator(seed=seed).generate_corpus(n)]


@pytest.fixture(scope="module")
def setup():
    corpus = _corpus()
    config = HyGNNConfig(parameter=4, embed_dim=16, hidden_dim=16, seed=3)
    model, hypergraph, builder = HyGNN.for_corpus(corpus, config)
    return corpus, config, model, builder


def _service(setup, **kwargs):
    corpus, _, model, builder = setup
    return DDIScreeningService(model, builder, corpus, **kwargs)


@pytest.fixture
def service(setup):
    return _service(setup)


def _hits(results):
    return [[(h.index, h.probability) for h in hits] for hits in results]


# ---------------------------------------------------------------------------
# Heterogeneous batch entry points (the service side of the gateway)
# ---------------------------------------------------------------------------
class TestHeterogeneousBatch:
    def test_per_query_top_k_matches_serial_bitwise(self, service):
        queries = [0, 7, 3, 12]
        top_ks = [5, 1, 9, 3]
        batched = service.screen_batch(queries, top_k=top_ks)
        serial = [service.screen(q, top_k=k) for q, k in zip(queries, top_ks)]
        assert _hits(batched) == _hits(serial)

    def test_per_query_top_k_sharded_engine(self, setup):
        service = _service(setup, block_size=7, num_shards=3)
        queries = [2, 2, 9]
        top_ks = [8, 2, 4]
        batched = service.screen_batch(queries, top_k=top_ks)
        serial = [service.screen(q, top_k=k) for q, k in zip(queries, top_ks)]
        assert _hits(batched) == _hits(serial)

    def test_per_query_exclude_matches_serial_bitwise(self, service):
        queries = [0, 1, 5]
        excludes = [(2, 3), (), ("drug_0", 7)]
        batched = service.screen_batch(queries, top_k=4, exclude=excludes)
        serial = [service.screen(q, top_k=4, exclude=e)
                  for q, e in zip(queries, excludes)]
        assert _hits(batched) == _hits(serial)

    def test_mixed_top_k_and_exclude(self, service):
        queries = [4, 4, 8]
        top_ks = [2, 6, 3]
        excludes = [(1,), (1, 2, 3), ()]
        batched = service.screen_batch(queries, top_k=top_ks,
                                       exclude=excludes)
        serial = [service.screen(q, top_k=k, exclude=e)
                  for q, k, e in zip(queries, top_ks, excludes)]
        assert _hits(batched) == _hits(serial)

    def test_flat_exclude_stays_shared(self, service):
        # Two ints for two queries must mean "exclude rows 3 and 5 for
        # every query", not per-query.
        batched = service.screen_batch([0, 1], top_k=4, exclude=(3, 5))
        serial = [service.screen(q, top_k=4, exclude=(3, 5)) for q in (0, 1)]
        assert _hits(batched) == _hits(serial)

    def test_per_query_exclude_length_mismatch(self, service):
        with pytest.raises(ValueError, match="per-query exclude"):
            service.screen_batch([0, 1, 2], exclude=[(1,), (2,)])

    def test_per_query_top_k_length_mismatch(self, service):
        with pytest.raises(ValueError, match="per-query top_k"):
            service.screen_batch([0, 1, 2], top_k=[1, 2])

    def test_screen_smiles_batch_matches_serial_bitwise(self, setup):
        corpus, *_ = setup
        service = _service(setup)
        smiles = [corpus[3], corpus[17], corpus[8]]
        top_ks = [4, 2, 6]
        batched = service.screen_smiles_batch(smiles, top_k=top_ks)
        serial = [service.screen_smiles(s, top_k=k)
                  for s, k in zip(smiles, top_ks)]
        assert _hits(batched) == _hits(serial)

    def test_empty_batches(self, service):
        assert service.screen_batch([]) == []
        assert service.screen_smiles_batch([]) == []

    def test_normalize_top_k(self):
        assert normalize_top_k(3, 2) == [3, 3]
        assert normalize_top_k([1, 2], 2) == [1, 2]
        assert normalize_top_k(np.int32(4), 1) == [4]
        with pytest.raises(TypeError):
            normalize_top_k(True, 1)
        with pytest.raises(TypeError):
            normalize_top_k([1, False], 2)
        with pytest.raises(TypeError):
            normalize_top_k(2.5, 1)
        with pytest.raises(ValueError):
            normalize_top_k([1, 2, 3], 2)


# ---------------------------------------------------------------------------
# Gateway: batching parity
# ---------------------------------------------------------------------------
class TestGatewayParity:
    def test_mixed_flush_bitwise_identical_to_serial(self, setup):
        corpus, *_ = setup
        service = _service(setup)
        specs = [(0, 5, ()), (1, 3, (2, 5)), (7, 7, ()),
                 (3, 1, ("drug_0",)), (0, 2, ()), (12, 4, (0, 1, 2))]
        serial = [service.screen(q, top_k=k, exclude=e) for q, k, e in specs]
        pair_lists = [np.array([[0, 1], [2, 3]]), np.array([[5, 6]])]
        pairs_ref = service.score_pairs(np.concatenate(pair_lists))
        smiles_ref = service.screen_smiles(corpus[5], top_k=4)

        async def main():
            async with ScreeningGateway(service, max_batch=16) as gateway:
                tasks = [gateway.screen(q, top_k=k, exclude=e)
                         for q, k, e in specs]
                tasks += [gateway.score_pairs(p) for p in pair_lists]
                tasks.append(gateway.screen_smiles(corpus[5], top_k=4))
                return await asyncio.gather(*tasks)

        out = asyncio.run(main())
        assert _hits(out[:6]) == _hits(serial)
        # Coalesced score_pairs equals one vectorized call over the
        # combined batch, sliced back per caller.
        np.testing.assert_array_equal(np.concatenate(out[6:8]), pairs_ref)
        assert _hits([out[8]]) == _hits([smiles_ref])

    def test_single_flush_coalesces_heterogeneous_top_k(self, setup):
        service = _service(setup)
        specs = [(0, 5), (1, 1), (2, 9), (3, 3)]
        serial = [service.screen(q, top_k=k) for q, k in specs]
        base_batches = service.stats.gateway_batches

        async def main():
            async with ScreeningGateway(service, max_batch=4) as gateway:
                return await asyncio.gather(
                    *[gateway.screen(q, top_k=k) for q, k in specs])

        out = asyncio.run(main())
        assert _hits(out) == _hits(serial)
        # All four went out as one coalesced screen_batch call.
        assert service.stats.gateway_batches - base_batches == 1
        assert service.stats.gateway_batch_sizes.get(4, 0) >= 1

    def test_unbatched_gateway_matches_too(self, setup):
        service = _service(setup)
        serial = [service.screen(q, top_k=3) for q in (0, 1, 2)]

        async def main():
            async with ScreeningGateway(service, max_batch=1) as gateway:
                return await asyncio.gather(
                    *[gateway.screen(q, top_k=3) for q in (0, 1, 2)])

        assert _hits(asyncio.run(main())) == _hits(serial)


# ---------------------------------------------------------------------------
# Gateway: batch while busy
# ---------------------------------------------------------------------------
class TestBatchWhileBusy:
    def test_batcher_yields_between_flushes_under_backlog(self, setup):
        service = _service(setup)
        serial = [service.screen(q, top_k=2) for q in range(6)]
        seen = []

        async def probe():
            seen.append(service.stats.gateway_batches)

        async def main():
            async with ScreeningGateway(service, max_batch=2) as gateway:
                tasks = [asyncio.ensure_future(gateway.screen(q, top_k=2))
                         for q in range(6)]
                await asyncio.sleep(0)  # all six queued, none flushed
                probe_task = asyncio.ensure_future(probe())
                results = await asyncio.gather(*tasks)
                await probe_task
                return results

        results = asyncio.run(main())
        # Queue.get() does not suspend on a backlog: without a yield
        # between flushes the batcher would run all three before the probe.
        assert len(seen) == 1 and seen[0] < 3
        assert _hits(results) == _hits(serial)
        assert service.stats.gateway_batch_sizes == {2: 3}

    def test_closed_loop_callers_keep_full_batches(self, setup):
        service = _service(setup)

        async def client(gateway, c):
            for i in range(5):
                await gateway.screen((c * 5 + i) % service.num_drugs,
                                     top_k=2)

        async def main():
            async with ScreeningGateway(service, max_batch=32) as gateway:
                await asyncio.gather(*[client(gateway, c) for c in range(8)])

        asyncio.run(main())
        # Each answered client resubmits before the batcher takes its
        # next batch, so every flush holds all eight though it never
        # waits for them.
        assert service.stats.gateway_batch_sizes == {8: 5}


# ---------------------------------------------------------------------------
# Gateway: operational behaviour
# ---------------------------------------------------------------------------
class TestGatewayOperations:
    def test_admission_control_fast_fails(self, setup):
        service = _service(setup)
        service.refresh()  # warm the cache outside the measured path

        async def main():
            gateway = ScreeningGateway(service, max_batch=4, max_queue=1)
            results = await asyncio.gather(
                *[gateway.screen(q, top_k=2) for q in (0, 1, 2)],
                return_exceptions=True)
            await gateway.close()
            return results

        results = asyncio.run(main())
        rejected = [r for r in results if isinstance(r, GatewayOverloaded)]
        served = [r for r in results if isinstance(r, list)]
        assert rejected and served
        assert service.stats.gateway_rejections == len(rejected)

    def test_deadline_exceeded_before_flush(self, setup, monkeypatch):
        service = _service(setup)
        service.refresh()
        real = service.screen_batch

        def slow_screen_batch(*args, **kwargs):
            time.sleep(0.03)
            return real(*args, **kwargs)

        monkeypatch.setattr(service, "screen_batch", slow_screen_batch)

        async def main():
            # max_batch=1: the bounded request stays queued behind the
            # unbounded one's 30 ms flush, well past its 5 ms budget.
            async with ScreeningGateway(service, max_batch=1) as gateway:
                return await asyncio.gather(
                    gateway.screen(0, top_k=2),
                    gateway.screen(1, top_k=2, timeout_ms=5),
                    return_exceptions=True)

        served, expired = asyncio.run(main())
        assert isinstance(served, list)
        assert isinstance(expired, DeadlineExceeded)
        assert "before its batch was scored" in str(expired)
        assert service.stats.gateway_expirations == 1

    def test_nan_timeouts_rejected(self, setup):
        service = _service(setup)
        with pytest.raises(ValueError, match="default_timeout_ms"):
            ScreeningGateway(service, default_timeout_ms=math.nan)

        async def main():
            async with ScreeningGateway(service) as gateway:
                with pytest.raises(ValueError, match="timeout_ms"):
                    await gateway.screen(0, top_k=2, timeout_ms=math.nan)
                # +inf stays allowed and means no deadline.
                return await gateway.screen(0, top_k=2, timeout_ms=math.inf)

        assert _hits([asyncio.run(main())]) == _hits(
            [service.screen(0, top_k=2)])

    def test_close_drains_pending_requests(self, setup):
        service = _service(setup)
        serial = [service.screen(q, top_k=3) for q in (0, 1, 2)]

        async def main():
            gateway = ScreeningGateway(service, max_batch=64)
            tasks = [asyncio.ensure_future(gateway.screen(q, top_k=3))
                     for q in (0, 1, 2)]
            await asyncio.sleep(0)  # queued; the batcher runs after us
            await gateway.close()   # must flush, not abandon
            return await asyncio.gather(*tasks)

        assert _hits(asyncio.run(main())) == _hits(serial)

    def test_closed_gateway_rejects_new_requests(self, setup):
        service = _service(setup)

        async def main():
            gateway = ScreeningGateway(service)
            await gateway.close()
            with pytest.raises(GatewayClosed):
                await gateway.screen(0)

        asyncio.run(main())

    def test_drain_waits_for_backlog(self, setup):
        service = _service(setup)

        async def main():
            gateway = ScreeningGateway(service, max_batch=64)
            tasks = [asyncio.ensure_future(gateway.screen(q, top_k=2))
                     for q in (0, 1)]
            await asyncio.sleep(0)  # queued; the batcher runs after us
            await gateway.drain()
            # The barrier sits behind both requests, so drain() returns
            # only after the flush that answered them; one loop pass
            # lets the awaiting tasks resume.
            done, pending = await asyncio.wait(tasks, timeout=1.0)
            assert not pending
            await gateway.close()

        asyncio.run(main())

    def test_poison_request_fails_alone(self, setup):
        service = _service(setup)
        expected = service.screen(0, top_k=3)

        async def main():
            async with ScreeningGateway(service, max_batch=3) as gateway:
                return await asyncio.gather(
                    gateway.screen(0, top_k=3),
                    gateway.screen("no_such_drug", top_k=3),
                    gateway.screen(0, top_k=3),
                    return_exceptions=True)

        good, bad, good2 = asyncio.run(main())
        assert isinstance(bad, KeyError)
        assert _hits([good]) == _hits([expected])
        assert _hits([good2]) == _hits([expected])

    def test_bad_pairs_fail_at_submit(self, setup):
        service = _service(setup)

        async def main():
            async with ScreeningGateway(service) as gateway:
                with pytest.raises(IndexError):
                    await gateway.score_pairs(
                        np.array([[0, service.num_drugs + 3]]))
                with pytest.raises(TypeError):
                    await gateway.score_pairs(np.array([[True, False]]))

        asyncio.run(main())

    def test_empty_pairs_round_trip(self, setup):
        service = _service(setup)

        async def main():
            async with ScreeningGateway(service) as gateway:
                return await gateway.score_pairs(np.zeros((0, 2), dtype=int))

        assert len(asyncio.run(main())) == 0


# ---------------------------------------------------------------------------
# Invalidation racing an in-flight batch
# ---------------------------------------------------------------------------
class TestInvalidationRace:
    def test_weight_update_between_enqueue_and_flush(self):
        # Dedicated model: the test mutates weights.
        corpus = _corpus(n=24, seed=5)
        config = HyGNNConfig(parameter=4, embed_dim=12, hidden_dim=12, seed=7)
        model, _, builder = HyGNN.for_corpus(corpus, config)
        service = DDIScreeningService(model, builder, corpus)
        service.refresh()
        assert service.stats.corpus_encodes == 1

        flushed = []

        async def main():
            async with ScreeningGateway(service, max_batch=4) as gateway:
                real_flush = gateway._flush

                def update_then_flush(batch):
                    if not flushed:
                        # The weight update lands after all four requests
                        # were enqueued, before their batch is scored.
                        table = model.encoder.node_embedding
                        table.data = table.data + 0.05
                    flushed.append(len(batch))
                    real_flush(batch)

                gateway._flush = update_then_flush
                return await asyncio.gather(
                    *[gateway.screen(q, top_k=3) for q in (0, 1, 2, 3)])

        results = asyncio.run(main())
        assert flushed == [4]
        # One rebuild, after the update: the flush saw the new weights.
        assert service.stats.corpus_encodes == 2
        # Every request in the flush was answered from the *new* cache
        # version — bitwise equal to serial post-update screens, so no
        # request mixed embeddings across versions.
        serial = [service.screen(q, top_k=3) for q in (0, 1, 2, 3)]
        assert service.stats.corpus_encodes == 2
        assert _hits(results) == _hits(serial)


# ---------------------------------------------------------------------------
# Stats: latency window, percentiles, histogram
# ---------------------------------------------------------------------------
class TestGatewayStats:
    def test_latency_window_percentiles(self):
        window = LatencyWindow(capacity=8)
        assert np.isnan(window.p50)
        assert window.qps == 0.0
        for i, latency in enumerate([0.1, 0.2, 0.3, 0.4]):
            window.record(latency, completed_at=float(i))
        assert window.p50 == pytest.approx(0.25)
        assert window.p99 == pytest.approx(0.397)
        assert window.qps == pytest.approx(1.0)  # 3 intervals over 3 s
        assert window.count == 4

    def test_latency_window_is_bounded(self):
        window = LatencyWindow(capacity=4)
        for i in range(10):
            window.record(float(i), completed_at=float(i))
        assert len(window) == 4
        assert window.count == 10
        assert window.percentile(0) == 6.0  # oldest retained sample

    def test_gateway_populates_stats(self, setup):
        service = _service(setup)

        async def main():
            async with ScreeningGateway(service, max_batch=4) as gateway:
                await asyncio.gather(
                    *[gateway.screen(q, top_k=2) for q in range(8)])

        asyncio.run(main())
        stats = service.stats
        assert stats.gateway_requests == 8
        assert stats.gateway_latency.count == 8
        assert stats.gateway_latency.p99 >= stats.gateway_latency.p50 > 0
        assert stats.gateway_latency.qps > 0
        assert sum(size * count
                   for size, count in stats.gateway_batch_sizes.items()) == 8
        summary = stats.as_dict()["gateway_latency"]
        assert summary["count"] == 8
        assert summary["p50_ms"] > 0
