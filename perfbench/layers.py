"""The layer map: which program functions the traced run wraps, and how
their spans reduce to the per-layer metrics in ``BENCHMARK.json``.

Every per-layer metric is reported on every workload.  A layer that does
no work in a workload's timed window reports 0 (counts, totals, shares and
medians alike), which is how the predicted bypasses show: for example
``encoder.subset_calls`` is 0 on catalog-screen and remote-screen, and the
``remote.*``, ``store.append_*`` and ``tape.*`` figures are non-zero only
on remote-screen, new-drugs and train-epoch respectively.

Per-layer medians are descriptive figures from one traced run and have no
bound; unlike the end-to-end percentiles they are reported however few
samples the layer produced (compactions happen a handful of times a run).
Set-up figures (``*.fit_transform_ms``, ``*.context_encode_ms``,
``tape.record_ms``, ``chem.tokenize_ms_total``) are medians over the
run's repeated set-ups; everything else covers the timed window only.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict

import numpy as np

from .spans import Span, Tracer, covered_length, layer_self_share
from .stats import mean, median

_DEC = "repro.core.decoder"


def _payload_bytes(header, arrays) -> int:
    size = len(json.dumps(header))
    for value in (arrays or {}).values():
        size += getattr(value, "nbytes", 0)
    return size


def _send_attrs(args, kwargs, _result):
    header = args[1] if len(args) > 1 else kwargs.get("header", {})
    arrays = args[2] if len(args) > 2 else kwargs.get("arrays")
    return {"op": header.get("op") or header.get("status") or "",
            "bytes": _payload_bytes(header, arrays)}


def _recv_attrs(_args, _kwargs, result):
    header, arrays = result
    return {"bytes": _payload_bytes(header, arrays)}


# (span name, targets, attrs(args, kwargs, result) or None, opens a flush)
CLIENT_LAYERS = [
    ("gateway.flush", ["repro.serving.gateway:ScreeningGateway._flush"],
     lambda a, k, r: {"batch": len(a[1])}, True),
    ("service.screen_batch",
     ["repro.serving.service:DDIScreeningService.screen_batch"],
     lambda a, k, r: {"approx": bool(k.get("approx", False)),
                      "queries": len(a[1])}, False),
    ("service.screen_smiles_batch",
     ["repro.serving.service:DDIScreeningService.screen_smiles_batch"],
     lambda a, k, r: {"queries": len(a[1])}, False),
    ("service.score_pairs",
     ["repro.serving.service:DDIScreeningService.score_pairs"],
     lambda a, k, r: {"pairs": len(r)}, False),
    ("service.register_drugs",
     ["repro.serving.service:DDIScreeningService.register_drugs"],
     None, False),
    ("service.compact_shards",
     ["repro.serving.service:DDIScreeningService.compact_shards"],
     None, False),
    ("cache.fingerprint", ["repro.serving.cache:weights_fingerprint"],
     None, False),
    ("cache.append_rows", ["repro.serving.cache:EmbeddingCache.append_rows"],
     None, False),
    ("cache.install", ["repro.serving.cache:EmbeddingCache.install"],
     None, False),
    ("encoder.encode_edges_subset",
     ["repro.core.encoder:HyGNNEncoder.encode_edges_subset"],
     lambda a, k, r: {"rows": int(r.shape[0])}, False),
    ("encoder.encode_with_context",
     ["repro.core.encoder:HyGNNEncoder.encode_with_context"], None, False),
    ("decoder.project_queries", [f"{_DEC}:MLPDecoder.project_queries"],
     None, False),
    ("decoder.score_block", [f"{_DEC}:MLPDecoder.score_block",
                             f"{_DEC}:MLPScreenKernel.score_block"],
     lambda a, k, r: {"pairs": int(np.size(r))}, False),
    ("decoder.prefilter_block", [f"{_DEC}:MLPDecoder.prefilter_block",
                                 f"{_DEC}:MLPScreenKernel.prefilter_block"],
     None, False),
    ("decoder.score_rows", [f"{_DEC}:MLPDecoder.score_rows",
                            f"{_DEC}:MLPScreenKernel.score_rows"],
     None, False),
    ("decoder.candidate_projections",
     [f"{_DEC}:MLPDecoder.candidate_projections"], None, False),
    ("model.predict_proba_from_embeddings",
     ["repro.core.model:HyGNN.predict_proba_from_embeddings"],
     lambda a, k, r: {"pairs": int(len(r))}, False),
    ("shards.screen",
     ["repro.serving.shards:ShardedEmbeddingCatalog.screen"],
     lambda a, k, r: {"segments": int(a[0].num_shards)}, False),
    ("shards.finalize", ["repro.serving.shards:finalize_screen"],
     None, False),
    ("topk.select", ["repro.serving.topk:batch_top_k_sets"], None, False),
    ("topk.merge", ["repro.serving.topk:merge_top_k"], None, False),
    ("store.append", ["repro.serving.store:ShardStore.append"], None, False),
    ("store.compact", ["repro.serving.store:ShardStore.compact"],
     None, False),
    ("store.catalog", ["repro.serving.store:ShardStore.catalog"],
     lambda a, k, r: {"segments": int(r.num_shards)}, False),
    ("store.write_file", ["repro.serving.store:_atomic_save"],
     lambda a, k, r: {"bytes": int(a[2].nbytes)}, False),
    ("remote.screen", ["repro.serving.remote:RemoteShardExecutor.screen"],
     None, False),
    ("remote.shard_request",
     ["repro.serving.remote:RemoteShardExecutor._screen_shard"],
     None, False),
    ("remote.send", ["repro.serving.remote:send_message"], _send_attrs,
     False),
    ("remote.recv", ["repro.serving.remote:recv_message"], _recv_attrs,
     False),
    ("tape.record", ["repro.nn.tape:Tape.record"], None, False),
    ("tape.forward", ["repro.nn.tape:Tape.forward"],
     lambda a, k, r: {"rebind": bool(a[1:] or k)}, False),
    ("tape.backward", ["repro.nn.tape:Tape.backward"], None, False),
    ("optim.step", ["repro.nn.optim:Adam.step"], None, False),
    ("trainer.fit", ["repro.core.trainer:Trainer.fit"], None, False),
    ("hypergraph.fit_transform",
     ["repro.hypergraph.construction:DrugHypergraphBuilder.fit_transform"],
     None, False),
    ("chem.tokenize", ["repro.chem.kmer:kmerize"], None, False),
]

# The worker launcher wraps the worker side of the remote tier the same
# way: the whole request, and the shard compute inside it.
WORKER_LAYERS = [
    ("remote.worker_request", ["repro.serving.remote:ShardWorker.dispatch"],
     lambda a, k, r: {"op": str(a[2].get("op"))}, False),
    ("remote.worker_compute", ["repro.serving.shards:screen_shard"],
     None, False),
    ("decoder.score_block", [f"{_DEC}:MLPScreenKernel.score_block"],
     lambda a, k, r: {"pairs": int(np.size(r))}, False),
    ("topk.select", ["repro.serving.topk:batch_top_k_sets"], None, False),
]


def install(tracer: Tracer, table) -> None:
    for name, targets, attrs, opens_flush in table:
        if not tracer.install(name, targets, attrs, opens_flush):
            raise RuntimeError(f"tracer found nothing to wrap for {name}")


_SERVICE_KEYS = {"service.screen_batch": "screen",
                 "service.screen_smiles_batch": "smiles",
                 "service.score_pairs": "pairs"}


def _span_key(span: Span) -> tuple:
    """The coalescing key a service span answers, as requests record it."""
    kind = _SERVICE_KEYS[span.name]
    if kind == "screen":
        return (kind, bool((span.attrs or {}).get("approx")))
    return (kind, False)


def queue_waits(spans: list[Span], requests) -> list[float]:
    """Per-request wait from submission to the start of its service call.

    A request is attributed to the last service span of its kind that
    ended before it was answered (``requests`` rows are ``(key, submitted,
    answered)``).  Requests with no such span, or whose span started
    before they were submitted, are left out.
    """
    by_key: dict[tuple, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name in _SERVICE_KEYS:
            by_key[_span_key(span)].append(span)
    ends = {}
    for key, group in by_key.items():
        group.sort(key=lambda s: s.end)
        ends[key] = [s.end for s in group]
    waits = []
    for key, submitted, answered in requests:
        group = by_key.get(key)
        if not group:
            continue
        at = bisect.bisect_right(ends[key], answered) - 1
        if at < 0 or group[at].start < submitted:
            continue
        waits.append(group[at].start - submitted)
    return waits


def _ms(values) -> list[float]:
    return [v * 1e3 for v in values]


def reduce(window: list[Span], setups: list[list[Span]],
           worker: list[Span], requests, facts: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    ``window``: client spans that started inside the timed window;
    ``setups``: client spans of each repeated set-up; ``worker``: spans
    the remote workers recorded during the window; ``requests``: the
    runner's ``(key, submitted, answered)`` rows; ``facts``: the window as
    ``window`` (start, end) and ``window_s``, the calibrated
    ``span_overhead_s``, and counters the runner read from the program
    (``refused``, ``remote_retries``, ``remote_fallbacks``,
    ``worker_peak_rss_mb``, ``epochs``).
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in window:
        by_name[span.name].append(span)

    def durations(name, pred=None):
        return [s.duration for s in by_name[name]
                if pred is None or pred(s)]

    def total_ms(name):
        return sum(durations(name)) * 1e3

    def attr_values(name, attr):
        return [(s.attrs or {}).get(attr, 0) for s in by_name[name]]

    def setup_median(name):
        """Median over set-ups of the time each spent in ``name``."""
        per_setup = [sum(s.duration for s in spans if s.name == name)
                     for spans in setups]
        return median([v for v in per_setup if v]) * 1e3

    window_s = facts["window_s"]
    m: dict[str, float] = {}

    flushes = by_name["gateway.flush"]
    m["gateway.flushes"] = len(flushes)
    m["gateway.batch_size_mean"] = mean(attr_values("gateway.flush", "batch"))
    waits = _ms(queue_waits(window, requests))
    m["gateway.queue_wait_p50_ms"] = median(waits)
    m["gateway.queue_wait_p90_ms"] = (float(np.percentile(waits, 90))
                                      if waits else 0.0)
    service_s = sum(s.duration for s in window
                    if s.name.startswith("service.")
                    and (s.parent is None
                         or not s.parent.name.startswith("service.")))
    m["gateway.overhead_share"] = (1.0 - service_s / window_s
                                   if flushes else 0.0)
    m["gateway.refused"] = facts.get("refused", 0)

    m["service.screen_batch_p50_ms"] = median(
        _ms(durations("service.screen_batch")))
    m["service.screen_smiles_batch_p50_ms"] = median(
        _ms(durations("service.screen_smiles_batch")))
    m["service.score_pairs_p50_ms"] = median(
        _ms(durations("service.score_pairs")))
    registers = _ms(durations("service.register_drugs"))
    m["service.register_p50_ms"] = median(registers)
    m["service.register_p90_ms"] = (float(np.percentile(registers, 90))
                                    if registers else 0.0)
    m["service.compact_p50_ms"] = median(
        _ms(durations("service.compact_shards")))
    m["service.self_share"] = layer_self_share(window, "service")

    m["cache.fingerprint_calls"] = len(by_name["cache.fingerprint"])
    m["cache.fingerprint_ms_total"] = total_ms("cache.fingerprint")
    m["cache.append_rows_p50_ms"] = median(_ms(durations("cache.append_rows")))
    m["cache.corpus_encodes"] = len(by_name["cache.install"])

    subsets = by_name["encoder.encode_edges_subset"]
    m["encoder.subset_calls"] = len(subsets)
    m["encoder.subset_p50_ms"] = median(
        _ms(durations("encoder.encode_edges_subset")))
    m["encoder.rows_per_call_mean"] = mean(
        attr_values("encoder.encode_edges_subset", "rows"))
    m["encoder.context_encode_ms"] = setup_median(
        "encoder.encode_with_context")

    m["decoder.project_queries_p50_ms"] = median(
        _ms(durations("decoder.project_queries")))
    m["decoder.score_block_calls"] = len(by_name["decoder.score_block"])
    m["decoder.score_block_ms_total"] = total_ms("decoder.score_block")
    pairs = sum(attr_values("decoder.score_block", "pairs"))
    m["decoder.ns_per_pair"] = (sum(durations("decoder.score_block"))
                                * 1e9 / pairs if pairs else 0.0)
    m["decoder.prefilter_ms_total"] = total_ms("decoder.prefilter_block")
    m["decoder.rerank_ms_total"] = total_ms("decoder.score_rows")
    m["decoder.candidate_projections_p50_ms"] = median(
        _ms(durations("decoder.candidate_projections")))
    checks = durations("model.predict_proba_from_embeddings")
    m["model.pair_check_p50_ms"] = median(_ms(checks))
    checked = sum(attr_values("model.predict_proba_from_embeddings", "pairs"))
    m["model.ns_per_pair_checked"] = (sum(checks) * 1e9 / checked
                                      if checked else 0.0)

    m["shards.screen_p50_ms"] = median(_ms(durations("shards.screen")))
    m["shards.self_share"] = layer_self_share(window, "shards")
    m["shards.segments_per_screen_mean"] = mean(
        attr_values("shards.screen", "segments"))
    m["shards.finalize_p50_ms"] = median(_ms(durations("shards.finalize")))
    m["topk.select_ms_total"] = total_ms("topk.select")
    m["topk.merge_ms_total"] = total_ms("topk.merge")

    m["store.append_p50_ms"] = median(_ms(durations("store.append")))
    m["store.compact_p50_ms"] = median(_ms(durations("store.compact")))
    m["store.catalog_open_ms_total"] = total_ms("store.catalog")
    m["store.segments_max"] = max(attr_values("store.catalog", "segments"),
                                  default=0)
    m["store.bytes_written"] = sum(attr_values("store.write_file", "bytes"))

    screens = by_name["remote.screen"]
    shard_screens = [s for s in by_name["remote.send"]
                     if (s.attrs or {}).get("op") == "screen"]
    m["remote.screen_p50_ms"] = median(_ms(durations("remote.screen")))
    m["remote.requests_per_flush"] = (len(shard_screens) / len(screens)
                                      if screens else 0.0)
    m["remote.send_ms_total"] = total_ms("remote.send")
    m["remote.recv_ms_total"] = total_ms("remote.recv")
    moved = (sum(attr_values("remote.send", "bytes"))
             + sum(attr_values("remote.recv", "bytes")))
    m["remote.bytes_per_flush"] = moved / len(screens) if screens else 0.0
    compute = [s.duration for s in worker if s.name == "remote.worker_compute"]
    m["remote.worker_compute_p50_ms"] = median(_ms(compute))
    requested = sum(durations("remote.shard_request"))
    m["remote.transport_share"] = (1.0 - sum(compute) / requested
                                   if requested else 0.0)
    m["remote.retries"] = facts.get("remote_retries", 0)
    m["remote.fallbacks"] = facts.get("remote_fallbacks", 0)
    m["remote.worker_peak_rss_mb"] = facts.get("worker_peak_rss_mb", 0.0)

    m["tape.record_ms"] = setup_median("tape.record")
    m["tape.forward_p50_ms"] = median(_ms(durations(
        "tape.forward", lambda s: not (s.attrs or {}).get("rebind"))))
    m["tape.backward_p50_ms"] = median(_ms(durations("tape.backward")))
    m["trainer.val_forward_p50_ms"] = median(_ms(durations(
        "tape.forward", lambda s: (s.attrs or {}).get("rebind"))))
    m["optim.step_p50_ms"] = median(_ms(durations("optim.step")))
    # The fit span opens during set-up, so its self time inside the window
    # is the window minus what its children (tape, optimizer) cover there.
    epochs = facts.get("epochs", 0)
    start, end = facts["window"]
    fit_children = [(max(s.start, start), min(s.end, end)) for s in window
                    if s.parent is not None
                    and s.parent.name == "trainer.fit"]
    fit_self = (window_s - covered_length(fit_children)
                if fit_children else 0.0)
    m["trainer.epoch_self_ms"] = fit_self * 1e3 / epochs if epochs else 0.0

    m["hypergraph.fit_transform_ms"] = setup_median("hypergraph.fit_transform")
    m["chem.tokenize_ms_total"] = setup_median("chem.tokenize")
    m["trace.overhead_share"] = (len(window) * facts["span_overhead_s"]
                                 / window_s)
    return {name: float(value) for name, value in m.items()}
