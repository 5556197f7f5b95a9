"""Span parenting, flush ids, self time and binding replacement."""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench.layers import queue_waits  # noqa: E402
from perfbench.spans import (Span, Tracer, covered_length,  # noqa: E402
                             dump_spans, layer_self_share, load_spans,
                             self_times)


def _by_name(tracer):
    return {span.name: span for span in tracer.spans}


def test_nested_calls_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda: 1)
    outer = tracer.wrap("layer.outer", lambda: inner() + 1)
    assert outer() == 2
    spans = _by_name(tracer)
    assert spans["layer.inner"].parent is spans["layer.outer"]
    assert spans["layer.outer"].parent is None
    assert spans["layer.outer"].start <= spans["layer.inner"].start
    assert spans["layer.inner"].end <= spans["layer.outer"].end


def test_helper_thread_spans_parent_to_the_main_threads_open_span():
    tracer = Tracer()
    worker = tracer.wrap("remote.shard", lambda: None)

    def fan_out():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap("remote.screen", fan_out)()
    spans = _by_name(tracer)
    assert spans["remote.shard"].parent is spans["remote.screen"]
    assert spans["remote.shard"].tid != spans["remote.screen"].tid


def test_flush_ids_cover_the_flush_and_nothing_after_it():
    tracer = Tracer()
    service = tracer.wrap("service.call", lambda: None)
    flush = tracer.wrap("gateway.flush", service, opens_flush=True)
    flush()
    flush()
    service()
    flushes = [s.flush for s in tracer.spans if s.name == "gateway.flush"]
    calls = [s.flush for s in tracer.spans if s.name == "service.call"]
    assert flushes == [1, 2]
    assert calls == [1, 2, 0]


def test_disabled_tracer_records_nothing_and_still_returns():
    tracer = Tracer()
    tracer.enabled = False
    assert tracer.wrap("x.y", lambda v: v * 2)(21) == 42
    assert tracer.spans == []


def test_exceptions_still_close_the_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("x.boom", boom)()
    (span,) = tracer.spans
    assert span.end >= span.start and tracer._main_stack == []


def test_self_time_subtracts_children_and_merges_parallel_ones():
    parent = Span("service.a", 0.0, 10.0)
    spans = [parent,
             Span("decoder.b", 1.0, 3.0, parent),
             Span("decoder.c", 2.0, 5.0, parent),    # overlaps b
             Span("decoder.d", 9.0, 12.0, parent)]   # runs past the parent
    own = self_times(spans)
    assert own[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[id(spans[1])] == pytest.approx(2.0)
    assert covered_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == 3.0


def test_layer_self_share_counts_nested_spans_of_the_same_layer_once():
    top = Span("shards.screen", 0.0, 10.0)
    fin = Span("shards.finalize", 6.0, 8.0, top)
    kernel = Span("decoder.score", 1.0, 5.0, top)
    merge = Span("topk.merge", 6.5, 7.5, fin)
    share = layer_self_share([top, fin, kernel, merge], "shards")
    # shards' own time: top 10-4-2=4, finalize 2-1=1 -> 5 of 10.
    assert share == pytest.approx(0.5)
    assert layer_self_share([top], "remote") == 0.0


def test_spans_round_trip_through_json_rows():
    parent = Span("a.b", 1.0, 2.0, flush=3, tid=7)
    child = Span("c.d", 1.2, 1.5, parent, 3, 7, {"rows": 2})
    loaded = load_spans(dump_spans([parent, child]), pid=99)
    assert loaded[1].parent is loaded[0]
    assert (loaded[1].attrs, loaded[1].pid, loaded[0].flush) == \
        ({"rows": 2}, 99, 3)


def test_install_replaces_every_binding_and_uninstall_restores_them():
    import repro.serving.remote as remote
    import repro.serving.shards as shards

    original = shards.finalize_screen
    tracer = Tracer()
    replaced = tracer.install("shards.finalize",
                              ["repro.serving.shards:finalize_screen"])
    try:
        assert replaced >= 2
        assert shards.finalize_screen is not original
        assert remote.finalize_screen is shards.finalize_screen
    finally:
        tracer.uninstall()
    assert shards.finalize_screen is original
    assert remote.finalize_screen is original


def test_install_wraps_class_and_classmethods():
    from repro.nn import Tape, Tensor

    tracer = Tracer()
    tracer.install("tape.record", ["repro.nn.tape:Tape.record"])
    try:
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape.record(lambda: (leaf * leaf).sum())
        assert isinstance(tape, Tape)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["tape.record"]
    assert isinstance(Tape.__dict__["record"], classmethod)


def test_queue_wait_uses_the_last_matching_service_span_before_the_answer():
    spans = [Span("service.screen_batch", 1.0, 2.0, attrs={"approx": False}),
             Span("service.screen_batch", 1.5, 2.5, attrs={"approx": True}),
             Span("service.score_pairs", 3.0, 4.0),
             Span("service.screen_batch", 5.0, 6.0, attrs={"approx": False})]
    requests = [(("screen", False), 0.5, 2.6),   # answered by the 1.0 span
                (("screen", True), 1.2, 2.7),    # the approx span at 1.5
                (("pairs", False), 2.0, 4.1),
                (("screen", False), 5.5, 6.1)]   # span began before submit
    assert queue_waits(spans, requests) == pytest.approx([0.5, 0.3, 1.0])
