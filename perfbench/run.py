"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog-screen --seed 1 \
        --seconds 18 --trace 0 [--out results.jsonl]

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps every layer's functions (``perfbench/layers.py``) and
reports the per-layer metrics instead, writing the spans as Chrome
trace-event JSON under ``.bench_out/``.  The last line of standard output
is the result object; the line before it carries the environment, sample
counts and correctness details.  ``--out`` also appends both to a JSON
lines file that ``perfbench/compare.py`` reads.

The program is imported from ``src/`` next to this directory; the run
exits non-zero, printing no result, when it is missing.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread here, before numpy loads, and the shard
# worker processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import layers, stats  # noqa: E402
from perfbench.spans import Tracer, calibrate_overhead  # noqa: E402


SUBWINDOW_S = 0.5    # width the serving windows are cut into
MIN_SUBWINDOWS = 10  # fewer sub-windows with a median fail the run


def end_to_end(out) -> tuple[dict, dict]:
    """End-to-end metric values plus their sample counts.

    The serving windows are cut into equal sub-windows of about
    ``SUBWINDOW_S``; train-epoch's sub-windows are its epochs.  Throughput
    and the median latency are computed in each sub-window and their
    interquartile mean over the sub-windows is reported, so a stall or
    burst of the host that covers a few sub-windows moves none of the
    figures.  A sub-window with too few reads for a median (a stall)
    still counts for throughput.  Upper percentiles go to the detail line
    only (see README.md, "End-to-end metrics").
    """
    start, end = out.window
    if out.per_sample_subwindows:
        rates = [count / seconds for (_, seconds), (_, count)
                 in zip(out.samples, out.completions)]
        medians = [seconds for _, seconds in out.samples]
    else:
        parts = max(MIN_SUBWINDOWS, round((end - start) / SUBWINDOW_S))
        width = (end - start) / parts
        latencies = [[] for _ in range(parts)]
        operations = [0] * parts
        for at, seconds in out.samples:
            latencies[min(max(int((at - start) / width), 0), parts - 1)
                      ].append(seconds)
        for at, count in out.completions:
            operations[min(max(int((at - start) / width), 0), parts - 1)
                       ] += count
        rates = [count / width for count in operations]
        medians = [stats.percentile(values, 50.0) for values in latencies
                   if stats.supported(len(values), 50.0)]
    if len(medians) < MIN_SUBWINDOWS:
        raise RuntimeError(f"only {len(medians)} sub-windows hold enough "
                           f"reads for a median; the run is too short")

    every = np.array([seconds for _, seconds in out.samples]) * 1e3
    values = {
        "setup_s": statistics.median(out.setup_s),
        "throughput_per_s": stats.interquartile_mean(rates),
        "latency_p50_ms": 1e3 * stats.interquartile_mean(medians),
        "ok_share": out.tally.ok_share,
        "peak_rss_mb": out.peak_rss_mb,
    }
    counts = {"latency_samples": len(out.samples),
              "subwindows": len(rates), "subwindows_with_median":
              len(medians), "setups": len(out.setup_s),
              "operations": sum(count for _, count in out.completions),
              "window_s": out.window_s,
              "throughput_mean_per_s":
              sum(count for _, count in out.completions) / out.window_s,
              "latency_ms_by_quantile": {
                  q: stats.percentile(every, q)
                  for q in (50.0, 75.0, 90.0, 95.0, 99.0)
                  if stats.supported(every.size, q)},
              "latency_ms_min_max": [float(np.min(every)),
                                     float(np.max(every))],
              "subwindow_throughput_per_s": [round(r, 1) for r in rates],
              "subwindow_p50_ms": [round(1e3 * m, 3) for m in medians]}
    return values, counts


def per_layer(out, tracer, overhead_s: float) -> dict:
    start, end = out.window
    window = [s for s in tracer.spans if start <= s.start < end]
    setups = [[s for s in tracer.spans if lo <= s.start <= hi]
              for lo, hi in out.setup_windows]
    facts = dict(out.facts, window=out.window, window_s=out.window_s,
                 span_overhead_s=overhead_s)
    return layers.reduce(window, setups, out.worker_spans, out.requests,
                         facts)


def metric_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the run's record to this JSON lines "
                             "file")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (fails fast when the program is missing)

    # One CPU for the whole run; the shard workers inherit the mask.  On a
    # shared host a wake-up that crosses CPUs waits on the host's
    # scheduler, and remote-screen's screens cross between processes
    # several times each (see README.md, "Noise controls").
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = workloads.WORKLOADS[args.workload]
    env = stats.environment(args.seed)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    host_before = stats.host_speed()

    tracer = None
    overhead_s = 0.0
    if args.trace:
        import repro.serving  # noqa: F401  (bind every module first)

        tracer = Tracer()
        overhead_s = calibrate_overhead(tracer)
        layers.install(tracer, layers.CLIENT_LAYERS)
        tracer.enabled = False

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                            work=work, tracer=tracer)
    try:
        out = run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    host_after = stats.host_speed()
    values, counts = end_to_end(out)
    if tracer is not None:
        reported = per_layer(out, tracer, overhead_s)
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome(str(trace_path),
                            tracer.spans + out.worker_spans,
                            origin=out.setup_windows[0][0])
        counts["trace_file"] = str(trace_path.relative_to(ROOT))
        counts["spans"] = len(tracer.spans) + len(out.worker_spans)
    else:
        reported = values
    missing = set(units) - set(reported)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")

    checks_passed = all(check["passed"] for check in out.checks.values())
    correct = out.tally.failed == 0 and checks_passed
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": env,
              "host_speed_per_s": [host_before, host_after],
              "samples": counts,
              "setup_s_each": out.setup_s, "checks": out.checks,
              "failures": dict(out.tally.reasons), "detail": out.detail,
              "end_to_end": values}
    result = {"correct": bool(correct),
              "attempted": int(out.tally.attempted),
              "failed": int(out.tally.failed),
              "metrics": {name: {"value": float(reported[name]),
                                 "unit": unit}
                          for name, unit in units.items()}}
    if args.out:
        with open(args.out, "a") as sink:
            sink.write(json.dumps({"detail": detail, "result": result})
                       + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
