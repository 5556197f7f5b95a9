"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each argument is a JSON lines file (or a directory of them) written by
``run.py --out``; untraced runs are compared, traced runs ignored.  For
every workload and end-to-end metric it prints each side's median and
quartiles, and a verdict:

* ``worse``      - the change's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` - either side's quartile spread (as a share of its
  median) exceeds the bound, so the runs cannot tell a change of that
  size from noise - unless every run of the change is better than every
  run of the base;
* ``better``     - the medians differ in the better direction by more
  than the base's own quartile spread;
* ``same``       - none of the above.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` from untraced run records."""
    files = sorted(Path(path).glob("*.jsonl")) if Path(path).is_dir() \
        else [Path(path)]
    runs: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for file in files:
        for line in file.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record["detail"].get("trace"):
                continue
            metrics = runs[record["detail"]["workload"]]
            for name, metric in record["result"]["metrics"].items():
                metrics[name].append(float(metric["value"]))
    return runs


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if b_med == 0:
        return "same" if c_med == 0 else "unresolved"
    gain = sign * (c_med - b_med) / abs(b_med)
    spread = max((b_q3 - b_q1) / abs(b_med),
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    separated = (min(sign * v for v in change)
                 > max(sign * v for v in base))
    if spread > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > (b_q3 - b_q1) / abs(b_med) and gain > 0:
        return "better"
    return "same"


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) | set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name, [])
            b = change.get(workload, {}).get(name, [])
            if not a or not b:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing"})
                continue
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "base": quartiles(a), "change": quartiles(b),
                         "runs": (len(a), len(b)),
                         "verdict": verdict(a, b, metric["better"],
                                            metric["bound"])})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    rows = compare(load(args.base), load(args.change), spec)
    print(f"{'workload':15s} {'metric':18s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:15s} {row['metric']:18s} "
                  f"{'':>30s} {'':>30s}  missing")
            continue
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{row['workload']:15s} {row['metric']:18s} "
              f"{fmt.format(*row['base']):>30s} "
              f"{fmt.format(*row['change']):>30s}  {row['verdict']}"
              f" (bound {row['bound']}, runs {row['runs'][0]}"
              f"/{row['runs'][1]})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
