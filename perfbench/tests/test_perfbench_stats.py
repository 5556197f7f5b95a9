"""The percentile reducer, ok_share accounting, and compare verdicts."""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench.compare import verdict  # noqa: E402
from perfbench.stats import (Tally, interquartile_mean,  # noqa: E402
                             percentile, quartiles, supported)


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    values = np.arange(1.0, 101.0)
    assert percentile(values[:99], 90) is None      # 9.9 beyond
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile(values[:19], 50) is None      # 9.5 beyond
    assert percentile(values[:20], 50) == pytest.approx(10.5)
    assert percentile([], 50) is None
    assert not supported(999, 99.5) and supported(2000, 99.5)


def test_interquartile_mean_drops_the_outer_quarters():
    # Two stalled sub-windows and one burst leave the middle half alone.
    values = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 10.0, 12.0, 400.0]
    assert interquartile_mean(values) == pytest.approx(
        np.mean([99.0, 99.5, 100.0, 100.2, 100.5]))
    assert interquartile_mean([7.0]) == 7.0
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_tally_counts_errors_and_failed_checks_against_attempts():
    tally = Tally()
    tally.ok(7)
    assert tally.check(True, "mismatch")
    assert not tally.check(False, "mismatch")
    tally.fail("error: DeadlineExceeded")
    assert (tally.attempted, tally.failed) == (10, 2)
    assert tally.ok_share == pytest.approx(0.8)
    assert dict(tally.reasons) == {"mismatch": 1,
                                   "error: DeadlineExceeded": 1}
    assert Tally().ok_share == 0.0


def test_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [130.0, 131.0, 129.0], "lower", 0.1) == "worse"
    assert verdict(base, [80.0, 81.0, 79.0], "lower", 0.1) == "better"
    assert verdict(base, [100.2, 99.8, 100.1], "lower", 0.1) == "same"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    # Every run of the change beats every run of the base: resolved.
    assert verdict(base, [50.0, 70.0, 95.0], "lower", 0.1) == "better"
    assert verdict(base, [70.0, 72.0, 71.0], "higher", 0.1) == "worse"


def test_benchmark_json_names_the_runners_workloads_and_bounds():
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
