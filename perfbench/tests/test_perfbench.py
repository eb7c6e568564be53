"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The traced-run tests start real workers (about a minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import MODULES, PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally, digest  # noqa: E402


def lag_payload(best_forward: int = -1, rho: float = 0.9) -> dict:
    rows = [{"lag": lag, "rho": rho - abs(lag + 1) / 10, "note": None}
            for lag in range(-8, 9)]
    return {"forward": {"direction": "X=>Y", "best_lag": best_forward, "rows": rows},
            "backward": {"direction": "Y=>X", "best_lag": -1, "rows": rows}}


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER


def test_perturbed_payload_counts_as_failed():
    tally = Tally(WORKLOADS["lag-sweep"])
    good = lag_payload()
    assert tally.record(good)
    perturbed = lag_payload(rho=0.9 + 1e-12)
    assert not tally.record(perturbed)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "digest" in tally.problems[0]


def test_flipped_verdict_counts_as_failed_even_as_first_result():
    tally = Tally(WORKLOADS["lag-sweep"])
    assert not tally.record(lag_payload(best_forward=1))
    assert tally.record(lag_payload(best_forward=1)) is False
    assert (tally.attempted, tally.failed) == (2, 2)


def test_recorded_digest_is_the_reference():
    tally = Tally(WORKLOADS["lag-sweep"], recorded_digest="0" * 64)
    assert not tally.record(lag_payload())
    tally = Tally(WORKLOADS["lag-sweep"], recorded_digest=digest(lag_payload()))
    assert tally.record(lag_payload())


def test_raised_run_counts_as_failed():
    tally = Tally(WORKLOADS["tied-large"])
    assert not tally.record(None, "DataError('boom')")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tracer_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("bench.iteration"):
        with tracer.span("ccm.ccm_curve"):
            with tracer.span("embedding.nearest_rows"):
                pass
        with tracer.span("core.skill_stats"):
            pass
    summary = tracer.summary()
    assert summary["bench.iteration"] == {"calls": 1, "total_s": 12.0, "self_s": 7.0}
    assert summary["ccm.ccm_curve"]["self_s"] == 2.0
    assert summary["embedding.nearest_rows"]["self_s"] == 2.0
    metrics = layer_metrics(tracer)
    assert metrics["trace.layer_self_sum_s"] == 5.0
    assert metrics["trace.unwrapped_s"] == 7.0


def test_missing_layer_is_reported_absent(monkeypatch):
    import crossmap.forecast
    weight_rows = crossmap.forecast.weight_rows
    monkeypatch.delattr(crossmap.forecast, "_pairwise_distances")
    tracer = Tracer()
    with tracer.installed():
        assert crossmap.forecast.weight_rows.__wrapped__ is weight_rows
    assert "forecast.pairwise_distances" in tracer.absent
    assert layer_metrics(tracer)["forecast.pairwise_distances.calls"] == 0


def test_install_swaps_every_binding_and_restores_it():
    import crossmap.ccm
    import crossmap.forecast
    original = crossmap.forecast._pairwise_distances
    with Tracer().installed():
        assert crossmap.ccm._pairwise_distances is not original
        assert crossmap.forecast._pairwise_distances is crossmap.ccm._pairwise_distances
    assert crossmap.ccm._pairwise_distances is original
    assert crossmap.forecast._pairwise_distances is original


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    """One short traced run per workload: warm-up, one untraced and one
    traced iteration."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", request.param,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return request.param, details, result


def test_traced_run_matches_untraced_digest(traced_run):
    _, details, result = traced_run
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert len(details["digests"]) == 1


def test_skill_stats_calls_equal_cross_map_count(traced_run):
    _, _, result = traced_run
    metrics = result["metrics"]
    assert metrics["core.skill_stats.calls"]["value"] \
        == metrics["bench.cross_maps"]["value"] > 0


def test_traced_run_stresses_the_claimed_layer(traced_run):
    name, details, result = traced_run
    functions = {k: v["self_s"] for k, v in details["functions"].items()
                 if k.split(".")[0] in MODULES}
    heaviest = max(functions, key=functions.__getitem__)
    builds = result["metrics"]["forecast.pairwise_distances.builds_per_manifold"]
    expected = {"fork-network": ("embedding.nearest_rows", 2),
                "lag-sweep": ("forecast.pairwise_distances", 17),
                "tied-large": ("embedding.nearest_rows", 1)}[name]
    assert (heaviest, builds["value"]) == expected
    assert details["absent"] == []


def test_layer_self_times_add_up_to_traced_wall(traced_run):
    _, _, result = traced_run
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = m["trace.layer_self_sum_s"] + m["trace.unwrapped_s"] + m["trace.counters_s"]
    assert parts == pytest.approx(m["trace.traced_wall_s"], rel=0.05)
