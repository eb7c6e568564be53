"""The benchmark's workloads, run at every recorded seed, must reproduce
their recorded payload digests, so that a change that moves a single bit
of a benchmarked result fails here and not only in the benchmark.

The workloads and the digests are read from ``perfbench/``; nothing there
is written.
"""

import json
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    """``perfbench/workloads.py`` as a module, compiled in memory so that
    no bytecode cache is written next to it."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    # dataclasses look their module up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_payload_matches_its_recorded_digest(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    payload = workload.run(workload.setup(0, tmp_path))
    assert workload.verdicts(payload) == []
    assert workloads.digest(payload) == DIGESTS[name]["0"]


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in sorted(workloads.WORKLOADS)
    for seed in sorted(set(DIGESTS[name]) - {"0"}, key=int)])
def test_workload_matches_its_digest_at_every_recorded_seed(name, seed, tmp_path):
    # each seed shifts the data window, and with it which states repeat and
    # which rows tie, and seeds the library draws; fork-network's E scan is
    # the only workload path that weights k >= 8 neighbours
    workload = workloads.WORKLOADS[name]
    payload = workload.run(workload.setup(int(seed), tmp_path))
    assert workloads.digest(payload) == DIGESTS[name][seed]


# at seed 0: rows whose trusted entries hold fewer than k of the reader's
# columns, which the table cannot settle and which fall back to the points,
# may not rise, and entries the tables trust may not fall
TRUST_FLOOR = {
    "lag-sweep": {"fallback_rows": 0, "trusted": 15_992},
    "tied-large": {"fallback_rows": 124_669, "trusted": 179_648},
    "fork-network": {"fallback_rows": 303_798, "trusted": 415_548},
}


@pytest.mark.parametrize("name", sorted(TRUST_FLOOR))
def test_tables_trust_no_less_than_recorded(name, tmp_path):
    # a table that trusts less sends more rows to the points; no digest
    # changes, so only these counts can see it. The rows are counted from
    # the table, not from nearest_rows: a draw too small for the walk sends
    # every row there, the ones the table could settle too
    from crossmap import forecast

    counts = {"fallback_rows": 0, "trusted": 0}
    build, nearest = forecast._NeighborTable.build.__func__, forecast._NeighborTable.nearest

    def counting_build(cls, lib_times, *args, **kwargs):
        table = build(cls, lib_times, *args, **kwargs)
        counts["trusted"] += int((table.near < lib_times.size).sum())
        return table

    def counting_nearest(table, rows, draws, k):
        # each draw of the group counts its own rows: a mask of the union
        # of the draws' columns would count almost none. Column n, which
        # marks an untrusted entry, is no member
        assert draws.ndim == 2
        near = table.near[rows]
        for columns in draws:
            member = np.zeros(table.lib_times.size + 1, dtype=bool)
            member[columns] = True
            counts["fallback_rows"] += int((member[near].sum(axis=1) < k).sum())
        return nearest(table, rows, draws, k)

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, tmp_path)
    with mock.patch.object(forecast._NeighborTable, "build",
                           classmethod(counting_build)), \
            mock.patch.object(forecast._NeighborTable, "nearest", counting_nearest):
        payload = workload.run(inputs)
    assert workloads.digest(payload) == DIGESTS[name]["0"]
    assert counts["fallback_rows"] <= TRUST_FLOOR[name]["fallback_rows"]
    assert counts["trusted"] >= TRUST_FLOOR[name]["trusted"]


# at seed 0: the table rows that lag-sweep's two 17-lag sweeps hand to
# _NeighborTable.nearest, summed over the lags; every other row is
# lag-stable, picked and weighted once per sweep (picking every row at every
# lag handed it 67,838)
SWEEP_ROWS_BOUND = 1_734


def test_a_lag_sweep_picks_only_its_lag_unstable_rows_per_lag(tmp_path):
    from crossmap import forecast

    handed = []
    nearest = forecast._NeighborTable.nearest

    def counting_nearest(table, rows, draws, k):
        handed.append(np.arange(table.target_times.size)[rows].size)
        return nearest(table, rows, draws, k)

    workload = workloads.WORKLOADS["lag-sweep"]
    inputs = workload.setup(0, tmp_path)
    with mock.patch.object(forecast._NeighborTable, "nearest", counting_nearest):
        payload = workload.run(inputs)
    assert workloads.digest(payload) == DIGESTS["lag-sweep"]["0"]
    assert 0 < sum(handed) <= SWEEP_ROWS_BOUND
