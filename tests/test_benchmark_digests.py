"""The benchmark's workloads, run once at seed 0, must reproduce their
recorded payload digests, so that a change that moves a single bit of a
benchmarked result fails here and not only in the benchmark.

The workloads and the digests are read from ``perfbench/``; nothing there
is written.
"""

import json
import sys
import types
from pathlib import Path

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
