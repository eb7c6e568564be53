"""The benchmark's workloads and the checks that decide whether a run counts.

Each workload turns a seed into inputs (set-up, untimed by ``wall_s``),
makes one call sequence into crossmap's public API (timed), and builds a
canonical JSON payload with the ``crossmap.cli`` dict helpers. A result
counts only when its verdicts hold and its payload digest matches the
reference for the seed. crossmap is imported lazily, inside the functions,
so that the worker can time the import as set-up and the tracer can swap
module attributes that these functions look up at call time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# The seed shifts the data window by 100 steps of burn-in per seed. The
# shift wraps after WINDOWS seeds so that set-up cost stays bounded for any
# seed; the verdicts were checked on every window.
WINDOW_STEP = 100
WINDOWS = 24
FIG_BURN_IN = 849  # the burn-in of the paper's figure 3 window
E_RANGE = range(1, 11)


def window_shift(seed: int) -> int:
    return WINDOW_STEP * (seed % WINDOWS)


def digest(payload: dict) -> str:
    """sha256 of the canonical JSON form of a payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], Any]
    run: Callable[[Any], dict]
    verdicts: Callable[[dict], list[str]]
    cross_maps: Callable[[dict], int]


# --- fork-network -----------------------------------------------------------

@dataclass(frozen=True)
class _Seeded:
    series: tuple
    seed: int


def _fork_setup(seed: int, workdir: Path) -> _Seeded:
    from crossmap.systems import gen_moran_fork
    return _Seeded(gen_moran_fork(1000, burn_in=window_shift(seed)), seed)


def _fork_run(inputs: _Seeded) -> dict:
    import crossmap
    import crossmap.cli
    z, a, b = inputs.series
    e_dim = crossmap.shared_embedding_dimension(z, a, b, e_range=E_RANGE)
    config = crossmap.CcmConfig(e_dim=e_dim, samples_per_size=30,
                                seed=inputs.seed)
    net = crossmap.causal_summary([z, a, b], config)
    return {"e_dim": e_dim, "samples_per_size": config.samples_per_size,
            "lengths": {s.name: len(s) for s in inputs.series},
            "network": crossmap.cli.network_dict(net)}


def _fork_verdicts(payload: dict) -> list[str]:
    convergent = sorted(f"{e['cause']}=>{e['effect']}"
                        for e in payload["network"]["edges"] if e["convergent"])
    if convergent != ["Z=>A", "Z=>B"]:
        return [f"convergent edges {convergent}, expected ['Z=>A', 'Z=>B']"]
    return []


def _fork_cross_maps(payload: dict) -> int:
    # causal_summary returns edges without curve rows, so the per-curve
    # draw count is rebuilt from the library-size grid each curve used
    import crossmap
    e_dim = payload["e_dim"]
    draws = 0
    for edge in payload["network"]["edges"]:
        n_usable = payload["lengths"][edge["effect"]] - (e_dim - 1)
        sizes = crossmap.default_library_sizes(e_dim + 2, n_usable)
        draws += (len(sizes) - 1) * payload["samples_per_size"] + 1
    # every E of the scan is admissible at N=1000, so each scores one row
    return draws + len(E_RANGE) * len(payload["lengths"])


# --- lag-sweep --------------------------------------------------------------

LAGS = range(-8, 9)


def _lag_setup(seed: int, workdir: Path) -> _Seeded:
    from crossmap.systems import gen_coupled_logistic
    return _Seeded(gen_coupled_logistic(
        2000, burn_in=FIG_BURN_IN + window_shift(seed)), seed)


def _lag_run(inputs: _Seeded) -> dict:
    import crossmap
    import crossmap.cli
    x, y = inputs.series
    config = crossmap.CcmConfig(e_dim=2, seed=inputs.seed)
    forward = crossmap.eccm_profile(x, y, config, LAGS)
    backward = crossmap.eccm_profile(y, x, config, LAGS)
    return {"forward": crossmap.cli.profile_dict(forward),
            "backward": crossmap.cli.profile_dict(backward)}


def _lag_verdicts(payload: dict) -> list[str]:
    return [f"{side} best_lag {payload[side]['best_lag']}, expected -1"
            for side in ("forward", "backward")
            if payload[side]["best_lag"] != -1]


def _lag_cross_maps(payload: dict) -> int:
    return sum(1 for side in ("forward", "backward")
               for row in payload[side]["rows"] if row["rho"] is not None)


# --- tied-large -------------------------------------------------------------

@dataclass(frozen=True)
class _CsvInput:
    path: Path
    seed: int


def _tied_setup(seed: int, workdir: Path) -> _CsvInput:
    import numpy as np
    import crossmap
    from crossmap.systems import gen_coupled_logistic
    x, y = gen_coupled_logistic(3000, burn_in=FIG_BURN_IN + window_shift(seed))
    # two decimals leave about 100 distinct values per series, so many
    # rows tie at the k-th neighbour distance
    path = workdir / "tied-large.csv"
    crossmap.write_series_csv(str(path), [
        crossmap.TimeSeries(s.name, np.round(s.values, 2)) for s in (x, y)])
    return _CsvInput(path, seed)


def _tied_run(inputs: _CsvInput) -> dict:
    import crossmap
    import crossmap.cli
    x, y = crossmap.read_series_csv(str(inputs.path))
    config = crossmap.CcmConfig(e_dim=2, samples_per_size=10, seed=inputs.seed)
    return {"curve": crossmap.cli.curve_dict(crossmap.ccm_curve(x, y, config))}


def _tied_verdicts(payload: dict) -> list[str]:
    if not payload["curve"]["convergent"]:
        return [f"{payload['curve']['direction']} is not convergent"]
    return []


def _tied_cross_maps(payload: dict) -> int:
    return sum(row["samples_used"] for row in payload["curve"]["rows"])


WORKLOADS = {w.name: w for w in (
    Workload("fork-network",
             "three-series fork, one series forcing two: six CCM curves over three "
             "effect manifolds plus an E scan; the only workload where reuse "
             "across causes can show",
             _fork_setup, _fork_run, _fork_verdicts, _fork_cross_maps),
    Workload("lag-sweep",
             "17-lag ECCM sweep both ways at the full library; distance "
             "building dominates and per-draw neighbour selection is bypassed",
             _lag_setup, _lag_run, _lag_verdicts, _lag_cross_maps),
    Workload("tied-large",
             "N=3000 pair quantized to 2 decimals read from CSV: tie-heavy "
             "neighbour selection and an N x N distance matrix set time and "
             "peak memory",
             _tied_setup, _tied_run, _tied_verdicts, _tied_cross_maps),
)}


class Tally:
    """Counts attempted and failed results of one workload and seed.

    The reference digest is the recorded one when the seed has one, and
    otherwise the digest of the first result, so that every repeat must
    reproduce the first bit for bit.
    """

    def __init__(self, workload: Workload, recorded_digest: str | None = None):
        self.workload = workload
        self.reference = recorded_digest
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.cross_maps = 0  # skill evaluations in the last good result

    def record(self, payload: dict | None, error: str | None = None) -> bool:
        """Check one result (None when the run raised); True if it counts."""
        self.attempted += 1
        if payload is None:
            problems = [f"run raised {error}"]
        else:
            found = digest(payload)
            self.digests.add(found)
            problems = self.workload.verdicts(payload)
            if self.reference is None:
                self.reference = found
            elif found != self.reference:
                problems.append(f"payload digest {found[:12]} differs from "
                                f"reference {self.reference[:12]}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.cross_maps = self.workload.cross_maps(payload)
        return not problems
