"""Simplex-projection forecasting and embedding-dimension selection.

The forecast for a query state is the weighted average of the futures of
its E+1 nearest library neighbors, with exponentially distance-decaying
weights

    w_i = exp(-d_i / d_1) / sum_j exp(-d_j / d_1)

normalized to sum 1. When the nearest distance d_1 is zero the limit of
the formula applies: equal weights over all zero-distance neighbors and
zero for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from .core import DataError, SkillStats, TimeSeries, skill_stats
from .embedding import EmbeddingParams, ShadowManifold, embed, knn, nearest_rows

__all__ = [
    "SimplexWeights",
    "EDimRow",
    "EDimScan",
    "simplex_weights",
    "simplex_forecast",
    "loo_skill",
    "train_test_skill",
    "select_embedding_dimension",
]

_CHUNK_ROWS = 512


@dataclass(frozen=True)
class SimplexWeights:
    """Normalized neighbor weights plus the neighbor source times."""

    weights: np.ndarray
    neighbor_times: np.ndarray


@dataclass(frozen=True)
class EDimRow:
    e_dim: int
    stats: SkillStats | None
    note: str | None = None


@dataclass(frozen=True)
class EDimScan:
    """Leave-one-out skill per scanned embedding dimension, with warnings."""

    rows: tuple[EDimRow, ...]
    best_e: int
    warnings: tuple[str, ...] = ()


def weight_rows(dist: np.ndarray) -> np.ndarray:
    """Simplex weights for each row of sorted non-decreasing distances."""
    if dist.ndim != 2 or dist.shape[1] < 1:
        raise DataError("distance rows must be a non-empty 2-D array")
    if np.any(dist < 0):
        raise DataError("distances must be non-negative")
    d1 = dist[:, :1]
    zero_rows = d1[:, 0] == 0.0
    with np.errstate(over="ignore"):
        w = np.exp(-dist / np.where(d1 > 0, d1, 1.0))
    if np.any(zero_rows):
        w[zero_rows] = dist[zero_rows] == 0.0
    return w / w.sum(axis=1, keepdims=True)


def simplex_weights(distances: Sequence[float],
                    neighbor_times: Sequence[int] | None = None) -> SimplexWeights:
    """Weights for one sorted neighbor-distance list (typically E+1 long)."""
    d = np.asarray(distances, dtype=float).reshape(1, -1)
    if d.size == 0:
        raise DataError("no distances given")
    if np.any(np.diff(d[0]) < 0):
        raise DataError("distances must be sorted non-decreasing")
    w = weight_rows(d)[0]
    times = (np.asarray(neighbor_times, dtype=int)
             if neighbor_times is not None else np.empty(0, dtype=int))
    if times.size and times.size != w.size:
        raise DataError(f"{times.size} neighbor times for {w.size} weights")
    return SimplexWeights(weights=w, neighbor_times=times)


def _pairwise_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances, computed exactly like :func:`embedding.knn`."""
    out = np.empty((queries.shape[0], points.shape[0]))
    for lo in range(0, queries.shape[0], _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, queries.shape[0])
        diff = queries[lo:hi, None, :] - points[None, :, :]
        out[lo:hi] = np.sqrt(np.einsum("mne,mne->mn", diff, diff))
    return out


def estimates_from_distances(dist: np.ndarray,
                             lib_times: np.ndarray,
                             series: Sequence[TimeSeries],
                             shift: int,
                             k: int) -> list[np.ndarray]:
    """Cross estimates of each of ``series`` from target-to-library distances.

    ``dist`` holds one row per target and one column per library point,
    in ascending-time order matching ``lib_times``; +inf marks an entry
    the target may not use as a neighbor (its own time, for one). Each
    row's estimate is the simplex average of a series at its k nearest
    ``lib_times + shift``, every one of which must be a time of that
    series. The neighbors and weights are selected once and serve every
    series. ``dist`` is not modified.
    """
    idx, nd = nearest_rows(dist, k)
    w = weight_rows(nd)
    neighbor_times = lib_times[idx] + shift
    return [np.einsum("mk,mk->m", w, s.values[neighbor_times - s.origin_index])
            for s in series]


def _observed_under(times: np.ndarray, values: TimeSeries, shift: int) -> np.ndarray:
    """The times whose value at time + ``shift`` is a time of ``values``."""
    return times[(times + shift >= values.origin_index)
                 & (times + shift <= values.end_index)]


def _check_sizes(usable: np.ndarray, targets: np.ndarray, shift: int, k: int) -> None:
    if usable.size < k + 1:
        raise DataError(
            f"library too small: {usable.size} usable points after shifting "
            f"by {shift}, need at least {k + 1}")
    if targets.size < 2:
        raise DataError(f"no valid targets after shifting by {shift}")


@dataclass(frozen=True)
class _CrossMap:
    """Target-to-library distances of one manifold, ready to score.

    Built at shift 0 by :func:`cross_estimates`; ``dist`` already holds
    +inf where a target meets its own time in the library. Score it under
    a shift through :meth:`shifted`. ``values`` fixes which times are
    observed under the shift; any series sharing its time range can be
    scored on the same neighbors.
    """

    dist: np.ndarray
    lib_times: np.ndarray
    target_times: np.ndarray
    values: TimeSeries
    shift: int
    k: int

    def skills(self, series: Sequence[TimeSeries],
               columns: np.ndarray | None = None) -> list[SkillStats]:
        """Skill of each series with the whole library, or with the library
        columns given (ascending positions into ``lib_times``); the
        neighbors are selected once for all of them."""
        if columns is None:
            dist, lib = self.dist, self.lib_times
        else:
            dist, lib = self.dist[:, columns], self.lib_times[columns]
        estimates = estimates_from_distances(dist, lib, series, self.shift, self.k)
        return [skill_stats(s.values[self.target_times + self.shift - s.origin_index],
                            est)
                for s, est in zip(series, estimates)]

    def skill(self, columns: np.ndarray | None = None) -> SkillStats:
        """Skill of ``values`` (see :meth:`skills`)."""
        return self.skills((self.values,), columns)[0]

    def shifted(self, shift: int) -> "_CrossMap":
        """This map under ``shift``, on a view of the same distances.

        Only for the map :func:`cross_estimates` returned: a view's times
        are already filtered, so shifting it again drops times. Under any
        shift the observed times form one interval, so the usable library
        and the usable targets are each one contiguous run of their sorted
        times, and ``dist[ta:tb, la:lb]`` holds exactly their distances,
        own times at +inf included.
        """
        usable = _observed_under(self.lib_times, self.values, shift)
        targets = _observed_under(self.target_times, self.values, shift)
        _check_sizes(usable, targets, shift, self.k)
        la = int(np.searchsorted(self.lib_times, usable[0]))
        ta = int(np.searchsorted(self.target_times, targets[0]))
        return replace(self, dist=self.dist[ta:ta + targets.size, la:la + usable.size],
                       lib_times=usable, target_times=targets, shift=shift)


def cross_estimates(points: np.ndarray,
                    times: np.ndarray,
                    values: TimeSeries,
                    k: int,
                    lib_times: np.ndarray | None = None,
                    target_times: np.ndarray | None = None) -> _CrossMap:
    """Cross map from state points onto ``values``, built at shift 0.

    ``times`` are the consecutive times of ``points``; library and target
    times must be subsets of them. Under a shift (see
    :meth:`_CrossMap.shifted`), every target time t with a known
    observation at t + shift is estimated by its k nearest library states,
    its own time excluded, voting for the value at their own time + shift;
    library times without a value at time + shift are dropped.
    """
    lib = np.sort(np.asarray(lib_times, dtype=int)) if lib_times is not None else times
    if not np.all(np.isin(lib, times)):
        raise DataError("library times must be admissible embedding times")
    tgt = np.sort(np.asarray(target_times, dtype=int)) \
        if target_times is not None else times
    dist = _pairwise_distances(points[tgt - times[0]], points[lib - times[0]])
    own = np.flatnonzero(np.isin(tgt, lib))
    dist[own, np.searchsorted(lib, tgt[own])] = np.inf
    return _CrossMap(dist=dist, lib_times=lib, target_times=tgt,
                     values=values, shift=0, k=k)


def simplex_forecast(library: ShadowManifold,
                     target_point: Sequence[float],
                     future: TimeSeries,
                     tp: int = 1,
                     target_time: int | None = None) -> float:
    """Forecast the value at (neighbor time + tp) for one query state.

    Library points whose time + tp falls outside ``future`` are skipped
    before the E+1 neighbors are selected; ``target_time``, when given,
    is excluded from the candidates (leave-one-out).
    """
    k = library.e_dim + 1
    unusable = [int(t) for t in library.times
                if not future.has_time(int(t) + tp)]
    if target_time is not None:
        unusable.append(int(target_time))
    try:
        neigh = knn(library, np.asarray(target_point, dtype=float), k,
                    excluded_times=unusable)
    except DataError as err:
        raise DataError(f"fewer than E+1={k} usable neighbors: {err}") from None
    sw = simplex_weights(neigh.distances,
                         neighbor_times=library.times[neigh.indices])
    futures = np.array([future.value_at(int(t) + tp) for t in sw.neighbor_times])
    return float(np.dot(sw.weights, futures))


def loo_skill(series: TimeSeries, params: EmbeddingParams) -> SkillStats:
    """Leave-one-out simplex-projection skill of a series against itself.

    Each state point is predicted tp steps ahead using every other state
    point as the library (its own time excluded), and the (observed,
    predicted) pairs are aggregated into one :class:`SkillStats`.
    """
    manifold = embed(series, params)
    return cross_estimates(manifold.points, manifold.times, series,
                           params.e_dim + 1).shifted(params.tp).skill()


def train_test_skill(series: TimeSeries, params: EmbeddingParams,
                     train_fraction: float = 0.75) -> SkillStats:
    """Split-sample alternative to LOO: early states form the library,
    the remaining states are the prediction targets."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0,1), got {train_fraction}")
    manifold = embed(series, params)
    n_train = ceil(train_fraction * manifold.n_points)
    if n_train >= manifold.n_points:
        raise DataError("split leaves no prediction targets")
    return cross_estimates(manifold.points, manifold.times, series,
                           params.e_dim + 1,
                           lib_times=manifold.times[:n_train],
                           target_times=manifold.times[n_train:]
                           ).shifted(params.tp).skill()


def select_embedding_dimension(series: TimeSeries,
                               e_range: Iterable[int] = range(1, 11),
                               tau: int = 1,
                               tp: int = 1,
                               split_fraction: float | None = None) -> EDimScan:
    """Scan embedding dimensions and pick the one with the highest rho.

    Skill is leave-one-out by default; pass ``split_fraction`` to score
    with a train/test split instead. Ties go to the smallest E.
    Dimensions the series is too short for are kept in the scan with a
    note instead of stats; a zero-variance row (rho reported as 0) adds a
    warning.
    """
    e_values = sorted(set(int(e) for e in e_range))
    if not e_values:
        raise DataError("empty embedding-dimension range")
    if split_fraction is not None and not 0.0 < split_fraction < 1.0:
        raise DataError(f"split_fraction must be in (0,1), got {split_fraction}")
    rows = []
    for e in e_values:
        params = EmbeddingParams(e_dim=e, tau=tau, tp=tp)
        try:
            if split_fraction is None:
                stats = loo_skill(series, params)
            else:
                stats = train_test_skill(series, params, split_fraction)
            rows.append(EDimRow(e_dim=e, stats=stats))
        except DataError as err:
            rows.append(EDimRow(e_dim=e, stats=None, note=str(err)))
    scored = [r for r in rows if r.stats is not None]
    if not scored:
        raise DataError(
            f"series {series.name!r} too short for every scanned dimension")
    best = max(scored, key=lambda r: (r.stats.rho, -r.e_dim))
    warnings = ()
    if any(r.stats.degenerate for r in scored):
        warnings = (f"column {series.name!r} has zero variance in at least one "
                    f"scan row; rho reported as 0 there",)
    return EDimScan(rows=tuple(rows), best_e=best.e_dim, warnings=warnings)
