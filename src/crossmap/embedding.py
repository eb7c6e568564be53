"""Delay-coordinate embedding and deterministic nearest-neighbor search.

A shadow manifold is the set of E-dimensional state points

    (x_t, x_{t-tau}, ..., x_{t-(E-1)tau})

built from one series. Neighbor queries are brute-force Euclidean scans
with ties broken by ascending time index, which makes every downstream
number reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from .core import DataError, TimeSeries, integer_values, require_integers

__all__ = ["EmbeddingParams", "ShadowManifold", "NeighborSet", "embed", "knn"]


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension E, delay tau, and prediction horizon tp.

    All three are integers. ``tp`` may be negative (reverse prediction for
    lag sweeps); E and tau must be positive.
    """

    e_dim: int
    tau: int = 1
    tp: int = 1

    def __post_init__(self) -> None:
        require_integers(self, "e_dim", "tau", "tp")
        if self.e_dim < 1:
            raise DataError(f"embedding dimension must be >= 1, got {self.e_dim}")
        if self.tau < 1:
            raise DataError(f"delay tau must be >= 1, got {self.tau}")

    @property
    def span(self) -> int:
        """Steps of history consumed by one state point: (E-1)*tau."""
        return (self.e_dim - 1) * self.tau


@dataclass(frozen=True)
class ShadowManifold:
    """Delay-embedded state points of a single series.

    Row ``k`` of ``points`` is the state at time ``times[k]``, ordered
    coordinates (x_t, x_{t-tau}, ..., x_{t-(E-1)tau}). ``times`` is
    strictly increasing.
    """

    points: np.ndarray
    times: np.ndarray
    params: EmbeddingParams
    source_name: str

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def e_dim(self) -> int:
        return self.params.e_dim


@dataclass(frozen=True)
class NeighborSet:
    """Neighbor rows ordered by ascending distance (ties: ascending time)."""

    indices: np.ndarray
    distances: np.ndarray


def embed(series: TimeSeries, params: EmbeddingParams) -> ShadowManifold:
    """Build the shadow manifold of a series.

    One state point per admissible time t from origin + (E-1)*tau through
    the end of the series; the result has len(series) - (E-1)*tau points.
    Raises :class:`DataError` if the series is shorter than the minimum
    (E-1)*tau + 1.
    """
    span = params.span
    n = len(series) - span
    if n < 1:
        raise DataError(
            f"series {series.name!r} too short to embed: length {len(series)} "
            f"< minimum {span + 1} for E={params.e_dim}, tau={params.tau}")
    base = np.arange(span, span + n)
    offsets = params.tau * np.arange(params.e_dim)
    points = series.values[base[:, None] - offsets[None, :]]
    times = base + series.origin_index
    points.flags.writeable = False
    times.flags.writeable = False
    return ShadowManifold(points=points, times=times, params=params,
                          source_name=series.name)


def knn(manifold: ShadowManifold,
        query: np.ndarray,
        k: int,
        excluded_times: Collection[int] = ()) -> NeighborSet:
    """k nearest manifold points to a query state, by Euclidean distance.

    Reference brute-force implementation: a full linear scan with ties
    broken by ascending time index. Times in ``excluded_times``, and points
    whose distance overflows to +inf, are never returned.
    """
    q = np.asarray(query, dtype=float).reshape(-1)
    if q.size != manifold.e_dim:
        raise DataError(
            f"query has dimension {q.size}, manifold has E={manifold.e_dim}")
    if not np.all(np.isfinite(q)):
        raise DataError("query must be finite")
    k, = integer_values("k", [k])
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")

    with np.errstate(over="ignore"):
        diff = manifold.points - q[None, :]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))

    admissible = np.ones(manifold.n_points, dtype=bool)
    if len(excluded_times) > 0:
        excluded = np.asarray(sorted(integer_values("excluded_times",
                                                    excluded_times)), dtype=int)
        admissible &= ~np.isin(manifold.times, excluded)

    n_ok = int(admissible.sum())
    if n_ok < k:
        raise DataError(
            f"need {k} neighbors but only {n_ok} admissible points remain "
            f"after exclusions")

    if (rows := np.flatnonzero(admissible & np.isfinite(dist))).size < k:
        raise DataError(f"need {k} neighbors but only {rows.size} admissible points "
                        f"lie at a finite distance from the query")
    # stable sort on distance keeps the original (time-ascending) order on ties
    order = rows[np.argsort(dist[rows], kind="stable")][:k]
    return NeighborSet(indices=order, distances=dist[order])


def nearest_rows(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise k smallest entries of a distance matrix.

    Returns (indices, distances), each of shape (n_rows, k), ordered by
    ascending distance with ties broken by ascending column index.
    Columns must already be in ascending-time order so that the column
    tie-break equals the time tie-break. Inadmissible entries should be
    +inf; a row with fewer than k finite entries raises. ``dist`` is not
    modified.

    Each of k rounds takes every row's smallest remaining entry and masks
    it with +inf on a working copy, read and written at flat positions of
    the raveled copy. ``argmin`` returns the first column of a tie group,
    so ties go to the earliest time by construction. This is the
    vectorized fast path; it must agree with :func:`knn` exactly (a test
    enforces it).
    """
    m, n = dist.shape
    if k > n:
        raise DataError(f"need {k} neighbors but matrix has only {n} columns")
    work = dist.copy()
    flat = work.reshape(-1)
    row_start = np.arange(m) * n
    idx = np.empty((m, k), dtype=np.intp)
    out = np.empty((m, k), dtype=dist.dtype)
    for j in range(k):
        col = np.argmin(work, axis=1)
        idx[:, j] = col
        at = col + row_start
        # read before masking: a row short of finite entries then shows +inf
        out[:, j] = np.take(flat, at)
        flat[at] = np.inf

    if not np.all(np.isfinite(out[:, k - 1])):
        bad = int(np.flatnonzero(~np.isfinite(out[:, k - 1]))[0])
        n_fin = int(np.isfinite(dist[bad]).sum())
        raise DataError(
            f"need {k} neighbors but only {n_fin} usable candidates for "
            f"query row {bad}")
    return idx, out
