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
from itertools import islice
from math import ceil, sqrt
from typing import Iterable, Sequence

import numpy as np

from .core import (CrossmapError, DataError, SkillStats, TimeSeries, _skill_rows,
                   integer_values, skill_stats)
from .embedding import EmbeddingParams, ShadowManifold, embed, nearest_rows

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

# library columns per target in a build whose readers draw libraries; a
# draw of L of n columns with L * W < k * n skips the table altogether, and
# larger draws walk it and take the rows it cannot settle from the points;
# the walk packs a row's first 64 entries into one 64-bit word, so at 64 it
# reads the whole row
_TABLE_WIDTH = 64
# a build read only through whole-library views keeps k + this many
# columns: one slot for a library column that the view's shift drops
_VIEW_SLACK = 1
# the most numbers one block holds at once (a dense block's differences, a
# screen block's approximations and partition indices over its window,
# which is at most the whole library, an exact block's arrays over its
# rows' candidates, or a group of draws' neighbors): 1 MiB of float64,
# which stays in a 2 MiB L2 cache; a build computes every window's
# approximations into one buffer of its own
_BLOCK_CELLS = 2 ** 17
# from E=3 up to this E the differences are filled one coordinate at a
# time, in subtractions along the columns, instead of by a broadcast whose
# inner loop is only E long (E <= 2 adds its squares in place instead);
# the fill stores with stride E, which makes it no faster than the
# broadcast at E=5 and slower from E=6 on (1.7x at E=10)
_FILL_MAX_E = 4
# a screen's candidates are each row's first W + this many approximations,
# so that the row's W-th distance usually lies below its certified bound;
# one of them is usually the row's own column, which the exact pass drops
_SCREEN_SLACK = 9


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
    """Simplex weights for each row of a (rows, k) array of non-negative,
    non-decreasing distances, k >= 1; the input is not checked.

    Every pass runs along the rows, on k contiguous planes (one copy of
    ``dist.T``), and gives the bits of the row-major formula
    ``exp(-d / d1)`` normalised by ``w.sum(axis=1)``:

    - dividing by -d1 rounds to the bits of -(d / d1), since rounding is
      symmetric in sign;
    - in a row with d1 = 0 the divisor is -1, so the quotient is zero
      exactly where the distance is zero (``exp`` would round a tiny one
      to 1 too), and those entries weigh 1, the rest 0;
    - for k < 8 numpy sums a row one entry after another,
      ((w0 + w1) + w2) + ..., which adding the planes in order repeats;
      from k = 8 on it sums in blocks of 8 accumulators, so there the
      planes go back to rows and ``sum`` adds them.

    The result is C-contiguous (rows, k), as
    :func:`estimates_from_distances`' ``einsum`` needs: over a contiguous
    k axis it sums in another order than over a strided one, so a
    transposed view would move the estimates' bits.
    """
    planes = dist.T.copy()
    zero_rows = planes[0] == 0.0
    any_zero = zero_rows.any()
    with np.errstate(over="ignore"):
        np.divide(planes, np.where(zero_rows, -1.0, -planes[0]), out=planes)
    if any_zero:
        ties = planes == 0.0
    np.exp(planes, out=planes)
    if any_zero:
        np.copyto(planes, ties, where=zero_rows)
    if planes.shape[0] < 8:
        total = planes[0].copy()
        for plane in planes[1:]:
            total += plane
    else:
        total = np.ascontiguousarray(planes.T).sum(axis=1)
    w = np.empty(dist.shape)
    np.divide(planes, total, out=w.T)
    return w


def simplex_weights(distances: Sequence[float],
                    neighbor_times: Sequence[int] | None = None) -> SimplexWeights:
    """Weights for one sorted neighbor-distance list (typically E+1 long).

    The checked, one-list form of :func:`weight_rows`, which the
    estimators apply to whole tables; it is the reference the tests
    compare their weights against."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1:
        raise DataError(f"distances must be one list, got an array of shape {d.shape}")
    if d.size == 0:
        raise DataError("no distances given")
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise DataError("distances must be finite and non-negative")
    if np.any(np.diff(d) < 0):
        raise DataError("distances must be sorted non-decreasing")
    w = weight_rows(d[None])[0]
    times = np.asarray(integer_values("neighbor_times", neighbor_times)
                       if neighbor_times is not None else [], dtype=int)
    if times.size and times.size != w.size:
        raise DataError(f"{times.size} neighbor times for {w.size} weights")
    return SimplexWeights(weights=w, neighbor_times=times)


def _pairwise_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances, computed exactly like :func:`embedding.knn`.

    ``points`` is either one (n, E) block that every query meets, or
    (..., rows, m, E) columns per query, where each axis but the last two
    may be 1 to broadcast, for a (..., rows, m) result: (rows, m, E)
    columns gathered per query, or a (D, 1, L, E) stack of D draws' points
    that every query meets, giving (D, rows, L). Each entry depends only
    on its query and point, not on the shape of the block, so a block of
    rows, of gathered columns or of draws equals that part of the whole.

    For E <= 2 each square is added into the output in place, one
    addition per entry at most; IEEE addition is commutative, so there is
    no order of summation in which ``einsum`` could differ (a test checks
    that it does not contract into a fused multiply-add). From E = 3 on
    the differences are filled one coordinate at a time up to
    ``_FILL_MAX_E`` and by a broadcast above it, and ``einsum`` sums them
    over one (entries, m, E) shape whatever the leading axes; both give
    the same array. A difference that overflows is +inf, and so is its
    distance.
    """
    cols = points if points.ndim > 2 else points[None]
    with np.errstate(over="ignore"):
        if cols.shape[-1] <= 2:
            out = np.subtract(queries[:, 0, None], cols[..., 0])
            np.multiply(out, out, out=out)
            if cols.shape[-1] == 2:
                sq = np.subtract(queries[:, 1, None], cols[..., 1])
                out += np.multiply(sq, sq, out=sq)
            return np.sqrt(out, out=out)
        if cols.shape[-1] <= _FILL_MAX_E:
            shape = np.broadcast_shapes(cols.shape[:-1], (queries.shape[0], 1))
            diff = np.empty((*shape, cols.shape[-1]))
            for e in range(cols.shape[-1]):
                np.subtract(queries[:, e, None], cols[..., e], out=diff[..., e])
        else:
            diff = queries[:, None, :] - cols
        flat = diff.reshape(-1, *diff.shape[-2:])
        out = np.einsum("mne,mne->mn", flat, flat)
        return np.sqrt(out, out=out).reshape(diff.shape[:-1])


def _row_blocks(n_rows: int, n_cols: int, e_dim: int) -> list[slice]:
    """Row blocks whose difference temporary, rows x ``n_cols`` x
    ``e_dim`` numbers, holds at most ``_BLOCK_CELLS`` of them."""
    step = max(1, _BLOCK_CELLS // max(1, n_cols * e_dim))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _exact_blocks(n_rows: int, m: int, e_dim: int) -> list[slice]:
    """Row blocks of a build's exact pass over m candidates per row. A row
    holds its gathered points and their differences, m x E numbers each,
    and its distances, own-time mask and sort order, m each, so a block
    is sized at 4 m E numbers per row: at m E alone its arrays outgrow
    the cache."""
    return _row_blocks(n_rows, m, 4 * e_dim)


def _screen_inputs(target_points: np.ndarray, lib_points: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``tgt`` and ``lib`` whose product is every approximate
    squared distance.

    With q and p centred on the library mean, row i of ``tgt`` = [q_i, 1,
    |q_i|^2] times column j of ``lib`` = [-2 p_j; |p_j|^2; 1] is |q_i|^2 +
    |p_j|^2 - 2 q_i.p_j. Subtracting a common offset such as 1e12 while
    centring is exact (Sterbenz's lemma), so the offset never swamps the
    screen; :func:`_rounding_bound` reads the norms back from the factors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centre = lib_points.mean(axis=0)
        q, p = target_points - centre, lib_points - centre
        q_sq, p_sq = np.einsum("me,me->m", q, q), np.einsum("ne,ne->n", p, p)
        lib = np.vstack([-2 * p.T, p_sq, np.ones(p.shape[0])])
    return np.column_stack([q, np.ones(q.shape[0]), q_sq]), lib


def _rounding_bound(tgt: np.ndarray, lib: np.ndarray) -> np.ndarray:
    """Each row of ``tgt``'s rounding bound on its approximations to the
    columns of ``lib`` (factors from :func:`_screen_inputs`), +inf where
    the screen may overflow.

    Let u = 2^-53 and R_i = |q_i| + max_j |p_j| over the columns given.
    The norms (gamma_E) and the product of E + 2 terms (gamma_(E+2)) keep
    the approximation within (2E + 2) u R_i^2 of the centred squared
    distance; centring moves that by at most 2 u R_i^2 from the true one,
    and the exact kernel's squared sum lies within (E + 2) u R_i^2 of the
    true one. The bound doubles the sum, (3E + 6) u R_i^2, for
    higher-order terms and for the rounding of the bound itself, and adds
    one smallest normal number per operation for underflow. Only the
    columns given enter R_i, so a far outlier loosens the bound only of
    the windows that hold it.
    """
    scale, fp = 2 * (3 * (lib.shape[0] - 2) + 6), np.finfo(float)
    with np.errstate(over="ignore", invalid="ignore"):
        radius_sq = (np.sqrt(tgt[:, -1]) + sqrt(lib[-2].max())) ** 2
        return np.where(radius_sq <= fp.max / 4,
                        scale * (fp.eps / 2 * radius_sq + fp.tiny), np.inf)


def _candidates(tgt: np.ndarray, lib: np.ndarray, cols: np.ndarray, m: int,
                buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The screen of one row block over one window of more than m library
    columns: ``lib`` holds the window's factors and ``cols`` its library
    columns.

    Returns each row's m columns of smallest approximation, in no set
    order and its own column not set aside, and two radii from its (m+1)-th
    approximation a and its rounding bound delta over the window: no other
    column of the window lies nearer than sqrt(max(a - delta, 0)), and
    sqrt(a + delta) is a radius that holds about m + 1 of them. The
    approximations go into ``buf``, the build's buffer, as one contiguous
    (rows, window) array that the next block overwrites: no exact distance
    depends on them.
    """
    approx = buf[:tgt.shape[0] * lib.shape[1]].reshape(tgt.shape[0], -1)
    np.matmul(tgt, lib, out=approx)
    part = np.argpartition(approx, m, axis=1)
    cut = approx[np.arange(approx.shape[0]), part[:, m]]
    slack = _rounding_bound(tgt, lib)
    return (cols[part[:, :m]], np.sqrt(np.maximum(cut - slack, 0.0)),
            np.sqrt(cut + slack))


def _group_states(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of ``points`` grouped by exact state: the first row of each
    distinct state, and each row's state, or None when no two rows share
    one. Rows share a state when their coordinates are equal bit for bit,
    so that each distance of one is the other's. The keys are 1-D and the
    inverse is ravelled, so that every numpy from 1.24 on groups alike."""
    points = np.ascontiguousarray(points)
    keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1])))
    _, first, state = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return (first, state.ravel()) if first.size < state.size else None


def _own_dropped(picks: np.ndarray, row: np.ndarray, own: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Flat positions in ``picks``, rows of w+1 columns in (distance,
    column) order, of each target's first w entries of its state's row
    ``row`` with its own column ``own`` (n for none) skipped. ``row`` is
    (targets,) or (draws, targets), and the positions add an axis of w.
    ``out``, shaped like them, is scratch that "clip" takes straight into.

    The numbers cannot move. A state's row has no column at +inf, and a
    distance depends only on the state and the library point, so its
    distances are each of its targets' own. Dropping one entry of a
    (distance, column) order leaves the rest in that order, and a
    target's own column, +inf in its own row, follows every finite entry
    there, so up to the first at +inf the positions give its own row.
    """
    w = picks.shape[-1] - 1
    at = (w + 1) * row[..., None] + np.arange(w)
    out = np.take(picks, at, out=out, mode="clip")
    *hit, j = np.nonzero(out == own[:, None])
    at[tuple(hit)] += np.arange(w) >= j[:, None]
    return at


def estimates_from_distances(dist: np.ndarray,
                             neighbor_times: np.ndarray,
                             series: Sequence[TimeSeries]) -> list[np.ndarray]:
    """Cross estimates of each of ``series`` from each target's neighbors.

    Row i of ``dist`` holds target i's neighbor distances in non-decreasing
    order, and row i of ``neighbor_times`` the times whose values they
    vote for, each of which must be a time of every series. The weights
    are computed once and serve every series.
    """
    return _weighted_estimates(weight_rows(dist), neighbor_times, series)


def _weighted_estimates(w: np.ndarray, neighbor_times: np.ndarray,
                        series: Sequence[TimeSeries]) -> list[np.ndarray]:
    """Each of ``series``' estimates from the C-contiguous (rows, k)
    weights ``w`` of :func:`weight_rows` and the times they vote for.
    Each row's estimate depends only on its own weights and values."""
    return [np.einsum("mk,mk->m", w, s.values[neighbor_times - s.origin_index])
            for s in series]


@dataclass(frozen=True)
class _NeighborTable:
    """Each target's nearest library columns, without the full matrix.

    Row i of ``near`` holds target i (time ``target_times[i]``)'s first
    W = ``min(width, n)`` of the n library columns (times ``lib_times``)
    in (distance, column) order, and ``near_dist`` their exact distances;
    the column at the target's own time, if any, is +inf. The readers set
    ``width`` (see :func:`cross_estimates`).

    :meth:`build` fills every row by one exact pass over its candidate
    columns: :func:`_pairwise_distances`, the own time at +inf, a stable
    sort, and the first W entries. A screen picks the candidates: one BLAS
    product per row block, into one buffer per build, gives approximate
    squared distances, and the row's first m = W + ``_SCREEN_SLACK``
    approximations are its candidates, so BLAS only screens and every
    number held is exact. A rounding bound (:func:`_rounding_bound`) turns
    the row's (m+1)-th approximation into a distance that no other
    screened column undercuts. Rows whose screen could overflow, and
    builds with n <= m, take every column instead, with the bound +inf.

    The screen reads only a window of the library. The targets are taken
    in the order of their first coordinate x0, and the library is sorted
    by x0 once, so each row block's window is one slice of it: the columns
    within rho of the block's x0 range, where rho is the largest
    sqrt(a + delta) of the previous block's rows (a their (m+1)-th
    approximation, delta their rounding bound); the first block, and a
    window of at most m columns, take the whole library. Columns outside
    the window are certified by their x0 alone. Let e = fl(x0_i - x0_l),
    with l the window's left neighbour in x0 order. A column p left of the
    window has q0 - p0 >= x0_i - x0_l > 0 exactly, and rounding is
    monotone, so its kernel difference fl(q0 - p0) >= e, its square is at
    least fl(e * e), and adding the other non-negative squares, in any
    order, never makes a rounded sum smaller: its exact distance is at
    least the edge bound fl(sqrt(fl(e * e))), with no margin. The right
    side is the mirror image. The windows keep each row's candidates,
    screen bound and gap to the edge, and the exact pass then runs once
    over every screened row, in row blocks of its own
    (:func:`_exact_blocks`), followed by the edge test. A row whose edge
    bound lies below its screen bound and at or below its W-th distance
    may miss a column beyond the edge, and takes every column. Every
    other row has its edge bound at or above its screen bound, or above
    its W-th distance, so the screen bound alone certifies what it
    trusts, and it trusts at least as much as a screen of the whole
    library would.

    An entry is trusted only if it lies strictly below the bound (a
    column tied with the bound may have an earlier twin outside the
    table); untrusted entries hold column n, which no library has. The
    trusted entries are a prefix of the dense (distance, column) order,
    sometimes a shorter one. Take a trusted entry (d, j) and a column c
    outside the table at distance d_c. If c is a candidate, the stable
    sort put it after the W-th entry in (distance, column) order, so
    after (d, j) too. If c is a screened column that is not a candidate,
    d_c is at least the bound, which is above d. If c lies beyond the
    window's edge, d_c is at least the edge bound, which is at least the
    screen bound or above the W-th distance, and so above d either way.
    So no column outside the table precedes a trusted entry, and no
    second condition on the row's last distance is needed.

    Targets that repeat a state share its row. ``states`` groups the
    targets by exact state (:func:`_group_states`), or is None when no two
    share one; a build whose targets share no x0 skips the grouping. When
    the S states and T targets give S (W+1) < T W, the build runs the
    rows above once per state, W + 1 wide with no column at +inf (column
    n at +inf past a library of W columns), and each target takes its W
    entries by :func:`_own_dropped`, which shows that they are its own
    row's. The state's approximations and rounding bound are its
    targets' own too, and its bound and its edge test on its (W+1)-th
    distance certify its W + 1 entries as above, so what a target trusts
    is a prefix of its dense order. That bound comes from the (m+2)-th
    approximation, one more candidate than a target's row screens, so
    over the same window it is never below the target's bound.
    :meth:`_from_points` reuses the grouping. ``own`` holds each target's
    library column, n where the library lacks its time.
    """

    near: np.ndarray
    near_dist: np.ndarray
    lib_times: np.ndarray
    target_times: np.ndarray
    target_points: np.ndarray
    lib_points: np.ndarray
    states: tuple[np.ndarray, np.ndarray] | None
    own: np.ndarray

    @classmethod
    def build(cls, lib_times: np.ndarray, target_times: np.ndarray,
              target_points: np.ndarray, lib_points: np.ndarray,
              width: int) -> "_NeighborTable":
        n_targets, n = target_points.shape[0], lib_points.shape[0]
        width = min(width, n)
        own = np.searchsorted(lib_times, target_times)
        own[lib_times[np.minimum(own, n - 1)] != target_times] = n
        # the targets in first-coordinate (x0) order, as the screen takes
        # them; targets that share a state share its x0, so without a
        # repeated x0 there is nothing to group
        by_x0 = np.argsort(target_points[:, 0], kind="stable")
        x0 = target_points[by_x0, 0]
        states = _group_states(target_points) if np.any(x0[1:] == x0[:-1]) else None
        if states is not None and states[0].size * (width + 1) < n_targets * width:
            first, state = states
            # the table is allocated before the state rows' temporaries, so
            # that it does not sit above them in the heap once they are
            # freed (that cost tied-large 1-2 MiB of peak RSS)
            near = np.empty((n_targets, width), dtype=np.intp)
            near_dist = np.empty(near.shape)
            points = target_points[first]
            s_near, s_dist, s_bound = cls._table_rows(
                points, np.argsort(points[:, 0], kind="stable"),
                np.full(first.size, n), lib_points, width + 1)
            at = _own_dropped(s_near, state, own, out=near)
            np.take(s_near, at, out=near, mode="clip")
            np.take(s_dist, at, out=near_dist, mode="clip")
            bound = s_bound[state]
        else:
            near, near_dist, bound = cls._table_rows(target_points, by_x0, own,
                                                     lib_points, width)
        near[near_dist >= bound[:, None]] = n
        return cls(near=near, near_dist=near_dist, lib_times=lib_times,
                   target_times=target_times, target_points=target_points,
                   lib_points=lib_points, states=states, own=own)

    @staticmethod
    def _table_rows(target_points: np.ndarray, x0_order: np.ndarray,
                    own: np.ndarray, lib_points: np.ndarray, width: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each target's first ``width`` library columns in (distance,
        column) order, its library column ``own`` (n for none) at +inf,
        their exact distances, and the target's certified bound, as the
        class describes: (targets, width) columns and distances and
        (targets,) bounds, no entry marked untrusted yet. ``x0_order``
        orders the targets by their first coordinate, stably. Past the
        library's n columns a row holds column n at +inf.
        """
        (n_targets, e_dim), n = target_points.shape, lib_points.shape[0]
        m = width + _SCREEN_SLACK
        near = np.full((n_targets, width), n, dtype=np.intp)
        near_dist = np.full(near.shape, np.inf)
        bound = np.full(n_targets, np.inf)

        def exact(r: np.ndarray, cand: np.ndarray, points: np.ndarray) -> None:
            dist = _pairwise_distances(target_points[r], points)
            dist[cand == own[r, None]] = np.inf
            # candidates ascend, so a stable sort breaks ties by column
            order = np.argsort(dist, axis=1, kind="stable")[:, :width]
            near[r, :order.shape[1]] = np.take_along_axis(cand, order, axis=1)
            near_dist[r, :order.shape[1]] = np.take_along_axis(dist, order, axis=1)

        screened = np.zeros(n_targets, dtype=bool)
        if n > m:
            tgt, lib = _screen_inputs(target_points, lib_points)
            screened = np.isfinite(_rounding_bound(tgt, lib))
        # the screened targets in x0 order
        rows = x0_order[screened[x0_order]]
        if rows.size:
            # the library in x0 order too: a block's window is one slice of
            # the permuted library
            x0_rows = target_points[rows, 0]
            by_x0 = np.argsort(lib_points[:, 0], kind="stable")
            lib = lib[:, by_x0]
            x0 = np.concatenate([[-np.inf], lib_points[by_x0, 0], [np.inf]])
            # screen blocks are sized for a window of the whole library
            screens = _row_blocks(rows.size, n, 2)
            # one buffer for every window's approximations: a fresh one per
            # block can cost a fresh process an mmap and a trim of it per block
            buf = np.empty(rows[screens[0]].size * n)
            cand, gap = np.empty((rows.size, m), dtype=np.intp), np.empty(rows.size)
            radius = np.inf
            # the windows do only what the next window needs; the exact pass
            # and the edge test run once after them, over every screened row
            for block in screens:
                r, t0 = rows[block], x0_rows[block]
                lo, hi = np.searchsorted(x0[1:-1], (t0[0] - radius, t0[-1] + radius))
                if hi - lo <= m:
                    lo, hi = 0, n
                cand[block], bound[r], radii = _candidates(
                    tgt[r], lib[:, lo:hi], by_x0[lo:hi], m, buf)
                # x0 is padded, so the window's neighbours are x0[lo] and
                # x0[hi + 1], and a whole-library window's gap is +inf
                with np.errstate(over="ignore"):
                    gap[block] = np.minimum(t0 - x0[lo], x0[hi + 1] - t0)
                radius = radii.max()
            cand.sort(axis=1)
            for block in _exact_blocks(rows.size, m, e_dim):
                c = cand[block]
                exact(rows[block], c, np.take(lib_points, c, axis=0))
            # no column beyond a window's edge lies nearer than the edge
            # bound; rows whose table the edge cuts into take every column
            with np.errstate(over="ignore"):
                edge = np.sqrt(gap * gap)
            screened[rows[(edge < bound[rows]) & (edge <= near_dist[rows, -1])]] = False
        # rows that take every column: a block holds rows x n x E differences,
        # as a screen block holds rows x n approximations and as many
        # partition indices, at most _BLOCK_CELLS numbers either way
        every = np.flatnonzero(~screened)
        bound[every] = np.inf
        for block in _row_blocks(every.size, n, e_dim):
            r = every[block]
            exact(r, np.broadcast_to(np.arange(n), (r.size, n)), lib_points)
        return near, near_dist, bound

    def nearest(self, rows: slice | np.ndarray, draws: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
        """Library times and distances of each target in ``rows``'s k
        nearest of each draw's columns, ties to the lower column, exactly
        as :func:`nearest_rows` on each draw's dense block: ``rows`` is a
        slice of table rows or an array of them, ``draws`` is a
        (D, L) group of ascending library columns, one row per draw, and
        both results are (D, rows, k).

        In a draw, a row with k trusted entries among its columns takes the
        first k, in k rounds that each take the row's first remaining one;
        the rest are computed from the points (:meth:`_from_points`). The
        rounds run on one membership word per row: a row's first 64
        entries, ``member[near[:, :64]]``, are packed with
        ``np.packbits(..., bitorder="little")`` and read as a ``"<u8"``
        word, table column j at bit j. A round takes each word's lowest
        set bit, ``low = word & -word``, reads its position from the
        exponent of ``low`` converted to float64, exact for a power of
        two, and clears it with ``word ^= low``; the k-th round finds a
        bit exactly when the row has k members among those entries. A
        draw build holds at most ``_TABLE_WIDTH`` = 64 columns; a row of a
        wider table (a whole-library build at k >= 64) short of k members
        there takes the points. A draw of L of the n library columns puts
        about W L / n of them in a row's W table columns, so when
        L W < k n every row of every draw is computed from the points, the
        group at once and without the walk: the rows that need the points
        get the same answer either way, and so do the few that the walk
        would have settled.
        """
        (n_draws, size), n = draws.shape, self.lib_times.size
        near, near_dist = self.near[rows], self.near_dist[rows]
        targets = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
        if size * near.shape[1] < k * n:
            cols, dist = self._from_points(targets, draws, k)
            return self.lib_times[cols], dist
        n_rows, width = near.shape
        head = near[:, :64]
        # each row's membership bits, table column j at bit j of the row's
        # word; the bytes past the head stay 0, and so does every word once
        # the walk has cleared its bits
        packed = np.zeros((n_rows, 8), dtype=np.uint8)
        words = packed.view("<u8").ravel()
        low, as_float = np.empty_like(words), np.empty(words.size)
        # round j's exponent field of each row's lowest set bit: 1023 + its
        # position, or 0 when the word has none left
        first = np.empty((n_rows, k), dtype=np.int64)
        # each row's first entry in the flattened table rows, less the bias
        row_start = np.arange(n_rows)[:, None] * width - 1023
        cols = np.empty((n_draws, n_rows, k), dtype=np.intp)
        dist = np.empty(cols.shape)
        # column n, which marks an untrusted entry, is never a member
        member = np.zeros(n + 1, dtype=bool)
        for d, columns in enumerate(draws):
            member[columns] = True
            packed[:, :-(-head.shape[1] // 8)] = np.packbits(member[head], axis=1,
                                                             bitorder="little")
            member[columns] = False
            for j in range(k):
                np.negative(words, out=low)
                np.bitwise_and(words, low, out=low)
                np.bitwise_xor(words, low, out=words)
                # a power of two converts exactly, so its exponent is its position
                as_float[:] = low
                np.right_shift(as_float.view(np.int64), 52, out=first[:, j])
            # each round takes the row's first remaining member, so the k-th
            # finds one exactly when the row has k of them; the other rows'
            # picks are clipped into the table and replaced from the points
            at = first + row_start
            cols[d] = np.take(near, at, mode="clip")
            dist[d] = np.take(near_dist, at, mode="clip")
            if (short := np.flatnonzero(first[:, -1] == 0)).size:
                short_cols, short_dist = self._from_points(targets[short],
                                                           columns[None], k)
                cols[d, short], dist[d, short] = short_cols[0], short_dist[0]
        return self.lib_times[cols], dist

    def _from_points(self, targets: np.ndarray, draws: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each of the table rows ``targets``' k nearest of each draw's
        columns from the points, with the own time at +inf as in
        :meth:`build`: (D, targets, k) library columns and distances.

        Targets that repeat a state share its work. When the call's S
        distinct states and T targets give S (k+1) < T k, each state's k+1
        nearest of each draw's columns are computed once, with no column at
        +inf, and each target takes its k by :func:`_own_dropped`. A state
        with k+1 finite distances leaves each of its targets k finite ones.
        A state with fewer, or a draw of k columns, sends the call to the
        targets' own rows, which raise the error of the first (draw, row)
        that fails; a table with no repeated state (``states`` None) goes
        there at once.
        """
        n, own = self.lib_times.size, self.own[targets]
        if self.states is not None:
            first, state = self.states
            states, of = np.unique(state[targets], return_inverse=True)
            if states.size * (k + 1) < targets.size * k:
                try:
                    cols, dist = self._nearest_in_draws(
                        first[states], np.full(states.size, n), draws, k + 1)
                except DataError:
                    pass
                else:
                    row = np.arange(draws.shape[0])[:, None] * states.size + of
                    at = _own_dropped(cols, row, own)
                    return np.take(cols, at, mode="clip"), np.take(dist, at, mode="clip")
        return self._nearest_in_draws(targets, own, draws, k)

    def _nearest_in_draws(self, rows: np.ndarray, own: np.ndarray, draws: np.ndarray,
                          k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each of the table rows ``rows``' k nearest of each draw's columns
        from the points, with its library column ``own`` (n for none) at
        +inf: (D, rows, k) library columns and distances. A row's own
        column is found as the build's exact pass finds it, by comparing
        each draw's columns with ``own``.

        A block holds at most ``_BLOCK_CELLS`` differences: whole draws
        when one draw's rows x L x E fit, else row blocks of one draw.
        So the rows come in (draw, row) order, and a row short of finite
        distances raises for the first of them.
        """
        (n_draws, size), e_dim = draws.shape, self.lib_points.shape[1]
        lib = self.lib_points[draws][:, None]
        cols = np.empty((n_draws, rows.size, k), dtype=np.intp)
        dist = np.empty(cols.shape)
        # whole draws, as many as one block holds, crossed with one draw's
        # row blocks: one of those when a draw fits a block, else one draw
        blocks = [(ds, rs) for ds in _row_blocks(n_draws, rows.size * size, e_dim)
                  for rs in _row_blocks(rows.size, size, e_dim)]
        for ds, rs in blocks:
            block = _pairwise_distances(self.target_points[rows[rs]], lib[ds])
            block[draws[ds, None] == own[rs, None]] = np.inf
            flat = block.reshape(-1, size)
            try:
                idx, nd = nearest_rows(flat, k)
            except DataError:
                n_fin = np.isfinite(flat).sum(axis=1)
                bad = np.flatnonzero(n_fin < k)[0]
                raise DataError(f"need {k} neighbors but only {n_fin[bad]} usable "
                                f"candidates for the target at time "
                                f"{self.target_times[rows[rs]][bad % block.shape[1]]}"
                                ) from None
            cols[ds, rs] = np.take_along_axis(draws[ds, None],
                                              idx.reshape(*block.shape[:2], k), axis=2)
            dist[ds, rs] = nd.reshape(*block.shape[:2], k)
        return cols, dist


@dataclass(frozen=True)
class _CrossMap:
    """A view of one manifold's neighbor table, ready to score.

    :func:`cross_estimates` returns the build, at shift 0; :meth:`shifted`
    gives the view under any shift. :meth:`sweep` scores whole-library
    views, several shifts at once, and :meth:`skills` scores draws. A
    view's targets are the table rows ``rows`` and its library the table
    columns ``cols``. ``values`` fixes which times are observed under the
    shift; any series sharing its time range can be scored on the same
    neighbors.
    """

    table: _NeighborTable
    rows: slice
    cols: slice
    values: TimeSeries
    shift: int
    k: int

    @property
    def lib_times(self) -> np.ndarray:
        return self.table.lib_times[self.cols]

    @property
    def target_times(self) -> np.ndarray:
        return self.table.target_times[self.rows]

    def neighbors(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each target's k nearest library times and their distances, its
        own time excluded and ties to the earliest time, among each draw's
        library, as :meth:`_NeighborTable.nearest` finds them: ``draws``
        is a (D, L) group of ascending positions into ``lib_times``, one
        row per draw."""
        draws = self.cols.start + np.asarray(draws, dtype=int)
        return self.table.nearest(self.rows, draws, self.k)

    def skills(self, series: Sequence[TimeSeries], draws: Iterable[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Skill of each series with each draw's library: rho, MAE, RMSE
        and degeneracy, each a (series, draws) array holding the bits
        :func:`skill_stats` gives one draw alone.

        ``draws`` yields ascending positions into ``lib_times``, one array
        per draw. They are pulled in groups whose (draws, targets, k)
        neighbors hold at most ``_BLOCK_CELLS`` numbers, each when it is
        scored, so memory does not grow with the draws. A group's
        neighbors are selected together (see :meth:`neighbors`), one
        weighting serves every series, and each series is scored over the
        group by one :func:`core._skill_rows`.
        A group that fails is scored again one draw at a time, so that the
        error raised is the first failing draw's: its selection's, then
        each series' in order, as :func:`skill_stats` gives it.
        """
        draws = iter(draws)
        step = max(1, _BLOCK_CELLS // (self.target_times.size * self.k))
        scores = []
        while group := list(islice(draws, step)):
            group = np.array(group)
            try:
                scores.append(self._score(series, group))
                continue
            except CrossmapError as err:
                failed = err
            for d in range(len(group)):
                self._score(series, group[d:d + 1])
            raise failed
        return tuple(np.concatenate(part, axis=1) for part in zip(*scores))

    def _score(self, series: Sequence[TimeSeries], draws: np.ndarray
               ) -> tuple[np.ndarray, ...]:
        times, dist = self.neighbors(draws)
        k = dist.shape[2]
        return self._skills_of(series, estimates_from_distances(
            dist.reshape(-1, k), (times + self.shift).reshape(-1, k), series))

    def _skills_of(self, series: Sequence[TimeSeries],
                   estimates: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """Each series' skill from its estimates, (draws x targets) flat in
        draw order: (series, draws) arrays of rho, MAE, RMSE and
        degeneracy, or the error :func:`skill_stats` raises for the first
        draw that fails, series by series."""
        targets = self.target_times + self.shift
        scores = []
        for s, est in zip(series, estimates):
            observed = s.values[targets - s.origin_index]
            predicted = est.reshape(-1, targets.size)
            ok = np.isfinite(predicted).all(axis=1)
            if ok.all():
                scores.append(_skill_rows(observed, predicted))
                ok = np.isfinite(scores[-1][2])
            if not ok.all():
                # skill_stats raises the error of the first draw that fails
                skill_stats(observed, predicted[np.argmin(ok)])
        return tuple(np.array(part) for part in zip(*scores))

    def skill(self) -> SkillStats:
        """Skill of ``values`` with the whole library: a :meth:`sweep` of
        this view's shift, which raises the error that sweep gives."""
        scores, = self.sweep((self.values,), [self.shift])
        if isinstance(scores, DataError):
            raise scores
        rho, mae, rmse, degenerate = (a.item() for a in scores)
        return SkillStats(rho, mae, rmse, self.target_times.size, degenerate)

    def shifted(self, shift: int) -> "_CrossMap":
        """The build this view came from, under ``shift``.

        The times observed under a shift form one interval, so the usable
        library and the usable targets are each one run of the build's
        sorted times: a range of table columns and a range of table rows.
        """
        bounds = [self.values.origin_index - shift, self.values.end_index - shift + 1]
        cols = slice(*np.searchsorted(self.table.lib_times, bounds).tolist())
        rows = slice(*np.searchsorted(self.table.target_times, bounds).tolist())
        n_usable = cols.stop - cols.start
        if n_usable < self.k + 1:
            raise DataError(f"library too small: {n_usable} usable points after "
                            f"shifting by {shift}, need at least {self.k + 1}")
        if rows.stop - rows.start < 2:
            raise DataError(f"no valid targets after shifting by {shift}")
        return replace(self, rows=rows, cols=cols, shift=shift)

    def sweep(self, series: Sequence[TimeSeries], shifts: Sequence[int]
              ) -> list[tuple[np.ndarray, ...] | DataError]:
        """Skill of each of ``series`` with the whole library of
        ``self.shifted(shift)``, for each of ``shifts`` in order: the bits
        :meth:`skills` gives that view's one draw of every library column,
        or the :class:`DataError` it raises; any other error is raised for
        the first shift that meets it. Every whole-library view is scored
        here.

        A shift changes only which library columns and targets at the two
        ends of the times are usable. A row is lag-stable when its first k
        table entries are trusted and lie inside every scored view's
        columns (column n, which marks an untrusted entry, lies past them
        all): it takes exactly those entries under every shift, so its
        times and weights are computed once, and each shift only gathers
        the values at times + shift. A table narrower than k has no
        lag-stable row. The other rows go through
        :meth:`_NeighborTable.nearest` once per shift. Weights and
        estimates are computed row by row on C-contiguous (rows, k)
        arrays, so each row's estimate is the one the shift's own view
        gives.
        """
        views = []
        for shift in shifts:
            try:
                views.append(self.shifted(shift))
            except DataError as err:
                views.append(err)
        scored = [view for view in views if isinstance(view, _CrossMap)]
        if not scored:
            return views
        table, k = self.table, self.k
        lo = max(view.cols.start for view in scored)
        hi = min(view.cols.stop for view in scored)
        # the other rows' entries are overwritten by each shift that reads them
        times = np.empty((table.near.shape[0], k), dtype=np.intp)
        w = np.empty(times.shape)
        stable = np.zeros(times.shape[0], dtype=bool)
        # a table narrower than k (a draw build at k > _TABLE_WIDTH) has none
        if table.near.shape[1] >= k:
            first = table.near[:, :k]
            stable = ((first >= lo) & (first < hi)).all(axis=1)
            times[stable] = table.lib_times[first[stable]]
            w[stable] = weight_rows(table.near_dist[stable, :k])
        out = []
        for view in views:
            if isinstance(view, DataError):
                out.append(view)
                continue
            rows, cols = view.rows, view.cols
            other = rows.start + np.flatnonzero(~stable[rows])
            try:
                if other.size:
                    picks, dist = table.nearest(
                        other, np.arange(cols.start, cols.stop)[None], k)
                    times[other], w[other] = picks[0], weight_rows(dist[0])
                out.append(view._skills_of(series, _weighted_estimates(
                    w[rows], times[rows] + view.shift, series)))
            except DataError as err:
                out.append(err)
        return out


def cross_estimates(points: np.ndarray,
                    times: np.ndarray,
                    values: TimeSeries,
                    k: int,
                    lib_times: np.ndarray | None = None,
                    target_times: np.ndarray | None = None,
                    draws: bool = False) -> _CrossMap:
    """Cross map from state points onto ``values``, built at shift 0.

    ``times`` are the consecutive times of ``points``; library and target
    times must be subsets of them, without repeats. Under a shift (see
    :meth:`_CrossMap.shifted`), every target time t with a known
    observation at t + shift is estimated by its k nearest library states,
    its own time excluded, voting for the value at their own time + shift;
    library times without a value at time + shift are dropped.

    ``draws`` says whether the readers draw libraries (column subsets):
    then the table keeps ``_TABLE_WIDTH`` columns (read at each call),
    else k + ``_VIEW_SLACK`` for views of the whole library. The width
    moves work between the table and the points, never a number.
    """
    lib = np.sort(np.asarray(lib_times, dtype=int)) if lib_times is not None else times
    if not np.all(np.isin(lib, times)):
        raise DataError("library times must be admissible embedding times")
    tgt = np.sort(np.asarray(target_times, dtype=int)) \
        if target_times is not None else times
    for what, chosen in (("library", lib), ("target", tgt)):
        if (repeated := chosen[:-1][np.diff(chosen) == 0]).size:
            raise DataError(f"{what} times must not repeat: time {repeated[0]} "
                            f"appears more than once")
    table = _NeighborTable.build(lib, tgt, points[tgt - times[0]],
                                 points[lib - times[0]],
                                 width=_TABLE_WIDTH if draws else k + _VIEW_SLACK)
    return _CrossMap(table=table, rows=slice(0, tgt.size), cols=slice(0, lib.size),
                     values=values, shift=0, k=k)


def simplex_forecast(library: ShadowManifold,
                     target_point: Sequence[float],
                     future: TimeSeries,
                     tp: int = 1,
                     target_time: int | None = None) -> float:
    """Forecast the value at (neighbor time + tp) for one query state.

    Library points whose time + tp falls outside ``future`` are skipped
    before the E+1 neighbors are selected. The neighbors and the estimate
    are those of a one-row neighbor table whose target has the time
    ``target_time``, or a time no library has when it is None, so the
    table leaves the library state at ``target_time`` out (leave-one-out)
    as it does for every reader, and a forecast at a library state equals
    :func:`loo_skill`'s estimate there.
    """
    tp, = integer_values("tp", [tp])
    k = library.e_dim + 1
    query = np.asarray(target_point, dtype=float).reshape(-1)
    if query.size != library.e_dim:
        raise DataError(f"fewer than E+1={k} usable neighbors: query has dimension "
                        f"{query.size}, manifold has E={library.e_dim}")
    if not np.all(np.isfinite(query)):
        raise DataError(f"fewer than E+1={k} usable neighbors: the query state "
                        f"is not finite")
    times = library.times
    usable = (times + tp >= future.origin_index) & (times + tp <= future.end_index)
    lib_times = times[usable]
    query_time = (times[-1:] + 1 if target_time is None
                  else np.array(integer_values("target_time", [target_time])))
    if (n_usable := lib_times.size - int(query_time[0] in lib_times)) < k:
        raise DataError(f"fewer than E+1={k} usable neighbors: need {k} neighbors "
                        f"but only {n_usable} admissible points remain after "
                        f"exclusions")
    table = _NeighborTable.build(lib_times, query_time, query[None],
                                 library.points[usable], width=k + _VIEW_SLACK)
    try:
        neighbor_times, dist = table.nearest(slice(0, 1),
                                             np.arange(lib_times.size)[None], k)
    except DataError:
        raise DataError(f"fewer than E+1={k} usable neighbors: fewer than {k} usable "
                        f"library states lie at a finite distance from the "
                        f"query") from None
    return float(estimates_from_distances(dist[0], neighbor_times[0] + tp,
                                          (future,))[0][0])


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
    return cross_estimates(manifold.points, manifold.times, series, params.e_dim + 1,
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
    Dimensions that cannot be scored (too short a series, too few finite
    distances) are kept in the scan with a note instead of stats; a
    zero-variance row (rho reported as 0) adds a warning.
    """
    e_values = sorted(set(integer_values("e_range", e_range)))
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
        raise DataError(f"series {series.name!r}: no scanned dimension could be "
                        f"scored; E={rows[0].e_dim}: {rows[0].note}")
    best = max(scored, key=lambda r: (r.stats.rho, -r.e_dim))
    warnings = ()
    if any(r.stats.degenerate for r in scored):
        warnings = (f"column {series.name!r} has zero variance in at least one "
                    f"scan row; rho reported as 0 there",)
    return EDimScan(rows=tuple(rows), best_e=best.e_dim, warnings=warnings)
