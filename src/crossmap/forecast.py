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
# larger draws walk it and take the rows it cannot settle from the points
_TABLE_WIDTH = 64
# a build read only through whole-library views keeps k + this many
# columns: one slot for a library column that the view's shift drops
_VIEW_SLACK = 1
# the most numbers one block holds at once (a dense block's differences, a
# screen block's approximations and partition indices over its window,
# which is at most the whole library, or a group of draws' neighbors): 1 MiB
# of float64, which stays in a 2 MiB L2 cache; a build computes every
# window's approximations into one buffer of its own
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
    non-decreasing distances, k >= 1; the input is not checked."""
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

    Returns each row's m columns of smallest approximation, ascending, its
    own column not set aside, and two radii from its (m+1)-th
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
    return (np.sort(cols[part[:, :m]], axis=1),
            np.sqrt(np.maximum(cut - slack, 0.0)), np.sqrt(cut + slack))


def estimates_from_distances(dist: np.ndarray,
                             neighbor_times: np.ndarray,
                             series: Sequence[TimeSeries]) -> list[np.ndarray]:
    """Cross estimates of each of ``series`` from each target's neighbors.

    Row i of ``dist`` holds target i's neighbor distances in non-decreasing
    order, and row i of ``neighbor_times`` the times whose values they
    vote for, each of which must be a time of every series. The weights
    are computed once and serve every series.
    """
    w = weight_rows(dist)
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
    side is the mirror image. A row whose edge bound lies below its screen
    bound and at or below its W-th distance may miss a column beyond the
    edge, and takes every column. Every other row has its edge bound at or
    above its screen bound, or above its W-th distance, so the screen bound
    alone certifies what it trusts, and it trusts at least as much as a
    screen of the whole library would.

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
    """

    near: np.ndarray
    near_dist: np.ndarray
    lib_times: np.ndarray
    target_times: np.ndarray
    target_points: np.ndarray
    lib_points: np.ndarray

    @classmethod
    def build(cls, lib_times: np.ndarray, target_times: np.ndarray,
              target_points: np.ndarray, lib_points: np.ndarray,
              width: int) -> "_NeighborTable":
        (n_targets, e_dim), n = target_points.shape, lib_points.shape[0]
        width = min(width, n)
        m = width + _SCREEN_SLACK
        near = np.empty((n_targets, width), dtype=np.intp)
        near_dist = np.empty(near.shape)
        bound = np.full(n_targets, np.inf)

        def exact(r: np.ndarray, cand: np.ndarray, points: np.ndarray) -> None:
            dist = _pairwise_distances(target_points[r], points)
            dist[lib_times[cand] == target_times[r, None]] = np.inf
            # candidates ascend, so a stable sort breaks ties by column
            order = np.argsort(dist, axis=1, kind="stable")[:, :width]
            near[r] = np.take_along_axis(cand, order, axis=1)
            near_dist[r] = np.take_along_axis(dist, order, axis=1)

        screened = np.zeros(n_targets, dtype=bool)
        if n > m:
            tgt, lib = _screen_inputs(target_points, lib_points)
            screened = np.isfinite(_rounding_bound(tgt, lib))
        rows = np.flatnonzero(screened)
        if rows.size:
            # targets and library in first-coordinate (x0) order: a block's
            # window is one slice of the permuted library
            rows = rows[np.argsort(target_points[rows, 0], kind="stable")]
            x0_rows = target_points[rows, 0]
            by_x0 = np.argsort(lib_points[:, 0], kind="stable")
            lib = lib[:, by_x0]
            x0 = np.concatenate([[-np.inf], lib_points[by_x0, 0], [np.inf]])
            screens = _row_blocks(rows.size, n, 2)
            # one buffer for every window's approximations: a fresh one per
            # block can cost a fresh process an mmap and a trim of it per block
            buf = np.empty(rows[screens[0]].size * n)
            radius = np.inf
            for block in screens:
                r, t0 = rows[block], x0_rows[block]
                lo, hi = np.searchsorted(x0[1:-1], (t0[0] - radius, t0[-1] + radius))
                if hi - lo <= m:
                    lo, hi = 0, n
                cand, low, radii = _candidates(tgt[r], lib[:, lo:hi], by_x0[lo:hi],
                                               m, buf)
                exact(r, cand, np.take(lib_points, cand, axis=0))
                if hi - lo < n:
                    # x0 is padded, so the window's neighbours are x0[lo] and
                    # x0[hi + 1]; no column beyond them lies nearer than edge
                    with np.errstate(over="ignore"):
                        gap = np.minimum(t0 - x0[lo], x0[hi + 1] - t0)
                        edge = np.sqrt(gap * gap)
                    # rows whose table the edge cuts into take every column
                    screened[r[(edge < low) & (edge <= near_dist[r, -1])]] = False
                bound[r] = low
                radius = radii.max()
        # a block holds at most _BLOCK_CELLS numbers: rows x n x E differences
        # here, rows x n approximations and as many partition indices above
        every = np.flatnonzero(~screened)
        bound[every] = np.inf
        for block in _row_blocks(every.size, n, e_dim):
            r = every[block]
            exact(r, np.broadcast_to(np.arange(n), (r.size, n)), lib_points)
        near[near_dist >= bound[:, None]] = n
        return cls(near=near, near_dist=near_dist, lib_times=lib_times,
                   target_times=target_times, target_points=target_points,
                   lib_points=lib_points)

    def nearest(self, rows: slice, draws: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
        """Library times and distances of each target in ``rows``'s k
        nearest of each draw's columns, ties to the lower column, exactly
        as :func:`nearest_rows` on each draw's dense block: ``draws`` is a
        (D, L) group of ascending library columns, one row per draw, and
        both results are (D, rows, k).

        In a draw, a row with k trusted entries among its columns takes the
        first k, in k rounds that each take the row's first remaining one;
        the rest are computed from the points (:meth:`_from_points`). A
        draw of L of the n library columns puts about W L / n of them in a
        row's W table columns, so when L W < k n every row of every draw is
        computed from the points, the group at once and without the walk:
        the rows that need the points get the same answer either way, and
        so do the few that the walk would have settled.
        """
        n_draws, size = draws.shape
        near, near_dist = self.near[rows], self.near_dist[rows]
        targets = np.arange(rows.start, rows.stop)
        if size * near.shape[1] < k * self.lib_times.size:
            cols, dist = self._from_points(targets, draws, k)
            return self.lib_times[cols], dist
        at = np.arange(targets.size)
        # each row's first entry in the flattened table rows
        row_start = at[:, None] * near.shape[1]
        cols = np.empty((n_draws, targets.size, k), dtype=np.intp)
        dist = np.empty(cols.shape)
        for d, columns in enumerate(draws):
            # column n, which marks an untrusted entry, stays False
            member = np.zeros(self.lib_times.size + 1, dtype=bool)
            member[columns] = True
            ok = member[near]
            picked = np.empty((at.size, k), dtype=np.intp)
            for j in range(k - 1):
                # argmax returns a row's first True, or 0 when it has none left
                picked[:, j] = ok.argmax(axis=1)
                ok[at, picked[:, j]] = False
            # each round takes the row's first remaining member, so the k-th
            # finds one exactly when the row has k of them
            picked[:, -1] = ok.argmax(axis=1)
            cols[d] = np.take(near, picked + row_start)
            dist[d] = np.take(near_dist, picked + row_start)
            if (short := np.flatnonzero(~ok[at, picked[:, -1]])).size:
                short_cols, short_dist = self._from_points(targets[short],
                                                           columns[None], k)
                cols[d, short], dist[d, short] = short_cols[0], short_dist[0]
        return self.lib_times[cols], dist

    def _from_points(self, targets: np.ndarray, draws: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each of the table rows ``targets``' k nearest of each draw's
        columns from the points, with the own time at +inf as in
        :meth:`build`: (D, targets, k) library columns and distances.

        A block holds at most ``_BLOCK_CELLS`` differences: whole draws
        when one draw's targets x L x E fit, else row blocks of one draw.
        So the rows come in (draw, row) order, and a row short of finite
        distances raises for the first of them.
        """
        (n_draws, size), n = draws.shape, self.lib_times.size
        e_dim, target_times = self.lib_points.shape[1], self.target_times[targets]
        # each target's own column, n where the library has none; the draws
        # ascend, so offsetting each by n + 1 past the last makes one
        # ascending run, where a target's own column can only be at its
        # search position
        own = np.searchsorted(self.lib_times, target_times)
        own[self.lib_times[np.minimum(own, n - 1)] != target_times] = n
        offset = (n + 1) * np.arange(n_draws)[:, None]
        run, key = (draws + offset).ravel(), own + offset
        pos = np.searchsorted(run, key)
        own_hit = run[np.minimum(pos, run.size - 1)] == key
        pos -= size * np.arange(n_draws)[:, None]
        lib = self.lib_points[draws][:, None]
        cols = np.empty((n_draws, targets.size, k), dtype=np.intp)
        dist = np.empty(cols.shape)
        row_blocks = _row_blocks(targets.size, size, e_dim)
        if len(row_blocks) == 1:
            step = max(1, _BLOCK_CELLS // (targets.size * size * e_dim))
            blocks = [(slice(d, d + step), slice(None)) for d in range(0, n_draws, step)]
        else:
            blocks = [(slice(d, d + 1), r) for d in range(n_draws) for r in row_blocks]
        for ds, rs in blocks:
            block = _pairwise_distances(self.target_points[targets[rs]], lib[ds])
            hit_d, hit_r = np.nonzero(own_hit[ds, rs])
            block[hit_d, hit_r, pos[ds, rs][hit_d, hit_r]] = np.inf
            flat = block.reshape(-1, size)
            try:
                idx, nd = nearest_rows(flat, k)
            except DataError:
                n_fin = np.isfinite(flat).sum(axis=1)
                bad = np.flatnonzero(n_fin < k)[0]
                raise DataError(f"need {k} neighbors but only {n_fin[bad]} usable "
                                f"candidates for the target at time "
                                f"{target_times[rs][bad % block.shape[1]]}") from None
            cols[ds, rs] = np.take_along_axis(draws[ds, None],
                                              idx.reshape(*block.shape[:2], k), axis=2)
            dist[ds, rs] = nd.reshape(*block.shape[:2], k)
        return cols, dist


@dataclass(frozen=True)
class _CrossMap:
    """A view of one manifold's neighbor table, ready to score.

    :func:`cross_estimates` returns the build, at shift 0; :meth:`shifted`
    gives the view under any shift. A view's targets are the table rows
    ``rows`` and its library the table columns ``cols``. ``values`` fixes
    which times are observed under the shift; any series sharing its time
    range can be scored on the same neighbors.
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

    @property
    def group_size(self) -> int:
        """The most draws one call of :meth:`skills` should take: their
        (draws, targets, k) neighbors hold at most ``_BLOCK_CELLS`` numbers."""
        return max(1, _BLOCK_CELLS // ((self.rows.stop - self.rows.start) * self.k))

    def neighbors(self, draws: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Each target's k nearest library times and their distances, its
        own time excluded and ties to the earliest time, among each draw's
        library, as :meth:`_NeighborTable.nearest` finds them: ``draws``
        is a (D, L) group of ascending positions into ``lib_times``, one
        row per draw, and None is the whole library, a group of one."""
        start = self.cols.start
        draws = (np.arange(start, self.cols.stop)[None] if draws is None
                 else start + np.asarray(draws, dtype=int))
        return self.table.nearest(self.rows, draws, self.k)

    def skills(self, series: Sequence[TimeSeries],
               draws: np.ndarray | None = None) -> list[list[SkillStats]]:
        """Skill of each series with each draw's library (see
        :meth:`neighbors`): one list per draw, in the order of ``series``.

        The group's neighbors are selected together, one weighting serves
        every series, and each series is scored over every draw by one
        :func:`core._skill_rows`. A group that fails is scored again one
        draw at a time, so that the error raised is the first draw's: its
        selection's, then each series' in order, as :func:`skill_stats`
        gives it.
        """
        try:
            return self._score(series, draws)
        except CrossmapError as err:
            if draws is None or len(draws) == 1:
                raise
            failed = err
        for d in range(len(draws)):
            self._score(series, draws[d:d + 1])
        raise failed

    def _score(self, series: Sequence[TimeSeries],
               draws: np.ndarray | None) -> list[list[SkillStats]]:
        times, dist = self.neighbors(draws)
        n_draws, n_rows, k = dist.shape
        estimates = estimates_from_distances(
            dist.reshape(-1, k), (times + self.shift).reshape(-1, k), series)
        targets = self.target_times + self.shift
        scores = []
        for s, est in zip(series, estimates):
            observed = s.values[targets - s.origin_index]
            predicted = est.reshape(n_draws, n_rows)
            ok = np.isfinite(predicted).all(axis=1)
            if ok.all():
                rho, mae, rmse, degenerate = _skill_rows(observed, predicted)
                ok = np.isfinite(rmse)
            if not ok.all():
                # skill_stats raises the error of the first draw that fails
                skill_stats(observed, predicted[np.argmin(ok)])
            scores.append([SkillStats(rho=r, mae=a, rmse=e, n_pairs=n_rows, degenerate=g)
                           for r, a, e, g in zip(rho.tolist(), mae.tolist(),
                                                 rmse.tolist(), degenerate.tolist())])
        return [list(draw) for draw in zip(*scores)]

    def skill(self) -> SkillStats:
        """Skill of ``values`` with the whole library (see :meth:`skills`)."""
        return self.skills((self.values,))[0][0]

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
    before the E+1 neighbors are selected; ``target_time``, when given,
    is excluded from the candidates (leave-one-out). The neighbors and
    the estimate are those of a one-row neighbor table, so a forecast at
    a library state equals :func:`loo_skill`'s estimate there.
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
    if target_time is not None:
        usable &= times != integer_values("target_time", [target_time])[0]
    if (n_usable := int(usable.sum())) < k:
        raise DataError(f"fewer than E+1={k} usable neighbors: need {k} neighbors "
                        f"but only {n_usable} admissible points remain after "
                        f"exclusions")
    lib_times = times[usable]
    # the query's row has a time no library has, so no column is its own
    table = _NeighborTable.build(lib_times, times[-1:] + 1, query[None],
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
