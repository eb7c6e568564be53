from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from crossmap import (CrossmapError, DataError, EmbeddingParams, NumericalError,
                      TimeSeries, embed, knn, loo_skill, select_embedding_dimension,
                      simplex_forecast, simplex_weights, train_test_skill)
from crossmap import forecast
from crossmap.embedding import nearest_rows
from crossmap.forecast import _pairwise_distances, cross_estimates
from crossmap.systems import gen_coupled_logistic


def logistic_series(n, x0=0.31, r=3.8, name="x"):
    v = np.empty(n)
    v[0] = x0
    for t in range(1, n):
        v[t] = r * v[t - 1] * (1.0 - v[t - 1])
    return TimeSeries(name, v)


class TestSimplexWeights:
    def test_equal_distances(self):
        w = simplex_weights([1.0, 1.0, 1.0]).weights
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3])

    def test_zero_distance_rule(self):
        w = simplex_weights([0.0, 0.0, 5.0]).weights
        assert w.tolist() == [0.5, 0.5, 0.0]

    def test_exponential_decay(self):
        w = simplex_weights([1.0, 2.0, 3.0]).weights
        raw = np.exp([-1.0, -2.0, -3.0])
        assert np.allclose(w, raw / raw.sum())
        assert np.round(w, 4).tolist() == [0.6652, 0.2447, 0.09]

    def test_sum_to_one_and_positive(self):
        # distance ratios bounded so exp(-d/d1) stays above underflow
        rng = np.random.default_rng(20)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            d = np.sort(rng.uniform(0.5, 10.0, size=k))
            w = simplex_weights(d).weights
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_extreme_ratio_underflows_to_zero_not_negative(self):
        w = simplex_weights([1e-8, 10.0, 10.0]).weights
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0) and w[0] == pytest.approx(1.0)

    def test_tiny_leading_distance_stays_finite(self):
        w = simplex_weights([1e-300, 1.0, 2.0]).weights
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-12
        assert w[0] > 0.99

    def test_rejects_unsorted(self):
        with pytest.raises(DataError):
            simplex_weights([2.0, 1.0, 3.0])

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            simplex_weights([-1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            simplex_weights([])

    def test_neighbor_times_carried(self):
        sw = simplex_weights([1.0, 2.0], neighbor_times=[5, 9])
        assert sw.neighbor_times.tolist() == [5, 9]
        with pytest.raises(DataError):
            simplex_weights([1.0, 2.0], neighbor_times=[5])


class TestSimplexForecast:
    def test_constant_series(self):
        series = TimeSeries("c", np.full(20, 0.7))
        lib = embed(series, EmbeddingParams(2))
        assert simplex_forecast(lib, [0.7, 0.7], series) == pytest.approx(0.7)

    def test_exact_match_returns_its_future(self):
        series = TimeSeries("s", [0.1, 0.4, 0.9, 0.3, 0.8, 0.2])
        lib = embed(series, EmbeddingParams(1))
        # query equals the point at time 2 exactly; its future is 0.3
        got = simplex_forecast(lib, [0.9], series, tp=1)
        assert got == pytest.approx(0.3)

    def test_convex_combination(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(10, 60))
            series = TimeSeries("s", rng.normal(size=n))
            e = int(rng.integers(1, 4))
            if n - (e - 1) < e + 2:
                continue
            lib = embed(series, EmbeddingParams(e))
            q = rng.normal(size=e)
            got = simplex_forecast(lib, q, series, tp=1)
            futures = [series.value_at(int(t) + 1) for t in lib.times
                       if series.has_time(int(t) + 1)]
            assert min(futures) - 1e-12 <= got <= max(futures) + 1e-12

    def test_target_time_excluded(self):
        series = TimeSeries("s", [0.0, 1.0, 0.0, 1.0, 0.5])
        lib = embed(series, EmbeddingParams(1))
        with_self = simplex_forecast(lib, [1.0], series, tp=1)
        without = simplex_forecast(lib, [1.0], series, tp=1, target_time=1)
        assert with_self != without

    def test_too_few_usable_neighbors(self):
        series = TimeSeries("s", [0.1, 0.2, 0.3])
        lib = embed(series, EmbeddingParams(2))
        with pytest.raises(DataError, match="E\\+1"):
            simplex_forecast(lib, [0.2, 0.1], series, tp=1)


class TestLooSkill:
    def test_linear_trend(self):
        st = loo_skill(TimeSeries("lin", np.arange(100.0)), EmbeddingParams(1))
        assert st.rho > 0.999

    def test_logistic_map_nearly_perfect(self):
        st = loo_skill(logistic_series(500), EmbeddingParams(2))
        assert st.rho > 0.99

    def test_white_noise_unpredictable(self):
        rng = np.random.default_rng(7)
        st = loo_skill(TimeSeries("wn", rng.normal(size=500)),
                       EmbeddingParams(2))
        assert abs(st.rho) < 0.2

    def test_coupled_logistic_component(self):
        from crossmap.systems import gen_coupled_logistic
        x, _ = gen_coupled_logistic(1000)
        assert loo_skill(x, EmbeddingParams(2)).rho > 0.99

    def test_matches_per_point_simplex_forecast(self):
        # dual route: the vectorized path against one-at-a-time forecasts
        series = logistic_series(60, x0=0.47)
        params = EmbeddingParams(2, tau=1, tp=1)
        lib = embed(series, params)
        obs, est = [], []
        for row in range(lib.n_points):
            t = int(lib.times[row])
            if not series.has_time(t + params.tp):
                continue
            est.append(simplex_forecast(lib, lib.points[row], series,
                                        tp=params.tp, target_time=t))
            obs.append(series.value_at(t + params.tp))
        from crossmap import skill_stats
        want = skill_stats(obs, est)
        got = loo_skill(series, params)
        assert got.rho == pytest.approx(want.rho, abs=1e-12)
        assert got.mae == pytest.approx(want.mae, abs=1e-12)
        assert got.n_pairs == want.n_pairs

    def test_offset_invariance(self):
        series = logistic_series(300, x0=0.62)
        shifted = TimeSeries("x", series.values + 100.0)
        a = loo_skill(series, EmbeddingParams(2))
        b = loo_skill(shifted, EmbeddingParams(2))
        assert b.rho == pytest.approx(a.rho, abs=1e-9)
        assert b.mae == pytest.approx(a.mae, abs=1e-9)

    def test_determinism(self):
        series = logistic_series(200)
        a = loo_skill(series, EmbeddingParams(3))
        b = loo_skill(series, EmbeddingParams(3))
        assert a == b

    def test_too_short(self):
        with pytest.raises(DataError):
            loo_skill(TimeSeries("s", [1.0, 2.0, 3.0]), EmbeddingParams(2))


class TestTrainTestSkill:
    def test_logistic_split(self):
        st = train_test_skill(logistic_series(400), EmbeddingParams(2), 0.75)
        assert st.rho > 0.99

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5, 2.0])
    def test_bad_fraction(self, frac):
        with pytest.raises(DataError):
            train_test_skill(logistic_series(100), EmbeddingParams(2), frac)


class TestSelectEmbeddingDimension:
    def test_logistic_map(self):
        scan = select_embedding_dimension(logistic_series(1000))
        assert scan.best_e in (1, 2, 3)
        best_row = [r for r in scan.rows if r.e_dim == scan.best_e][0]
        assert best_row.stats.rho > 0.99
        assert scan.warnings == ()

    def test_constant_series_degenerate(self):
        scan = select_embedding_dimension(TimeSeries("c", np.ones(50)),
                                          e_range=range(2, 6))
        assert scan.best_e == 2
        assert all(r.stats.degenerate for r in scan.rows)
        assert scan.warnings == ("column 'c' has zero variance in at least one "
                                 "scan row; rho reported as 0 there",)

    def test_short_series_marks_unavailable(self):
        scan = select_embedding_dimension(logistic_series(12),
                                          e_range=range(1, 11))
        notes = [r for r in scan.rows if r.stats is None]
        assert notes and all(r.note for r in notes)
        assert len(scan.rows) == 10

    def test_ties_take_smallest_e(self):
        # constant series: every E ties at rho 0
        scan = select_embedding_dimension(TimeSeries("c", np.ones(60)),
                                          e_range=[4, 2, 7])
        assert scan.best_e == 2

    def test_empty_range(self):
        with pytest.raises(DataError):
            select_embedding_dimension(logistic_series(100), e_range=[])

    @pytest.mark.parametrize("e_range, bad", [
        ([1.5, 2.9, "3"], "1.5"), ([1, 2.0], "2.0"), ([1, "3"], "'3'")])
    def test_dimensions_must_be_integers(self, e_range, bad):
        # int() would scan E = 1, 2, 3 for [1.5, 2.9, '3']
        with pytest.raises(DataError, match=f"^e_range must hold integers, got {bad}$"):
            select_embedding_dimension(logistic_series(100), e_range=e_range)

    def test_numpy_dimensions_are_accepted(self):
        scan = select_embedding_dimension(logistic_series(100),
                                          e_range=np.arange(1, 4, dtype=np.int32))
        assert [r.e_dim for r in scan.rows] == [1, 2, 3]

    def test_no_scored_row_quotes_the_first_note(self):
        # squared distances of values near 1e160 overflow to +inf, so no
        # row has a finite neighbor; length is not what failed
        x, _ = gen_coupled_logistic(300)
        with pytest.raises(DataError) as info:
            select_embedding_dimension(TimeSeries("X", x.values * 1e160),
                                       e_range=range(1, 4))
        assert str(info.value) == ("series 'X': no scanned dimension could be "
                                   "scored; E=1: need 2 neighbors but only 0 "
                                   "usable candidates for the target at time 0")

    def test_overflowing_correlation_is_a_numerical_error(self):
        series = TimeSeries("v", np.linspace(0.0, 1.0, 200) * 1e154)
        with pytest.raises(NumericalError, match="too large for float64 sums"):
            select_embedding_dimension(series, e_range=range(1, 3))

    def test_overflowing_difference_is_a_numerical_error(self):
        # 1e308 - (-1e308) overflows in the subtraction itself, not a warning
        series = TimeSeries("s", np.tile([1e308, -1e308, 0.5, 0.25, 3.0], 20))
        with pytest.raises(NumericalError, match="too large for float64 sums"):
            select_embedding_dimension(series, e_range=range(1, 3))

    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0])
    def test_split_fraction_checked_before_the_scan(self, fraction):
        # not one "too short" note per E: the fraction itself is the error
        with pytest.raises(DataError, match=r"split_fraction must be in \(0,1\)"):
            select_embedding_dimension(logistic_series(500), e_range=range(1, 4),
                                       split_fraction=fraction)

    def test_split_mode(self):
        scan = select_embedding_dimension(logistic_series(500),
                                          e_range=range(1, 5),
                                          split_fraction=0.7)
        best_row = [r for r in scan.rows if r.e_dim == scan.best_e][0]
        assert best_row.stats.rho > 0.99


@st.composite
def tie_heavy_series(draw):
    """Values rounded to 0-2 decimals, laid out in constant stretches."""
    decimals = draw(st.integers(0, 2))
    runs = draw(st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(1, 4)),
                         min_size=4, max_size=20))
    values = [round(v, decimals) for v, length in runs for _ in range(length)]
    return TimeSeries("x", values, origin_index=draw(st.integers(-3, 3)))


def grid_series(seed, n=90):
    """Values on a grid of 1, 0.1 or 0.01 with -0.0 among them, or
    continuous; the grids make many distances tie exactly."""
    rng = np.random.default_rng(seed)
    step = [1.0, 0.1, 0.01, None][seed % 4]
    if step is None:
        values = rng.normal(size=n)
    else:
        values = np.round(rng.integers(-4, 5, size=n) * step, 2)
        values[rng.random(n) < 0.2] = -0.0
    return TimeSeries("x", values)


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("e_dim", range(1, 13))
def test_pairwise_distances_match_knn_oracle(e_dim, tau):
    # both kernels, on either side of _FILL_MAX_E, in one block of all rows,
    # in blocks of one row and on columns gathered per row, against knn's
    # own distances
    for seed in range(4):
        manifold = embed(grid_series(seed + e_dim), EmbeddingParams(e_dim, tau))
        points, n = manifold.points, manifold.n_points
        whole = _pairwise_distances(points, points)
        for i in range(n):
            ns = knn(manifold, points[i], n)
            want = np.empty(n)
            want[ns.indices] = ns.distances
            assert whole[i].tobytes() == want.tobytes()
            assert _pairwise_distances(points[i:i + 1], points)[0].tobytes() \
                == want.tobytes()
        cols = np.random.default_rng(seed).integers(0, n, size=(n, 9))
        gathered = _pairwise_distances(points, np.take(points, cols, axis=0))
        assert gathered.tobytes() == np.take_along_axis(whole, cols, axis=1).tobytes()


@pytest.mark.parametrize("e_dim", [2, 10])
def test_overflowing_difference_is_an_infinite_distance(e_dim):
    points = np.repeat([[1e308], [-1e308], [0.5]], e_dim, axis=1)
    dist = _pairwise_distances(points, points)
    assert dist.tolist() == [[0.0, np.inf, np.inf],
                             [np.inf, 0.0, np.inf],
                             [np.inf, np.inf, 0.0]]


def dense_neighbors(cross_map, manifold, lib, tgt, columns):
    """The map's neighbor times and distances from the whole target x
    library matrix, sliced to its view and columns, by :func:`nearest_rows`."""
    times = manifold.times
    dist = _pairwise_distances(manifold.points[tgt - times[0]],
                               manifold.points[lib - times[0]])
    own = np.flatnonzero(np.isin(tgt, lib))
    dist[own, np.searchsorted(lib, tgt[own])] = np.inf
    dist = dist[cross_map.rows, cross_map.cols]
    lib_times = cross_map.lib_times
    if columns is not None:
        dist, lib_times = dist[:, columns], lib_times[columns]
    idx, nd = nearest_rows(dist, cross_map.k)
    return lib_times[idx], nd


@st.composite
def long_tie_heavy_series(draw):
    """Up to 160 values on a grid of 1, 0.1 or 0.01, so that many rows tie
    at the table's last distance; lengths reach past the table width."""
    step = draw(st.sampled_from([1.0, 0.1, 0.01]))
    n = draw(st.integers(12, 160))
    levels = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    return TimeSeries("x", [round(v * step, 2) for v in levels],
                      origin_index=draw(st.integers(-3, 3)))


@st.composite
def screened_series(draw):
    """80 to 240 values, mostly past the screen's candidate count even at
    the full table width: continuous or on a grid (tie-heavy), around an
    offset of 0, 1e6 or 1e12. Some values, spread out or at the end (past
    a split library), may be an outlier of 1e9 (the bound then clears
    less), 1e300 (squares overflow) or -1e308 (differences overflow)."""
    n = draw(st.integers(80, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = draw(st.sampled_from([None, 1.0, 0.1, 0.01]))
    values = rng.normal(size=n) if step is None \
        else np.round(rng.integers(0, 12, size=n) * step, 2)
    values = values + draw(st.sampled_from([0.0, 1e6, 1e12]))
    where = draw(st.sampled_from(["none", "spread", "end"]))
    if where != "none":
        hit = rng.random(n) < 0.05 if where == "spread" \
            else np.arange(n) >= n - draw(st.integers(1, n // 3))
        values[hit] = draw(st.sampled_from([1e9, 1e300, -1e308]))
    return TimeSeries("x", values)


def assert_trusted_prefix(table, width):
    """The table's trusted entries are a prefix of each row's dense
    (distance, column) order, with the same distances, and never longer
    than the prefix a table of every distance trusts."""
    n = table.lib_times.size
    dist = _pairwise_distances(table.target_points, table.lib_points)
    dist[table.lib_times == table.target_times[:, None]] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=1)
    w = min(width, n)
    trusted = table.near < n
    n_trusted = trusted.sum(axis=1)
    assert np.all(n_trusted <= (dist[:, :w] < dist[:, w - 1:w]).sum(axis=1))
    assert np.array_equal(trusted, np.arange(w) < n_trusted[:, None])
    for row, t in enumerate(n_trusted):
        assert table.near[row, :t].tolist() == order[row, :t].tolist()
        assert table.near_dist[row, :t].tobytes() == dist[row, :t].tobytes()


class TestCrossMapEngine:
    @settings(max_examples=200, deadline=None, database=None)
    @given(series=screened_series(), e_dim=st.integers(1, 10),
           width=st.sampled_from([1, 5, forecast._TABLE_WIDTH]),
           data=st.data())
    def test_trusted_entries_are_a_prefix_of_the_dense_order(self, series, e_dim,
                                                             width, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        cut = data.draw(st.one_of(st.none(), st.integers(1, times.size - 1)))
        lib, tgt = (times, times) if cut is None else (times[:cut], times[cut:])
        with mock.patch.object(forecast, "_TABLE_WIDTH", width):
            assert_trusted_prefix(cross_estimates(
                manifold.points, times, series, e_dim + 1,
                lib_times=lib, target_times=tgt).table, width)

    @pytest.mark.parametrize("e_dim", [1, 2, 3])
    def test_an_outlier_loosens_the_bound_but_keeps_the_prefix(self, e_dim):
        # a 1e9 outlier makes the screen's rounding larger than the
        # distances between the other points, so the approximate order is
        # noise there; the certificate must then clear less, not wrongly
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = np.round(rng.integers(0, 12, size=200) * 0.01, 2)
            values[rng.random(200) < 0.05] = 1e9
            series = TimeSeries("x", values)
            manifold = embed(series, EmbeddingParams(e_dim))
            with mock.patch.object(forecast, "_TABLE_WIDTH", 5):
                assert_trusted_prefix(cross_estimates(
                    manifold.points, manifold.times, series, e_dim + 1).table, 5)

    @pytest.mark.parametrize("e_dim", [1, 2, 10])
    def test_a_certificate_of_zero_trusts_nothing(self, e_dim):
        # with the bound forced to 0 every row takes the exact fallback,
        # and the neighbors stay the dense ones
        screen = forecast._screen_inputs

        def no_certificate(target_points, lib_points):
            tgt, lib, slack = screen(target_points, lib_points)
            return tgt, lib, np.where(np.isfinite(slack), np.finfo(float).max, slack)

        series = logistic_series(300, x0=0.43)
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        with mock.patch.object(forecast, "_screen_inputs", no_certificate):
            cross_map = cross_estimates(manifold.points, times, series,
                                        e_dim + 1).shifted(1)
        assert np.all(cross_map.table.near == times.size)
        columns = np.sort(np.random.default_rng(e_dim).choice(
            cross_map.lib_times.size, size=100, replace=False))
        for cols in (None, columns):
            got = cross_map.neighbors(cols)
            want = dense_neighbors(cross_map, manifold, times, times, cols)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(series=tie_heavy_series(), e_dim=st.integers(1, 3),
           shift=st.integers(-2, 2), data=st.data())
    def test_column_slice_neighbors_match_knn_oracle(self, series, e_dim,
                                                     shift, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        k = e_dim + 1
        times = manifold.times
        # every time as library and target, or a train/test split
        n = data.draw(st.one_of(st.none(), st.integers(1, times.size - 1)))
        lib, tgt = (times, times) if n is None else (times[:n], times[n:])
        try:
            cross_map = cross_estimates(manifold.points, times, series, k,
                                        lib_times=lib, target_times=tgt
                                        ).shifted(shift)
        except DataError:
            reject()
        lib_times = cross_map.lib_times
        columns = np.array(sorted(data.draw(st.sets(
            st.integers(0, lib_times.size - 1), min_size=k + 1))))
        drawn = lib_times[columns]
        neighbor_times, neighbor_dist = cross_map.neighbors(columns)
        targets = tgt[(tgt + shift >= series.origin_index)
                      & (tgt + shift <= series.end_index)]
        undrawn = set(times.tolist()) - set(drawn.tolist())
        for row, t in enumerate(targets):
            ns = knn(manifold, manifold.points[t - times[0]], k,
                     excluded_times=undrawn | {int(t)})
            assert neighbor_times[row].tolist() == times[ns.indices].tolist()
            assert neighbor_dist[row].tolist() == ns.distances.tolist()

    @settings(max_examples=150, deadline=None, database=None)
    @given(series=long_tie_heavy_series(), e_dim=st.integers(1, 10),
           shift=st.integers(-2, 2), split=st.booleans(),
           width=st.sampled_from([1, 2, 5, forecast._TABLE_WIDTH]),
           cells=st.sampled_from([1, 97, forecast._BLOCK_CELLS, 2 ** 21]),
           data=st.data())
    def test_table_matches_dense_nearest_rows(self, series, e_dim, shift, split,
                                              width, cells, data):
        # the table's width and block size only move work between the walk,
        # the fallback and the blocks; the neighbors stay the dense ones
        manifold = embed(series, EmbeddingParams(e_dim))
        times, k = manifold.times, e_dim + 1
        if times.size < k + 2:
            reject()
        cut = data.draw(st.integers(1, times.size - 1)) if split else times.size
        lib, tgt = times[:cut], (times[cut:] if split else times)
        with mock.patch.object(forecast, "_TABLE_WIDTH", width), \
                mock.patch.object(forecast, "_BLOCK_CELLS", cells):
            try:
                cross_map = cross_estimates(manifold.points, times, series, k,
                                            lib_times=lib, target_times=tgt
                                            ).shifted(shift)
            except DataError:
                reject()
            size = cross_map.lib_times.size
            around_width = [s for s in range(width - 2, width + 3) if k + 1 <= s <= size]
            draw_size = data.draw(st.one_of(
                st.none(), st.integers(k + 1, size),
                st.sampled_from(around_width or [size])))
            columns = None if draw_size is None else np.array(sorted(data.draw(
                st.sets(st.integers(0, size - 1), min_size=draw_size,
                        max_size=draw_size))))
            got = cross_map.neighbors(columns)
        want = dense_neighbors(cross_map, manifold, lib, tgt, columns)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[1].dtype == want[1].dtype

    @pytest.mark.parametrize("e_dim", [2, 10])
    def test_every_draw_size_matches_dense_nearest_rows(self, e_dim):
        # sizes from E+2 up to the whole library, across the table width,
        # on a series with about 30 distinct values
        values = np.round(logistic_series(160).values * 30) / 30
        series = TimeSeries("x", values)
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        cross_map = cross_estimates(manifold.points, times, series,
                                    e_dim + 1).shifted(1)
        size = cross_map.lib_times.size
        rng = np.random.default_rng(e_dim)
        for draw_size in range(e_dim + 2, size + 1):
            columns = np.sort(rng.choice(size, size=draw_size, replace=False))
            got = cross_map.neighbors(columns)
            want = dense_neighbors(cross_map, manifold, times, times, columns)
            assert got[0].tolist() == want[0].tolist(), draw_size
            assert got[1].tolist() == want[1].tolist(), draw_size

    @pytest.mark.parametrize("split", [False, True])
    def test_a_view_shifted_again_is_the_build_shifted_once(self, split):
        x, y = gen_coupled_logistic(200)
        manifold = embed(y, EmbeddingParams(2))
        times = manifold.times
        lib = times[:120] if split else None
        build = cross_estimates(manifold.points, times, x, 3, lib_times=lib)
        once = build.shifted(-2)
        for view in (build.shifted(3).shifted(-2),
                     build.shifted(-30).shifted(5).shifted(-2)):
            assert view.lib_times.tolist() == once.lib_times.tolist()
            assert view.target_times.tolist() == once.target_times.tolist()
            assert view.skill() == once.skill()

    @pytest.mark.parametrize("layout", ["loo", "split", "outside"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_switch_to_the_screen_past_m_columns(self, layout, offset):
        # with W = 6 a library of n <= m = W + _SCREEN_SLACK columns takes
        # every column as a candidate, and a library of m + 1 is screened;
        # either way the neighbors are the oracle's, own time excluded,
        # whether a row walks its trusted entries or falls back to the points
        width, e_dim = 6, 1
        n, k = width + forecast._SCREEN_SLACK + offset, e_dim + 1
        values = np.round(logistic_series(2 * n + 30, x0=0.37).values * 64) / 64
        series = TimeSeries("x", values, origin_index=5)
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        lib, tgt = {"loo": (times[:n], times[:n]),
                    "split": (times[:n], times[n:n + 20]),
                    "outside": (times[:2 * n:2], times[:2 * n + 4])}[layout]
        with mock.patch.object(forecast, "_TABLE_WIDTH", width), \
                mock.patch.object(forecast, "_screen_inputs",
                                  wraps=forecast._screen_inputs) as screen:
            cross_map = cross_estimates(manifold.points, times, series, k,
                                        lib_times=lib, target_times=tgt)
            assert screen.called == (n > width + forecast._SCREEN_SLACK)
            assert np.any((cross_map.table.near < n).sum(axis=1) >= k + 2)
            drawn = np.sort(np.random.default_rng(n).choice(n, k + 2, replace=False))
            for columns in (None, drawn):
                neighbor_times, neighbor_dist = cross_map.neighbors(columns)
                member = lib if columns is None else lib[columns]
                for row, t in enumerate(tgt):
                    ns = knn(manifold, manifold.points[t - times[0]], k,
                             excluded_times=set(times) - set(member) | {int(t)})
                    assert neighbor_times[row].tolist() == times[ns.indices].tolist()
                    assert neighbor_dist[row].tobytes() == ns.distances.tobytes()

    @pytest.mark.parametrize("which", ["lib_times", "target_times"])
    def test_repeated_times_are_rejected(self, which):
        series = logistic_series(40)
        manifold = embed(series, EmbeddingParams(2))
        times = manifold.times
        what = {"lib_times": "library", "target_times": "target"}[which]
        with pytest.raises(DataError, match=f"^{what} times must not repeat: "
                                            f"time 7 appears more than once$"):
            cross_estimates(manifold.points, times, series, 3,
                            **{which: np.r_[times[:20], 7]})

    def test_row_short_of_finite_distances_raises(self):
        # distances between 0 and 1e300 overflow to +inf, so target 0 has
        # one finite candidate; the table must not trust its +inf entries
        series = TimeSeries("x", [0.0, 1e300, 0.0, 1e300, 1e300, 1e300, 1e300])
        manifold = embed(series, EmbeddingParams(1))
        cross_map = cross_estimates(manifold.points, manifold.times, series,
                                    2).shifted(0)
        with pytest.raises(DataError, match="^need 2 neighbors but only 1 usable "
                                            "candidates for the target at time 0$"):
            cross_map.neighbors()

    def test_the_failing_target_is_named_by_its_time(self):
        # targets 0-2 find their 3 neighbors among the zeros; target 3 is
        # the first short row of the fallback, and only the other 1e300
        # lies at a finite distance from it
        series = TimeSeries("x", [0, 0, 0, 1e300, 1e300, -1e300, 0, 0])
        manifold = embed(series, EmbeddingParams(1))
        cross_map = cross_estimates(manifold.points, manifold.times, series,
                                    3).shifted(0)
        with pytest.raises(DataError, match="^need 3 neighbors but only 1 usable "
                                            "candidates for the target at time 3$"):
            cross_map.neighbors()


def outcome(call):
    """What ``call`` returns, or the text of the crossmap error it raises."""
    try:
        return call()
    except CrossmapError as err:
        return f"{type(err).__name__}: {err}"


def neighbors_outcome(cross_map):
    """A view's whole-library neighbor times and distance bytes, or its error."""
    got = outcome(cross_map.neighbors)
    return got if isinstance(got, str) else (got[0].tolist(), got[1].tobytes())


class TestViewWidth:
    """A build read only through whole-library views keeps k + _VIEW_SLACK
    columns; its views give exactly what the views of a full-width build
    and the dense matrix give."""

    def views(self, manifold, series, shift, lib, tgt):
        k = manifold.e_dim + 1
        builds = [cross_estimates(manifold.points, manifold.times, series, k,
                                  lib_times=lib, target_times=tgt, width=width)
                  for width in (k + forecast._VIEW_SLACK, forecast._TABLE_WIDTH)]
        assert builds[0].table.near.shape[1] == min(k + forecast._VIEW_SLACK, lib.size)
        return [build.shifted(shift) for build in builds]

    def assert_narrow_is_wide_and_dense(self, manifold, narrow, wide, lib, tgt):
        got = neighbors_outcome(narrow)
        assert got == neighbors_outcome(wide)
        assert outcome(narrow.skill) == outcome(wide.skill)
        if isinstance(got, str):
            with pytest.raises(DataError):
                dense_neighbors(narrow, manifold, lib, tgt, None)
        else:
            want = dense_neighbors(narrow, manifold, lib, tgt, None)
            assert got == (want[0].tolist(), want[1].tobytes())

    @settings(max_examples=150, deadline=None, database=None)
    @given(series=st.one_of(long_tie_heavy_series(), screened_series()),
           e_dim=st.integers(1, 6), shift=st.integers(-8, 8), tp=st.integers(0, 2),
           split=st.booleans(), data=st.data())
    def test_a_narrow_build_views_like_a_wide_one(self, series, e_dim, shift, tp,
                                                  split, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        if times.size < e_dim + 3:
            reject()
        cut = data.draw(st.integers(1, times.size - 1)) if split else times.size
        lib, tgt = times[:cut], (times[cut:] if split else times)
        try:
            narrow, wide = self.views(manifold, series, shift, lib, tgt)
        except DataError:
            reject()
        self.assert_narrow_is_wide_and_dense(manifold, narrow, wide, lib, tgt)
        if not split:
            # loo_skill builds narrow; its skill is the wide build's at tp
            assert outcome(lambda: loo_skill(series, EmbeddingParams(e_dim, tp=tp))) \
                == outcome(lambda: wide.shifted(tp).skill())

    @pytest.mark.parametrize("shift", [2, 5, 8])
    @pytest.mark.parametrize("values", ["line", "two_decimals"])
    def test_rows_the_view_leaves_short_fall_back_to_the_points(self, values, shift):
        # on a line the last usable target's nearest columns follow it, and
        # the shift drops them from the view's library; on a 2-decimal
        # logistic series many rows tie at the narrow table's last distance
        series = TimeSeries("x", np.arange(120.0) if values == "line"
                            else np.round(logistic_series(300).values, 2))
        manifold = embed(series, EmbeddingParams(1 if values == "line" else 2))
        times = manifold.times
        narrow, wide = self.views(manifold, series, shift, times, times)
        with mock.patch.object(forecast, "nearest_rows",
                               wraps=nearest_rows) as fallback:
            narrow.neighbors()
        assert fallback.called
        self.assert_narrow_is_wide_and_dense(manifold, narrow, wide, times, times)
