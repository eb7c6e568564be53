import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from crossmap import (DataError, EmbeddingParams, TimeSeries, embed, knn,
                      loo_skill, select_embedding_dimension, simplex_forecast,
                      simplex_weights, train_test_skill)
from crossmap.embedding import nearest_rows
from crossmap.forecast import cross_estimates


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


class TestCrossMapEngine:
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
        idx, _ = nearest_rows(cross_map.dist[:, columns], k)
        targets = tgt[(tgt + shift >= series.origin_index)
                      & (tgt + shift <= series.end_index)]
        undrawn = set(times.tolist()) - set(drawn.tolist())
        for row, t in enumerate(targets):
            ns = knn(manifold, manifold.points[t - times[0]], k,
                     excluded_times=undrawn | {int(t)})
            assert drawn[idx[row]].tolist() == times[ns.indices].tolist()
