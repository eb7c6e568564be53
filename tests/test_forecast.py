from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from crossmap import (CcmConfig, CrossmapError, DataError, EmbeddingParams,
                      NumericalError, TimeSeries, ccm_curve, embed, knn, loo_skill,
                      select_embedding_dimension, simplex_forecast, simplex_weights,
                      train_test_skill)
from crossmap import forecast
from crossmap.embedding import ShadowManifold, nearest_rows
from crossmap.core import skill_stats
from crossmap.forecast import (_pairwise_distances, cross_estimates,
                               estimates_from_distances)
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

    def test_rejects_more_than_one_list(self):
        with pytest.raises(DataError, match="one list"):
            simplex_weights([[1.0, 2.0], [1.0, 3.0]])

    @pytest.mark.parametrize("distances", [[np.nan, 1.0], [np.inf, np.inf],
                                           [0.5, np.nan]])
    def test_rejects_non_finite(self, distances):
        with pytest.raises(DataError,
                           match="^distances must be finite and non-negative$"):
            simplex_weights(distances)

    def test_neighbor_times_carried(self):
        sw = simplex_weights([1.0, 2.0], neighbor_times=[5, 9])
        assert sw.neighbor_times.tolist() == [5, 9]
        with pytest.raises(DataError):
            simplex_weights([1.0, 2.0], neighbor_times=[5])


def row_major_weights(dist):
    """The simplex weights computed along each row of ``dist``: the
    reference that :func:`forecast.weight_rows`' plane layout must match
    bit for bit."""
    d1 = dist[:, :1]
    zero_rows = d1[:, 0] == 0.0
    with np.errstate(over="ignore"):
        w = np.exp(-dist / np.where(d1 > 0, d1, 1.0))
    if np.any(zero_rows):
        w[zero_rows] = dist[zero_rows] == 0.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def distance_rows(draw):
    """A (rows, k) array of sorted non-negative distances, k = 1-12 or 64,
    mixing zeros, tied quarter values, subnormals (whose quotients
    overflow), ordinary values and values large enough that exp(-d/d1)
    underflows to zero, in C or Fortran order."""
    k = draw(st.sampled_from([*range(1, 13), 64]))
    rows = draw(st.integers(1, 6))
    value = st.one_of(st.just(0.0),
                      st.integers(0, 8).map(lambda v: v / 4),
                      st.floats(5e-324, TINY),
                      st.floats(0.0, 10.0),
                      st.floats(1e3, 1e300))
    dist = np.sort(np.array(draw(st.lists(value, min_size=rows * k,
                                          max_size=rows * k))).reshape(rows, k))
    return np.asfortranarray(dist) if draw(st.booleans()) else dist


@settings(max_examples=400, deadline=None, database=None)
@given(dist=distance_rows())
@example(np.array([[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0]])).via(
    "rows with d1 = 0 and several zeros")
@example(np.array([[5e-324, 1.0, 1.0], [0.5, 0.5, 0.5]])).via(
    "a quotient that overflows; tied rows")
@example(np.array([[1.0] * 3 + [800.0] * 3 + [1e300] * 4])).via(
    "exp underflows to 0 at k = 10")
def test_plane_weights_are_the_row_major_weights_bit_for_bit(dist):
    # the planes add in the order sum(axis=1) adds a row: one after
    # another below k = 8, and sum itself from k = 8 on. The reference
    # reads a C-ordered copy, as the readers' tables are: over a Fortran-
    # ordered input, sum and einsum add in another order, and the planes
    # do not depend on the input's order
    before = dist.copy()
    got = forecast.weight_rows(dist)
    assert got.flags.c_contiguous and got.shape == dist.shape
    assert dist.tobytes() == before.tobytes()
    dist = np.ascontiguousarray(dist)
    reference = row_major_weights(dist)
    assert got.tobytes() == reference.tobytes()
    rng = np.random.default_rng(dist.size)
    series = TimeSeries("y", rng.uniform(-1e3, 1e3, size=20), origin_index=5)
    times = rng.integers(5, 25, size=dist.shape)
    (est,) = estimates_from_distances(dist, times, [series])
    expected = np.einsum("mk,mk->m", reference, series.values[times - 5])
    assert est.tobytes() == expected.tobytes()


def knn_forecast(library, target_point, future, tp=1, target_time=None):
    """``simplex_forecast`` by the reference route: the brute-force
    :func:`knn` scan and :func:`simplex_weights`."""
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


@pytest.mark.parametrize("make, name", [
    (lambda lib, s: simplex_weights([0.1, 0.2], neighbor_times=[1.5, 2.7]),
     "neighbor_times"),
    (lambda lib, s: simplex_forecast(lib, lib.points[5], s, tp=1.5), "tp"),
    (lambda lib, s: simplex_forecast(lib, lib.points[5], s, tp=1.0), "tp"),
    (lambda lib, s: simplex_forecast(lib, lib.points[5], s, target_time=3.5),
     "target_time"),
], ids=["neighbor-times", "tp-1.5", "tp-1.0", "target-time-3.5"])
def test_non_integer_times_are_rejected(make, name):
    # int() would truncate the times; a float tp would fail an index, and
    # target_time 3.5 would exclude nothing
    series = logistic_series(40)
    with pytest.raises(DataError, match=f"^{name} must hold integers, got "):
        make(embed(series, EmbeddingParams(2)), series)


class TestSimplexForecast:
    def test_the_module_no_longer_binds_knn(self):
        assert not hasattr(forecast, "knn")

    def test_matches_the_knn_oracle(self):
        # random series, some rounded to one decimal (tie-heavy), shifted
        # origins, forward and backward tp, leave-one-out and free queries
        rng = np.random.default_rng(2012)
        n_raised = 0
        for case in range(600):
            n, e_dim = int(rng.integers(5, 301)), int(rng.integers(1, 6))
            values = rng.normal(size=n)
            if case % 3 == 0:
                values = np.round(values, 1)
            series = TimeSeries("s", values, origin_index=int(rng.integers(-5, 6)))
            library = embed(series, EmbeddingParams(e_dim))
            tp = int(rng.integers(-3, 4))
            if rng.random() < 0.5:
                row = int(rng.integers(library.n_points))
                query, target_time = library.points[row], int(library.times[row])
            else:
                query, target_time = np.round(rng.normal(size=e_dim), 1), None
            got, want = (outcome(lambda: route(library, query, series, tp=tp,
                                               target_time=target_time))
                         for route in (simplex_forecast, knn_forecast))
            if isinstance(want, str):
                n_raised += 1
                assert got == want, case
            else:
                assert abs(got - want) <= 1e-12, case
        assert n_raised > 0

    @pytest.mark.parametrize("query", [[np.nan, 0.1], [np.inf, 0.1], [1e200, 1e200],
                                       [0.1]])
    def test_a_query_without_a_forecast_raises(self, query):
        series = logistic_series(40)
        lib = embed(series, EmbeddingParams(2))
        with pytest.raises(DataError, match="^fewer than E\\+1=3 usable neighbors: ") \
                as err:
            simplex_forecast(lib, query, series, tp=1)
        # the query's stand-in time in the engine is no time of the caller's
        assert "time" not in str(err.value)

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
        # both routes select on one neighbor table and weigh by one kernel
        assert loo_skill(series, params) == skill_stats(obs, est)

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
        # a (D, 1, L, E) stack of draws' points, which every row meets
        draws = np.sort(np.random.default_rng(seed).integers(0, n, size=(3, 7)), axis=1)
        stacked = _pairwise_distances(points, points[draws][:, None])
        assert stacked.shape == (3, n, 7)
        assert stacked.tobytes() == np.stack([whole[:, d] for d in draws]).tobytes()


@pytest.mark.parametrize("e_dim", [2, 10])
def test_overflowing_difference_is_an_infinite_distance(e_dim):
    points = np.repeat([[1e308], [-1e308], [0.5]], e_dim, axis=1)
    dist = _pairwise_distances(points, points)
    assert dist.tolist() == [[0.0, np.inf, np.inf],
                             [np.inf, 0.0, np.inf],
                             [np.inf, np.inf, 0.0]]


TINY = np.finfo(float).tiny


@st.composite
def small_e_points(draw):
    """(n, E) points at E = 1 or 2 whose coordinates are 2-decimal values
    (distances tie), values of either sign near 1e154-1e200 (squares and
    differences overflow), subnormals or signed zeros."""
    e_dim, n = draw(st.integers(1, 2)), draw(st.integers(1, 12))
    value = st.one_of(st.integers(-300, 300).map(lambda v: v / 100),
                      st.floats(1e154, 1e200) | st.floats(-1e200, -1e154),
                      st.floats(-TINY, TINY),
                      st.sampled_from([0.0, -0.0]))
    return np.array(draw(st.lists(value, min_size=n * e_dim,
                                  max_size=n * e_dim))).reshape(n, e_dim)


def einsum_distances(queries, cols):
    """The broadcast-plus-einsum formula on (n, E) or gathered (rows, m, E)
    points, as for E >= 5."""
    with np.errstate(over="ignore"):
        diff = queries[:, None, :] - cols
        out = np.einsum("mne,mne->mn", diff, diff)
        return np.sqrt(out, out=out)


@settings(max_examples=300, deadline=None, database=None)
@given(points=small_e_points(), data=st.data())
def test_small_e_kernel_is_the_einsum_formula_bit_for_bit(points, data):
    # at E <= 2 the kernel adds its squares in place instead of calling
    # einsum; the bits agree unless einsum contracts into a fused
    # multiply-add. Overflow gives +inf and no warning, which the test
    # settings would turn into an error
    n, e_dim = points.shape
    whole = _pairwise_distances(points, points)
    assert whole.tobytes() == einsum_distances(points, points).tobytes()
    manifold = ShadowManifold(points, np.arange(n), EmbeddingParams(e_dim), "x")
    for i in range(n):
        finite = np.flatnonzero(np.isfinite(whole[i]))
        ns = knn(manifold, points[i], finite.size)
        assert sorted(ns.indices.tolist()) == finite.tolist()
        assert whole[i, ns.indices].tobytes() == ns.distances.tobytes()
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n * 3,
                                       max_size=n * 3))).reshape(n, 3)
    gathered = np.take(points, cols, axis=0)
    got = _pairwise_distances(points, gathered)
    assert got.tobytes() == einsum_distances(points, gathered).tobytes()
    assert got.tobytes() == np.take_along_axis(whole, cols, axis=1).tobytes()


def dense_distances(cross_map, manifold, lib, tgt):
    """The whole target x library matrix, own times at +inf, sliced to the
    map's view."""
    times = manifold.times
    dist = _pairwise_distances(manifold.points[tgt - times[0]],
                               manifold.points[lib - times[0]])
    own = np.flatnonzero(np.isin(tgt, lib))
    dist[own, np.searchsorted(lib, tgt[own])] = np.inf
    return dist[cross_map.rows, cross_map.cols]


def dense_neighbors(cross_map, manifold, lib, tgt, columns):
    """The map's neighbor times and distances from the whole target x
    library matrix, sliced to its view and columns, by :func:`nearest_rows`."""
    dist = dense_distances(cross_map, manifold, lib, tgt)
    lib_times = cross_map.lib_times
    if columns is not None:
        dist, lib_times = dist[:, columns], lib_times[columns]
    idx, nd = nearest_rows(dist, cross_map.k)
    return lib_times[idx], nd


def draw_neighbors(cross_map, columns=None):
    """The map's neighbor times and distances for one draw of ``columns``
    (ascending positions; None is the draw of every library column): the
    neighbors of a group of one."""
    if columns is None:
        columns = np.arange(cross_map.lib_times.size)
    times, dist = cross_map.neighbors(columns[None])
    assert times.shape[0] == dist.shape[0] == 1
    return times[0], dist[0]


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
    (distance, column) order, with the same distances; a library of at
    most W + _SCREEN_SLACK columns is not screened, so there every finite
    entry is trusted."""
    n = table.lib_times.size
    dist = _pairwise_distances(table.target_points, table.lib_points)
    dist[table.lib_times == table.target_times[:, None]] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=1)
    w = min(width, n)
    trusted = table.near < n
    n_trusted = trusted.sum(axis=1)
    if n <= w + forecast._SCREEN_SLACK:
        assert np.array_equal(trusted, np.isfinite(dist[:, :w]))
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
                lib_times=lib, target_times=tgt, draws=True).table, width)

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
                    manifold.points, manifold.times, series, e_dim + 1,
                    draws=True).table, 5)

    @pytest.mark.parametrize("e_dim", [1, 2, 10])
    def test_a_certificate_of_zero_trusts_nothing(self, e_dim):
        # with the bound forced to 0 every row takes the exact fallback,
        # and the neighbors stay the dense ones
        rounding_bound = forecast._rounding_bound

        def no_certificate(tgt, lib):
            slack = rounding_bound(tgt, lib)
            return np.where(np.isfinite(slack), np.finfo(float).max, slack)

        series = logistic_series(300, x0=0.43)
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        with mock.patch.object(forecast, "_rounding_bound", no_certificate):
            cross_map = cross_estimates(manifold.points, times, series,
                                        e_dim + 1, draws=True).shifted(1)
        assert np.all(cross_map.table.near == times.size)
        columns = np.sort(np.random.default_rng(e_dim).choice(
            cross_map.lib_times.size, size=100, replace=False))
        for cols in (None, columns):
            got = draw_neighbors(cross_map, cols)
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
                                        lib_times=lib, target_times=tgt,
                                        draws=True).shifted(shift)
        except DataError:
            reject()
        lib_times = cross_map.lib_times
        columns = np.array(sorted(data.draw(st.sets(
            st.integers(0, lib_times.size - 1), min_size=k + 1))))
        drawn = lib_times[columns]
        neighbor_times, neighbor_dist = draw_neighbors(cross_map, columns)
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
                                            lib_times=lib, target_times=tgt,
                                            draws=True).shifted(shift)
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
            got = draw_neighbors(cross_map, columns)
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
                                    e_dim + 1, draws=True).shifted(1)
        size = cross_map.lib_times.size
        rng = np.random.default_rng(e_dim)
        for draw_size in range(e_dim + 2, size + 1):
            columns = np.sort(rng.choice(size, size=draw_size, replace=False))
            got = draw_neighbors(cross_map, columns)
            want = dense_neighbors(cross_map, manifold, times, times, columns)
            assert got[0].tolist() == want[0].tolist(), draw_size
            assert got[1].tolist() == want[1].tolist(), draw_size

    @pytest.mark.parametrize("contiguous", [False, True])
    @pytest.mark.parametrize("shift", [0, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_draws_below_the_walk_boundary_take_the_points(self, offset, shift,
                                                           contiguous):
        # a draw of L of the table's n columns skips the walk exactly when
        # L W < k n; n is picked so that L W = k n + offset for a whole L.
        # Below the boundary every row of the view is computed from the
        # points, at and above it only the rows whose trusted entries hold
        # fewer than k of the draw's columns
        width, e_dim = 5, 2
        k = e_dim + 1
        n = next(n for n in range(60, 60 + width) if (k * n + offset) % width == 0)
        size = (k * n + offset) // width
        values = np.round(logistic_series(n + e_dim - 1, x0=0.37).values * 30) / 30
        series = TimeSeries("x", values, origin_index=2)
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        with mock.patch.object(forecast, "_TABLE_WIDTH", width):
            cross_map = cross_estimates(manifold.points, times, series, k,
                                        draws=True).shifted(shift)
        table = cross_map.table
        assert table.lib_times.size * k + offset == table.near.shape[1] * size
        usable = cross_map.lib_times.size
        rng = np.random.default_rng(n)
        if contiguous:
            start = int(rng.integers(0, usable - size + 1))
            columns = np.arange(start, start + size)
        else:
            columns = np.sort(rng.choice(usable, size=size, replace=False))
        got, calls = with_points_calls(lambda: draw_neighbors(cross_map, columns))
        want = dense_neighbors(cross_map, manifold, times, times, columns)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        member = np.zeros(n + 1, dtype=bool)
        member[cross_map.cols.start + columns] = True
        unsettled = member[table.near[cross_map.rows]].sum(axis=1) < k
        # the table could settle some rows, so the two sides differ
        assert 0 < unsettled.sum() < unsettled.size
        short = np.ones_like(unsettled) if offset < 0 else unsettled
        # the short rows, and only they, go to the points, in one call
        assert calls == [((cross_map.rows.start + np.flatnonzero(short)).tolist(),
                          [(cross_map.cols.start + columns).tolist()])]

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
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_rows_switch_to_the_screen_past_m_columns(self, layout, offset):
        # with W = 6 a library of n <= m = W + _SCREEN_SLACK columns takes
        # every column as a candidate, and a library of m + 1 is screened;
        # a build by state rows, W + 1 wide, switches one column later.
        # Either way the neighbors are the oracle's, own time excluded,
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
                                        lib_times=lib, target_times=tgt, draws=True)
            states = cross_map.table.states
            by_state = states is not None \
                and states[0].size * (width + 1) < tgt.size * width
            assert screen.called == (n > width + by_state + forecast._SCREEN_SLACK)
            assert np.any((cross_map.table.near < n).sum(axis=1) >= k + 2)
            drawn = np.sort(np.random.default_rng(n).choice(n, k + 2, replace=False))
            for columns in (None, drawn):
                neighbor_times, neighbor_dist = draw_neighbors(cross_map, columns)
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
        for read in (lambda: draw_neighbors(cross_map), cross_map.skill):
            with pytest.raises(DataError, match="^need 2 neighbors but only 1 usable "
                                                "candidates for the target at time 0$"):
                read()

    def test_the_failing_target_is_named_by_its_time(self):
        # targets 0-2 find their 3 neighbors among the zeros; target 3 is
        # the first short row of the fallback, and only the other 1e300
        # lies at a finite distance from it
        series = TimeSeries("x", [0, 0, 0, 1e300, 1e300, -1e300, 0, 0])
        manifold = embed(series, EmbeddingParams(1))
        cross_map = cross_estimates(manifold.points, manifold.times, series,
                                    3).shifted(0)
        for read in (lambda: draw_neighbors(cross_map), cross_map.skill):
            with pytest.raises(DataError, match="^need 3 neighbors but only 1 usable "
                                                "candidates for the target at time 3$"):
                read()


def whole_library_trust(table, dense, width):
    """Trusted entries per row under a screen of the whole library (one
    block), from the dense build's distances. Its (m+1)-th approximation
    a may round differently from a block's or a window's, by at most the
    rounding bound delta, so the bound taken is sqrt(max(a - 2 delta, 0)),
    which every screen that sees the whole library, or a window of it,
    reaches."""
    n, w = table.lib_times.size, min(width, table.lib_times.size)
    m = w + forecast._SCREEN_SLACK
    bound = np.full(table.target_times.size, np.inf)
    if n > m:
        tgt, lib = forecast._screen_inputs(table.target_points, table.lib_points)
        slack = forecast._rounding_bound(tgt, lib)
        with np.errstate(all="ignore"):
            cut = np.partition(tgt @ lib, m, axis=1)[:, m]
            screened = np.isfinite(slack)
            bound[screened] = np.sqrt(np.maximum(cut - 2 * slack, 0.0))[screened]
    return (dense.near_dist < bound[:, None]).sum(axis=1)


def assert_windowed_table(table, dense, width):
    """The windowed table's trusted entries are a prefix of the dense
    build's, with the same distances, and no shorter than a screen of the
    whole library trusts."""
    n = table.lib_times.size
    n_trusted = (table.near < n).sum(axis=1)
    assert np.array_equal(table.near < n, np.arange(table.near.shape[1]) < n_trusted[:, None])
    assert np.all(n_trusted <= (dense.near < n).sum(axis=1))
    for row, t in enumerate(n_trusted):
        assert table.near[row, :t].tolist() == dense.near[row, :t].tolist()
        assert table.near_dist[row, :t].tobytes() == dense.near_dist[row, :t].tobytes()
    assert np.all(n_trusted >= whole_library_trust(table, dense, width))


def windowed_and_dense(build):
    """``build()`` with the screen's windows recorded as (rows, columns,
    radii) per screen, and again with every column a candidate."""
    screens = []
    candidates = forecast._candidates

    def recording(tgt, lib, cols, m, buf):
        cand, low, radii = candidates(tgt, lib, cols, m, buf)
        screens.append((tgt.shape[0], lib.shape[1], radii.copy()))
        return cand, low, radii

    with mock.patch.object(forecast, "_candidates", recording):
        table = build()
    with mock.patch.object(forecast, "_SCREEN_SLACK", 10 ** 9):
        dense = build()
    return table, dense, screens


class TestWindowedScreen:
    """Each row block screens only the library columns within its window
    of first coordinates; columns beyond it are certified by the edge."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(series=st.one_of(long_tie_heavy_series(), screened_series()),
           e_dim=st.integers(1, 6), layout=st.sampled_from(["loo", "split", "outside"]),
           narrow=st.booleans(), cells=st.sampled_from([1, 2 ** 10, 2 ** 12]),
           data=st.data())
    def test_trusted_entries_are_a_dense_prefix_no_shorter_than_unwindowed(
            self, series, e_dim, layout, narrow, cells, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        if times.size < 4:
            reject()
        cut = data.draw(st.integers(1, times.size - 1))
        lib, tgt = {"loo": (times, times), "split": (times[:cut], times[cut:]),
                    "outside": (times[::2], times)}[layout]
        width = e_dim + 1 + forecast._VIEW_SLACK if narrow else forecast._TABLE_WIDTH
        with mock.patch.object(forecast, "_BLOCK_CELLS", cells):
            table, dense, _ = windowed_and_dense(lambda: cross_estimates(
                manifold.points, times, series, e_dim + 1, lib_times=lib,
                target_times=tgt, draws=not narrow).table)
        assert_windowed_table(table, dense, width)

    def build_rows_one_by_one(self, lib_points, target_points, width=4):
        lib_times = np.arange(len(lib_points))
        target_times = 1000 + np.arange(len(target_points))
        with mock.patch.object(forecast, "_BLOCK_CELLS", 1):
            table, dense, screens = windowed_and_dense(lambda: forecast._NeighborTable.build(
                lib_times, target_times, np.asarray(target_points, dtype=float),
                np.asarray(lib_points, dtype=float), width))
        assert_windowed_table(table, dense, width)
        return table, screens

    def test_a_window_of_one_column_takes_the_whole_library(self):
        # a library on the line 0..99 (E=1); the target at 49.5 holds its
        # m + 1 = 14 nearest columns within about 6.5, so the target at 105
        # is given the window [98.5, 111.5]: column 99 alone
        line = np.arange(100.0)[:, None]
        table, screens = self.build_rows_one_by_one(line, [[49.5], [105.0]])
        (_, first, radii), (_, second, _) = screens
        assert first == second == 100
        assert np.sum(np.abs(line[:, 0] - 105.0) <= radii.max()) == 1
        assert table.near[1, :3].tolist() == [99, 98, 97]

    def test_a_constant_first_coordinate_puts_every_column_in_the_window(self):
        rng = np.random.default_rng(7)
        points = np.column_stack([np.full(120, 0.5), np.round(rng.random(120), 2)])
        times = np.arange(120)
        with mock.patch.object(forecast, "_BLOCK_CELLS", 2 ** 10):
            table, dense, screens = windowed_and_dense(
                lambda: forecast._NeighborTable.build(times, times, points, points, 5))
        assert_windowed_table(table, dense, 5)
        # the 120 targets hold few enough distinct states to be built by
        # state: 4 state rows per block, each screened once over all 120
        # columns
        n_states = table.states[0].size
        assert n_states * 6 < 120 * 5
        assert [(rows, cols) for rows, cols, _ in screens] \
            == [(min(4, n_states - lo), 120) for lo in range(0, n_states, 4)]

    # 30 columns at x0 = 5, one at (1, 10) and 29 far to the left; the
    # target (5, 0.15) keeps the next window at x0 = 5, where the target
    # (5, 10) finds only columns 10 away, but (1, 10), 4 away, lies just
    # past the window's edge
    EDGE_CUT_LIBRARY = np.vstack([
        np.column_stack([np.full(30, 5.0), np.arange(30) / 100]), [[1.0, 10.0]],
        np.column_stack([-100.0 - np.arange(29), np.zeros(29)])])

    def test_a_row_whose_table_the_edge_cuts_takes_every_column(self):
        lib = self.EDGE_CUT_LIBRARY
        table, screens = self.build_rows_one_by_one(lib, [[5.0, 0.15], [5.0, 10.0]])
        assert [(rows, cols) for rows, cols, _ in screens] == [(1, 60), (1, 30)]
        # no screen bound limits the row: every finite entry is trusted
        assert np.isfinite(table.near_dist[1]).all() and np.all(table.near[1] < len(lib))
        assert table.near[1, 0] == 30 and table.near_dist[1, 0] == 4.0

    def test_rows_the_screen_cannot_certify_share_the_pass_over_every_column(self):
        # beside the edge-cut row, a target whose rounding bound overflows
        # (|q|^2 about 1e308 > max/4) while its distances stay finite: the
        # two go through the one pass over every column, row by row, after
        # the windows, and equal the dense build byte for byte
        lib = self.EDGE_CUT_LIBRARY
        targets = np.array([[5.0, 0.15], [5.0, 10.0], [1e154, 0.0]])
        passes, pairwise = [], forecast._pairwise_distances

        def recording(queries, points):
            if points.ndim == 2:
                passes.append(queries.tolist())
            return pairwise(queries, points)

        def build():
            return forecast._NeighborTable.build(np.arange(len(lib)), 1000 + np.arange(3),
                                                 targets, lib, 4)

        with mock.patch.object(forecast, "_BLOCK_CELLS", 1):
            with mock.patch.object(forecast, "_pairwise_distances", recording):
                table = build()
            with mock.patch.object(forecast, "_SCREEN_SLACK", 10 ** 9):
                dense = build()
        assert passes == [targets[1:2].tolist(), targets[2:].tolist()]
        assert_windowed_table(table, dense, 4)
        assert np.isfinite(table.near_dist[2]).all()
        assert table.near[1:].tolist() == dense.near[1:].tolist()
        assert table.near_dist[1:].tobytes() == dense.near_dist[1:].tobytes()

    def test_a_far_outlier_loosens_only_the_windows_that_hold_it(self):
        # with R_i taken over the whole library, 997 of 999 rows trusted
        # fewer than k = 3 entries
        x, _ = gen_coupled_logistic(1000)
        values = x.values.copy()
        values[500] = 1e6
        series = TimeSeries("x", values)
        manifold = embed(series, EmbeddingParams(2))
        times = manifold.times
        with mock.patch.object(forecast, "_TABLE_WIDTH", 5):
            cross_map = cross_estimates(manifold.points, times, series, 3, draws=True)
        assert ((cross_map.table.near < times.size).sum(axis=1) < 3).sum() <= 250
        view = cross_map.shifted(1)
        got = draw_neighbors(view)
        want = dense_neighbors(view, manifold, times, times, None)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(series=st.one_of(long_tie_heavy_series(), screened_series()),
           e_dim=st.integers(1, 6), layout=st.sampled_from(["loo", "split", "outside"]),
           narrow=st.booleans(), data=st.data())
    def test_the_exact_pass_blocking_changes_no_byte(self, series, e_dim, layout,
                                                     narrow, data):
        # the exact pass as shipped, one row a block, and one block of every
        # screened row give the same table
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        if times.size < 4:
            reject()
        cut = data.draw(st.integers(1, times.size - 1))
        lib, tgt = {"loo": (times, times), "split": (times[:cut], times[cut:]),
                    "outside": (times[::2], times)}[layout]

        def build():
            return cross_estimates(manifold.points, times, series, e_dim + 1,
                                   lib_times=lib, target_times=tgt,
                                   draws=not narrow).table

        tables = [build()]
        for blocks in (lambda n_rows, m, e: [slice(i, i + 1) for i in range(n_rows)],
                       lambda n_rows, m, e: [slice(0, n_rows)]):
            with mock.patch.object(forecast, "_exact_blocks", blocks):
                tables.append(build())
        for table in tables[1:]:
            assert table.near.tobytes() == tables[0].near.tobytes()
            assert table.near_dist.tobytes() == tables[0].near_dist.tobytes()

    def test_the_exact_pass_runs_once_after_every_window(self):
        # 2000 rows at E = 2 and W = k + 1: 32 rows a screen block, so 63
        # windows, but the exact pass over their 13 candidates a row runs in
        # 2 blocks; every row is certified, so nothing takes every column
        x, _ = gen_coupled_logistic(2001)
        manifold = embed(x, EmbeddingParams(2))
        times = manifold.times
        assert times.size == 2000
        with mock.patch.object(forecast, "_candidates",
                               wraps=forecast._candidates) as screen, \
                mock.patch.object(forecast, "_pairwise_distances",
                                  wraps=forecast._pairwise_distances) as pairwise:
            forecast._NeighborTable.build(times, times, manifold.points,
                                          manifold.points, 4)
        assert screen.call_count == 63
        # gathered (rows, m, E) columns only: no call over every column
        assert [c.args[1].shape[1:] for c in pairwise.call_args_list] == [(13, 2)] * 2


def per_target_table(lib_times, target_times, target_points, lib_points, width):
    """The table as each target's own row builds it, own column at +inf
    and no state shared: the reference for the state rows."""
    n = lib_times.size
    own = np.where(np.isin(target_times, lib_times),
                   np.searchsorted(lib_times, target_times), n)
    near, near_dist, bound = forecast._NeighborTable._table_rows(
        target_points, np.argsort(target_points[:, 0], kind="stable"), own,
        lib_points, min(width, n))
    near[near_dist >= bound[:, None]] = n
    return near, near_dist


class TestStateRows:
    """A build whose targets hold few distinct states screens and runs the
    exact pass once per state, W + 1 columns wide, and gives each target
    its state's row without its own column."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(e_dim=st.integers(1, 3), levels=st.integers(1, 4), n=st.integers(4, 220),
           width=st.sampled_from([1, 3, 5, 64, 65, 72]),
           crowd=st.integers(0, 80), far=st.sampled_from([None, 1e154, 1e300]),
           layout=st.sampled_from(["loo", "split", "outside", "subset"]),
           windowed=st.booleans(), data=st.data())
    def test_state_rows_trust_a_dense_prefix_no_shorter_than_per_target_rows(
            self, e_dim, levels, n, width, crowd, far, layout, windowed, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # points on a coarse grid, one state with up to 80 copies (more than
        # W + 1 at every width), and a few far states whose rounding bound
        # is +inf (1e154) or whose distances overflow (1e300)
        points = rng.integers(0, levels, size=(n, e_dim)) * 0.1
        copies = np.sort(rng.choice(n, size=min(n, crowd), replace=False))
        points[copies] = points[rng.integers(0, n)]
        if far is not None:
            points[rng.random(n) < 0.05] = far
        times = 10 + np.arange(n)
        cut = data.draw(st.integers(1, n - 1))
        lib, tgt = {"loo": (times, times), "split": (times[:cut], times[cut:]),
                    "outside": (times[::2], times),
                    "subset": (np.sort(rng.choice(times, size=cut, replace=False)),
                               times)}[layout]
        args = (lib, tgt, points[tgt - 10], points[lib - 10], width)
        # 3 to 9 rows a screen block, each over its window, or (at the
        # default, for n <= 220) one block over the whole library
        cells = 2 ** 11 if windowed else forecast._BLOCK_CELLS
        with mock.patch.object(forecast, "_BLOCK_CELLS", cells):
            table, dense, _ = windowed_and_dense(
                lambda: forecast._NeighborTable.build(*args))
            ref_near, ref_dist = per_target_table(*args)
        w, n_lib = min(width, lib.size), lib.size
        assert table.near.shape == ref_near.shape == (tgt.size, w)
        assert_trusted_prefix(table, width)
        assert_windowed_table(table, dense, width)
        # the grouping is the exact one, and the rule chose the route
        n_states = np.unique(args[2], axis=0).shape[0]
        if table.states is None:
            assert n_states == tgt.size
        else:
            first, state = table.states
            assert first.size == n_states < tgt.size
            assert args[2][first][state].tobytes() == args[2].tobytes()
        if table.states is None or n_states * (w + 1) >= tgt.size * w:
            assert table.near.tobytes() == ref_near.tobytes()
            assert table.near_dist.tobytes() == ref_dist.tobytes()
        elif not windowed:
            # over the same window a state's bound comes from one more
            # candidate than a target's, so it trusts no less. Windows
            # differ between the routes: a block of states spans more x0
            # than a block of targets, and a wider window may certify less
            # than a narrow one that the edge does not cut
            n_trusted = (table.near < n_lib).sum(axis=1)
            assert np.all(n_trusted >= (ref_near < n_lib).sum(axis=1))

    @pytest.mark.parametrize("points, grouped, shared", [
        # continuous: no two targets share an x0, so nothing is grouped
        (np.random.default_rng(1).normal(size=(300, 2)), False, False),
        # a shared x0 but no shared state: grouped, and nothing shared
        (np.column_stack([np.repeat(np.arange(150.0), 2), np.arange(300.0)]),
         True, False),
        # 2-decimal values: 300 targets on at most 100 states
        (np.round(np.random.default_rng(2).random((300, 1)), 2), True, True)])
    def test_one_grouping_per_table_and_none_without_a_shared_x0(
            self, points, grouped, shared):
        times = np.arange(300)
        with mock.patch.object(forecast, "_group_states",
                               wraps=forecast._group_states) as group:
            table = forecast._NeighborTable.build(times, times, points, points, 64)
            # a draw small enough for the points, and one the walk reads
            for size in (20, 250):
                rng = np.random.default_rng(size)
                draws = np.sort([rng.choice(300, size, replace=False)
                                 for _ in range(2)], axis=1)
                table.nearest(slice(0, 300), draws, 3)
        assert group.call_count == grouped
        assert (table.states is not None) == shared


class TestOwnDropped:
    """:func:`forecast._own_dropped` gives each target the flat positions
    of its state's first w entries with its own column skipped, as a loop
    over the targets finds them, on state rows and on draws' picks alike."""

    @staticmethod
    def loop(picks, row, own):
        w = picks.shape[-1] - 1
        flat = picks.reshape(-1, w + 1)
        at = np.empty((*row.shape, w), dtype=np.intp)
        for i in np.ndindex(row.shape):
            kept = [p for p in range(w + 1) if flat[row[i], p] != own[i[-1]]]
            at[i] = (w + 1) * row[i] + np.array(kept[:w])
        return at

    @pytest.mark.parametrize("w", [1, 3, 64])
    @pytest.mark.parametrize("n_draws", [None, 1, 3])
    @pytest.mark.parametrize("scratch", [False, True])
    def test_the_positions_are_a_loop_over_the_targets(self, w, n_draws, scratch):
        rng = np.random.default_rng(w)
        n, n_states = 200, 4
        # each state's row holds distinct library columns; a later draw
        # rotates the first's rows, so a target's own column moves
        rows = np.array([rng.choice(n, w + 1, replace=False) for _ in range(n_states)])
        picks = rows if n_draws is None else np.stack(
            [np.roll(rows, d, axis=1) for d in range(n_draws)])
        # per state, a target whose own column is at each position 0..w of
        # its state's row, and one whose time the library lacks (column n)
        state = np.repeat(np.arange(n_states), w + 2)
        pos = np.tile(np.arange(w + 2), n_states)
        own = np.where(pos <= w, rows[state, np.minimum(pos, w)], n)
        row = state if n_draws is None else \
            np.arange(n_draws)[:, None] * n_states + state
        out = np.empty((*row.shape, w), dtype=picks.dtype) if scratch else None
        at = forecast._own_dropped(picks, row, own, out=out)
        assert at.shape == (*row.shape, w)
        assert at.tolist() == self.loop(picks, row, own).tolist()
        assert not np.any(np.take(picks, at) == own[:, None])


def outcome(call):
    """What ``call`` returns, or the text of the crossmap error it raises."""
    try:
        return call()
    except CrossmapError as err:
        return f"{type(err).__name__}: {err}"


def neighbors_outcome(cross_map):
    """A view's whole-library neighbor times and distance bytes, or its error."""
    got = outcome(lambda: draw_neighbors(cross_map))
    return got if isinstance(got, str) else (got[0].tolist(), got[1].tobytes())


class TestViewWidth:
    """A build read only through whole-library views keeps k + _VIEW_SLACK
    columns; its views give exactly what the views of a full-width build
    and the dense matrix give."""

    def views(self, manifold, series, shift, lib, tgt):
        k = manifold.e_dim + 1
        builds = [cross_estimates(manifold.points, manifold.times, series, k,
                                  lib_times=lib, target_times=tgt, draws=draws)
                  for draws in (False, True)]
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
    @pytest.mark.parametrize("values", ["sqrt", "two_decimals"])
    def test_rows_the_view_leaves_short_fall_back_to_the_points(self, values, shift):
        # on sqrt(t) the points crowd together as t grows, so the last
        # usable target's two nearest columns both follow it, and the shift
        # drops them from the view's library; on a 2-decimal logistic
        # series many rows tie at the narrow table's bound (at 300 values
        # the state rows' bound settles every row)
        series = TimeSeries("x", np.sqrt(np.arange(120.0)) if values == "sqrt"
                            else np.round(logistic_series(600).values, 2))
        manifold = embed(series, EmbeddingParams(1 if values == "sqrt" else 2))
        times = manifold.times
        narrow, wide = self.views(manifold, series, shift, times, times)
        with mock.patch.object(forecast, "nearest_rows",
                               wraps=nearest_rows) as fallback:
            draw_neighbors(narrow)
        assert fallback.called
        self.assert_narrow_is_wide_and_dense(manifold, narrow, wide, times, times)


def one_draw_skills(cross_map, causes, columns):
    """Each cause's skill with one draw, composed from the one-draw
    neighbors, :func:`estimates_from_distances` and :func:`skill_stats`."""
    times, dist = draw_neighbors(cross_map, columns)
    targets = cross_map.target_times + cross_map.shift
    return [skill_stats(c.values[targets - c.origin_index], est)
            for c, est in zip(causes, estimates_from_distances(
                dist, times + cross_map.shift, causes))]


def stats_bits(stats):
    return [(s.rho.hex(), s.mae.hex(), s.rmse.hex(), s.n_pairs, s.degenerate)
            for s in stats]


def scores_bits(scores, n_pairs):
    """:func:`stats_bits` of each draw's column of :meth:`_CrossMap.skills`'
    (series, draws) arrays."""
    return [[(r.hex(), a.hex(), e.hex(), n_pairs, g) for r, a, e, g in zip(*draw)]
            for draw in zip(*(part.T.tolist() for part in scores))]


class TestDrawGroups:
    """A group of draws is selected, weighted and scored together; each draw
    gets what it gets alone, and a failing group raises the error of its
    first failing draw."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(series=st.one_of(long_tie_heavy_series(), screened_series()),
           e_dim=st.integers(1, 6), shift=st.integers(-3, 3), split=st.booleans(),
           contiguous=st.booleans(), n_draws=st.integers(1, 6),
           width=st.sampled_from([5, forecast._TABLE_WIDTH]),
           cells=st.sampled_from([1, 97, 2 ** 10, forecast._BLOCK_CELLS]),
           data=st.data())
    def test_each_draw_of_a_group_is_scored_as_alone(
            self, series, e_dim, shift, split, contiguous, n_draws, width, cells, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        times, k = manifold.times, e_dim + 1
        if times.size < k + 2:
            reject()
        cut = data.draw(st.integers(1, times.size - 1)) if split else times.size
        lib, tgt = times[:cut], (times[cut:] if split else times)
        # the series itself and a second cause on its time axis
        causes = (series, TimeSeries("c", np.roll(series.values, 3) / 7,
                                     origin_index=series.origin_index))
        with mock.patch.object(forecast, "_TABLE_WIDTH", width), \
                mock.patch.object(forecast, "_BLOCK_CELLS", cells):
            try:
                cross_map = cross_estimates(manifold.points, times, series, k,
                                            lib_times=lib, target_times=tgt,
                                            draws=True).shifted(shift)
            except DataError:
                reject()
            usable, n = cross_map.lib_times.size, cross_map.table.lib_times.size
            # the smallest draw that walks the table, and its neighbours
            walk = -(-k * n // cross_map.table.near.shape[1])
            around = [s for s in (walk - 1, walk, walk + 1) if k + 1 <= s <= usable]
            size = data.draw(st.one_of(st.integers(k + 1, usable),
                                       st.sampled_from(around or [usable])))
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            starts = rng.integers(0, usable - size + 1, size=n_draws)
            draws = (starts[:, None] + np.arange(size) if contiguous else np.sort(
                [rng.choice(usable, size=size, replace=False) for _ in starts], axis=1))
            neighbors = outcome(lambda: cross_map.neighbors(draws))
            group = outcome(lambda: cross_map.skills(causes, draws))
            alone = [outcome(lambda: one_draw_skills(cross_map, causes, columns))
                     for columns in draws]
            selected = [outcome(lambda: draw_neighbors(cross_map, columns))
                        for columns in draws]
        failed = [a for a in alone if isinstance(a, str)]
        if failed:
            assert group == failed[0]
        else:
            assert scores_bits(group, cross_map.target_times.size) \
                == [stats_bits(a) for a in alone]
        failed = [a for a in selected if isinstance(a, str)]
        if failed:
            assert neighbors == failed[0]
            return
        for d, columns in enumerate(draws):
            want = dense_neighbors(cross_map, manifold, lib, tgt, columns)
            assert neighbors[0][d].tolist() == want[0].tolist()
            assert neighbors[1][d].tobytes() == want[1].tobytes()
            assert selected[d][1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("cells", [1, 2 ** 9, 2 ** 30])
    def test_draws_are_pulled_when_their_group_is_scored(self, cells):
        effect = TimeSeries("y", np.random.default_rng(7).random(60))
        manifold = embed(effect, EmbeddingParams(2))
        cross_map = cross_estimates(manifold.points, manifold.times, effect, 3,
                                    draws=True).shifted(0)
        rng, pulled, scored = np.random.default_rng(8), [], []

        def draws():
            for _ in range(7):
                pulled.append(None)
                yield np.sort(rng.choice(cross_map.lib_times.size, 20, replace=False))

        score = forecast._CrossMap._score

        def recording(self, series, group):
            scored.append((len(pulled), len(group)))
            return score(self, series, group)

        with mock.patch.object(forecast, "_BLOCK_CELLS", cells), \
                mock.patch.object(forecast._CrossMap, "_score", recording):
            got = cross_map.skills((effect,), draws())
        # a group is pulled only when it is scored: no draw of a later
        # group has been yielded yet
        size = max(1, cells // (cross_map.target_times.size * 3))
        assert [n for _, n in scored] == [min(size, 7 - first)
                                          for first in range(0, 7, size)]
        assert [p for p, _ in scored] == np.cumsum([n for _, n in scored]).tolist()
        assert all(part.shape == (1, 7) for part in got)

    # 60 points on one line (E = 1, k = 2), five of them at 1e300: those
    # targets have finite distances only to each other
    FAR = [10, 20, 30, 40, 50]

    def far_cross_map(self):
        values = np.random.default_rng(5).random(60)
        values[self.FAR] = 1e300
        effect = TimeSeries("y", values)
        manifold = embed(effect, EmbeddingParams(1))
        return cross_estimates(manifold.points, manifold.times, effect, 2,
                               draws=True).shifted(0)

    @pytest.mark.parametrize("order", ["skill_first", "selection_first"])
    def test_the_first_failing_draw_raises_its_first_error(self, order):
        # a draw holding every far point selects, and a 1e160 cause then
        # overflows its correlation; in a draw holding only the far point
        # at time 10, the target there has no finite candidate
        cross_map = self.far_cross_map()
        cause = TimeSeries("x", np.random.default_rng(6).random(60) * 1e160)
        rest = [c for c in range(60) if c not in self.FAR][:20]
        selects = np.sort(self.FAR + rest)
        short = np.sort(self.FAR[:1] + rest + [55, 56, 57, 58])
        draws = np.array([selects, short] if order == "skill_first"
                         else [short, selects])
        assert draws.shape == (2, 25)
        error, text = {"skill_first": (NumericalError, "correlation is not finite"),
                       "selection_first": (DataError, "need 2 neighbors but only 0 "
                                                      "usable candidates for the "
                                                      "target at time 10")}[order]
        with pytest.raises(error, match=text) as group:
            cross_map.skills((cause,), draws)
        with pytest.raises(error) as alone:
            one_draw_skills(cross_map, (cause,), draws[0])
        assert str(group.value) == str(alone.value)


def mask_walk(table, rows, draws, k):
    """:meth:`_NeighborTable.nearest` as k rounds over a boolean mask of
    each row's first 64 entries, each taking a row's first remaining member
    by ``argmax``: the reference the packed walk is compared with."""
    n_draws, size = draws.shape
    near, near_dist = table.near[rows], table.near_dist[rows]
    targets = np.arange(rows.start, rows.stop)
    if size * near.shape[1] < k * table.lib_times.size:
        cols, dist = table._from_points(targets, draws, k)
        return table.lib_times[cols], dist
    at = np.arange(targets.size)
    row_start = at[:, None] * near.shape[1]
    cols = np.empty((n_draws, targets.size, k), dtype=np.intp)
    dist = np.empty(cols.shape)
    for d, columns in enumerate(draws):
        member = np.zeros(table.lib_times.size + 1, dtype=bool)
        member[columns] = True
        ok = member[near[:, :64]]
        picked = np.empty((at.size, k), dtype=np.intp)
        for j in range(k - 1):
            picked[:, j] = ok.argmax(axis=1)
            ok[at, picked[:, j]] = False
        picked[:, -1] = ok.argmax(axis=1)
        cols[d] = np.take(near, picked + row_start)
        dist[d] = np.take(near_dist, picked + row_start)
        if (short := np.flatnonzero(~ok[at, picked[:, -1]])).size:
            short_cols, short_dist = table._from_points(targets[short], columns[None], k)
            cols[d, short], dist[d, short] = short_cols[0], short_dist[0]
    return table.lib_times[cols], dist


def with_points_calls(call):
    """What ``call`` returns (or its error's text) and the (targets,
    draws) of each of its calls to :meth:`_NeighborTable._from_points`."""
    calls, from_points = [], forecast._NeighborTable._from_points

    def recording(self, targets, draws, k):
        calls.append((targets.tolist(), draws.tolist()))
        return from_points(self, targets, draws, k)

    with mock.patch.object(forecast._NeighborTable, "_from_points", recording):
        return outcome(call), calls


class TestPackedWalk:
    """The walk on packed membership words picks what the mask walk picks
    and sends the same rows to the points, at every table width: one word
    holds a row's first 64 entries, and a row short of k members among
    them takes the points."""

    @pytest.mark.parametrize("width", [1, 2, 5, 8, 9, 63, 64, 65, 72])
    @settings(max_examples=50, deadline=None, database=None)
    @given(series=st.one_of(long_tie_heavy_series(), screened_series()),
           e_dim=st.integers(1, 4), shift=st.integers(-3, 3), split=st.booleans(),
           untrusted=st.booleans(), n_draws=st.integers(1, 4), data=st.data())
    def test_the_packed_walk_is_the_mask_walk(self, width, series, e_dim, shift,
                                              split, untrusted, n_draws, data):
        manifold = embed(series, EmbeddingParams(e_dim))
        times = manifold.times
        if times.size < e_dim + 3:
            reject()
        cut = data.draw(st.integers(1, times.size - 1)) if split else times.size
        lib, tgt = times[:cut], (times[cut:] if split else times)
        with mock.patch.object(forecast, "_TABLE_WIDTH", width):
            try:
                cross_map = cross_estimates(manifold.points, times, series, e_dim + 1,
                                            lib_times=lib, target_times=tgt,
                                            draws=True).shifted(shift)
            except DataError:
                reject()
        table, rng = cross_map.table, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n, w = table.lib_times.size, table.near.shape[1]
        if untrusted:
            # an untrusted suffix of random length in each row, as a lower
            # certified bound leaves it
            trusted = rng.integers(0, w + 1, size=(table.near.shape[0], 1))
            table = replace(table, near=np.where(np.arange(w) < trusted, table.near, n))
        # k is the walk's round count, not tied to the table's E: one round,
        # the map's E + 1, all of a row's W columns, or one more
        k = data.draw(st.sampled_from(sorted({1, e_dim + 1, w, w + 1})))
        usable, start = cross_map.lib_times.size, cross_map.cols.start
        if usable < k:
            reject()
        # the smallest draw that walks the table, or the whole library
        size = data.draw(st.integers(min(usable, max(k, -(-k * n // w))), usable))
        draws = []
        for _ in range(n_draws):
            columns = np.sort(rng.choice(usable, size=size, replace=False))
            # a row with exactly k (or k - 1) members: that many of its
            # trusted entries in the view, and columns outside its table
            row = rng.integers(0, cross_map.target_times.size)
            entries = table.near[cross_map.rows][row] - start
            entries = entries[(entries >= 0) & (entries < usable)]
            members = min(k - data.draw(st.integers(0, 1)), entries.size)
            others = np.setdiff1d(np.arange(usable), entries)
            if data.draw(st.booleans()) and others.size >= size - members:
                columns = np.sort(np.concatenate([
                    rng.choice(entries, size=members, replace=False),
                    rng.choice(others, size=size - members, replace=False)]))
            draws.append(columns)
        draws = np.array(draws)
        got, got_calls = with_points_calls(
            lambda: table.nearest(cross_map.rows, start + draws, k))
        want, want_calls = with_points_calls(
            lambda: mask_walk(table, cross_map.rows, start + draws, k))
        assert got_calls == want_calls
        if isinstance(want, str):
            assert got == want
            return
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        dense = dense_distances(cross_map, manifold, lib, tgt)
        for d, columns in enumerate(draws):
            idx, nd = nearest_rows(dense[:, columns], k)
            assert got[0][d].tolist() == cross_map.lib_times[columns][idx].tolist()
            assert got[1][d].tobytes() == nd.tobytes()

    @pytest.mark.parametrize("width", [63, 64, 65, 72, 130])
    def test_rows_settle_across_words(self, width):
        # continuous values: every row trusts all W entries, so a whole-
        # library draw settles every row from its word at k = min(W, 64),
        # and at k = W > 64 every row takes the points, with the same
        # numbers; without the last of row 0's entries in its word, row 0
        # settles one round earlier and takes the points at min(W, 64)
        series = TimeSeries("x", np.random.default_rng(width).normal(size=400))
        manifold = embed(series, EmbeddingParams(1))
        with mock.patch.object(forecast, "_TABLE_WIDTH", width):
            table = cross_estimates(manifold.points, manifold.times, series, 2,
                                    draws=True).table
        rows, n, head = slice(0, 50), table.lib_times.size, min(width, 64)
        assert np.all(table.near[rows] < n)
        whole = np.arange(n)[None]
        for k in sorted({head, width}):
            got, calls = with_points_calls(lambda: table.nearest(rows, whole, k))
            assert (calls == []) == (k == head)
            assert got[0][0].tolist() == table.lib_times[table.near[rows, :k]].tolist()
            assert got[1][0].tobytes() == table.near_dist[rows, :k].tobytes()
        short = np.setdiff1d(whole, table.near[0, head - 1])[None]
        for k in (head - 1, head):
            got, calls = with_points_calls(lambda: table.nearest(rows, short, k))
            want, want_calls = with_points_calls(lambda: mask_walk(table, rows, short, k))
            assert calls == want_calls
            assert any(0 in targets for targets, _ in calls) == (k == head)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()


class TestWideNarrowTables:
    """A build read only through whole-library views keeps E + 2 columns,
    so from E = 63 on a row is wider than the walk's one word; the numbers
    are those the multi-word walk gave."""

    SERIES = gen_coupled_logistic(1000)[0]
    # (rho, MAE, RMSE) of loo_skill, as float.hex()
    LOO = {63: ("0x1.f0f83dc623f13p-2", "0x1.9016824c18072p-3", "0x1.cc1e6220d6eeap-3"),
           70: ("0x1.dd1d53e26f6f2p-2", "0x1.9471bae7a60ecp-3", "0x1.d143f0626a19ap-3")}
    # forecasts at states 0, 5, 100 and the second-to-last (leave-one-out),
    # and at state 3 moved by 0.001 (no time excluded)
    FORECASTS = {
        63: ["0x1.68582ca2d88f6p-1", "0x1.74d72d3193d7ap-1", "0x1.70d27c3e22b46p-1",
             "0x1.6664ad4ab29bep-1", "0x1.c621d14519779p-1"],
        70: ["0x1.6ce881d3ac688p-1", "0x1.3d644ef80f5a5p-1", "0x1.434b4867f0ff8p-1",
             "0x1.548d6dd69eb48p-1", "0x1.00bc11557c633p-1"]}

    @pytest.mark.parametrize("e_dim, rho", [(63, 0.485321965425997),
                                            (70, 0.46593218869735076)])
    def test_loo_skill(self, e_dim, rho):
        with mock.patch.object(forecast, "nearest_rows", wraps=nearest_rows) as points:
            stats = loo_skill(self.SERIES, EmbeddingParams(e_dim))
        assert stats.rho == rho
        assert (stats.rho.hex(), stats.mae.hex(), stats.rmse.hex()) == self.LOO[e_dim]
        assert (stats.n_pairs, stats.degenerate) == (1000 - e_dim, False)
        # the walk settles most rows; only the rest come from the points
        assert sum(c.args[0].shape[0] for c in points.call_args_list) < stats.n_pairs // 2

    def test_select_embedding_dimension(self):
        scan = select_embedding_dimension(self.SERIES, e_range=[63, 70])
        assert scan.best_e == 63 and scan.warnings == ()
        assert [(r.e_dim, r.stats.rho.hex(), r.stats.mae.hex(), r.stats.rmse.hex())
                for r in scan.rows] == [(e, *self.LOO[e]) for e in (63, 70)]

    @pytest.mark.parametrize("e_dim", [63, 70])
    def test_simplex_forecast(self, e_dim):
        manifold = embed(self.SERIES, EmbeddingParams(e_dim))
        points, times = manifold.points, manifold.times
        got = [simplex_forecast(manifold, points[i], self.SERIES,
                                target_time=int(times[i])).hex()
               for i in (0, 5, 100, times.size - 2)]
        got.append(simplex_forecast(manifold, points[3] + 0.001, self.SERIES).hex())
        assert got == self.FORECASTS[e_dim]


class TestStateRoute:
    """Targets that repeat a state share its distances and selection in
    :meth:`_NeighborTable._from_points`: each gets what the per-target
    route and the dense matrix give it, and a failing call raises the
    same error for the same first (draw, row)."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(e_dim=st.sampled_from([1, 2, 3, 5]), levels=st.integers(1, 3),
           n=st.integers(8, 120), origin=st.integers(-3, 3), shift=st.integers(-3, 3),
           split=st.booleans(), subset=st.booleans(), n_draws=st.integers(1, 4),
           data=st.data())
    def test_the_state_route_is_the_per_target_route(
            self, e_dim, levels, n, origin, shift, split, subset, n_draws, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        k = e_dim + 1
        # points on a coarse grid, and one state with k + 3 copies
        points = rng.integers(0, levels, size=(n, e_dim)) * 0.1
        crowd = np.sort(rng.choice(n, size=min(n, k + 3), replace=False))
        points[crowd] = points[crowd[0]]
        times = origin + np.arange(n)
        values = TimeSeries("x", rng.random(n), origin_index=origin)
        cut = data.draw(st.integers(1, n - 1)) if split else n
        lib, tgt = times[:cut], (times[cut:] if split else times)
        try:
            cross_map = cross_estimates(points, times, values, k, lib_times=lib,
                                        target_times=tgt, draws=True).shifted(shift)
        except DataError:
            reject()
        table, start = cross_map.table, cross_map.cols.start
        usable = cross_map.lib_times.size
        targets = np.arange(cross_map.rows.start, cross_map.rows.stop)
        if subset:
            targets = np.sort(rng.choice(targets, size=rng.integers(1, targets.size + 1),
                                         replace=False))
        # a draw of k columns, of k + 1, or any size up to the whole view
        size = data.draw(st.one_of(st.sampled_from([k, k + 1]), st.integers(k, usable)))
        # the first draw holds as many of the crowded state's copies as fit
        crowd = crowd[(crowd >= start) & (crowd < start + usable)] - start
        others = rng.permutation(np.setdiff1d(np.arange(usable), crowd))
        draws = [np.concatenate([crowd, others])[:size]]
        draws += [rng.choice(usable, size=size, replace=False)
                  for _ in range(n_draws - 1)]
        draws = start + np.sort(draws, axis=1)
        target_times, n_lib = table.target_times[targets], table.lib_times.size
        own = np.where(np.isin(target_times, table.lib_times),
                       np.searchsorted(table.lib_times, target_times), n_lib)

        calls, per_target = [], forecast._NeighborTable._nearest_in_draws

        def recording(self, rows, own, draws, k):
            calls.append(k)
            return per_target(self, rows, own, draws, k)

        with mock.patch.object(forecast._NeighborTable, "_nearest_in_draws", recording):
            got = outcome(lambda: table._from_points(targets, draws, k))
        want = outcome(lambda: table._nearest_in_draws(targets, own, draws, k))
        # the state route is tried exactly when S (k + 1) < T k
        n_states = np.unique(table.target_points[targets], axis=0).shape[0]
        assert (calls[0] == k + 1) == (n_states * (k + 1) < targets.size * k)
        if isinstance(want, str):
            assert got == want
            return
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        for d, columns in enumerate(draws):
            dense = _pairwise_distances(table.target_points[targets],
                                        table.lib_points[columns])
            dense[target_times[:, None] == table.lib_times[columns]] = np.inf
            idx, nd = nearest_rows(dense, k)
            assert table.lib_times[got[0][d]].tolist() \
                == table.lib_times[columns][idx].tolist()
            assert got[1][d].tobytes() == nd.tobytes()

    @pytest.mark.parametrize("width", [2, forecast._TABLE_WIDTH])
    def test_a_far_state_raises_the_first_failing_draw_and_row(self, width):
        # 60 values on four levels (E = 1, k = 2) and three at 1e300, whose
        # distances to every other state overflow. Every draw holds the
        # first 20 other states; the first holds all three far copies, the
        # second those at times 20 and 30 only, which each leaves one finite
        # candidate. The table at width 2 sends every row of both draws to
        # the points at once, at full width the walk sends the two rows of
        # the second draw alone
        values = np.random.default_rng(5).integers(0, 4, 60).astype(float)
        values[[10, 20, 30]] = 1e300
        effect = TimeSeries("y", values)
        manifold = embed(effect, EmbeddingParams(1))
        with mock.patch.object(forecast, "_TABLE_WIDTH", width):
            cross_map = cross_estimates(manifold.points, manifold.times, effect, 2,
                                        draws=True).shifted(0)
        rest = [c for c in range(60) if c not in (10, 20, 30)][:20]
        draws = np.array([np.sort([10, 20, 30] + rest), np.sort([20, 30, 55] + rest)])
        text = "need 2 neighbors but only 1 usable candidates for the target at time 20"
        with mock.patch.object(forecast, "nearest_rows", wraps=nearest_rows) as rows:
            with pytest.raises(DataError, match=f"^{text}$"):
                cross_map.neighbors(draws)
        # the state route ran first: k + 1 picks of fewer rows than targets
        first = rows.call_args_list[0].args
        assert first[1] == 3 and first[0].shape[0] < 2 * 60
        cause = TimeSeries("x", np.random.default_rng(6).random(60))
        with pytest.raises(DataError, match=f"^{text}$"):
            cross_map.skills((cause,), draws)
        # the first draw alone selects: the error is the second draw's
        assert np.isfinite(cross_map.neighbors(draws[:1])[1]).all()

    # ccm_curve's mean rho per library size, as float.hex(), on counts
    # floor(10 x) of the coupled logistic pair, at E = 2 and 3, and the E
    # scan's best E with its rho per E, as the per-target route gave them
    COUNTS_CURVE = {
        2: {4: "0x1.75d7b9726aa8ap-7", 9: "0x1.8fa82c1c579ebp-6",
            19: "0x1.c77a3b365f586p-5", 43: "0x1.b10d4b4b38773p-5",
            94: "0x1.69b8a7dbe2c32p-4", 206: "0x1.6ccc55bdc267ap-4",
            454: "0x1.32c7a2545a430p-4", 999: "0x1.06f525859951fp-4"},
        3: {5: "0x1.1552e56fcba0ap-6", 11: "0x1.0ab8f501dd3c7p-8",
            23: "0x1.4ea2c0faa04a8p-5", 48: "0x1.70bec3b8c4d7cp-5",
            103: "0x1.873b594687adcp-4", 220: "0x1.c90ff032db56dp-4",
            468: "0x1.1c3bb464379acp-3", 998: "0x1.51be5b2abbc74p-3"}}
    COUNTS_SCAN = ["0x1.f3e8ba2a908e9p-1", "0x1.f37558b27b720p-1",
                   "0x1.f5c71e69b910fp-1", "0x1.f606290e48748p-1",
                   "0x1.f615137fd74b7p-1", "0x1.f60b8c2dfb88fp-1",
                   "0x1.f4dda9e3ebc46p-1", "0x1.f34a76c5ac884p-1",
                   "0x1.f01e4d83480a2p-1", "0x1.ea548fc5d61e3p-1"]

    @staticmethod
    def counts():
        return [TimeSeries(s.name, np.floor(10 * s.values), origin_index=s.origin_index)
                for s in gen_coupled_logistic(1000)]

    @pytest.mark.parametrize("e_dim", [2, 3])
    def test_ccm_curve_on_counts(self, e_dim):
        x, y = self.counts()
        curve = ccm_curve(x, y, CcmConfig(e_dim=e_dim, samples_per_size=20))
        assert {r.lib_size: r.mean_rho.hex() for r in curve.rows} \
            == self.COUNTS_CURVE[e_dim]

    def test_select_embedding_dimension_on_counts(self):
        scan = select_embedding_dimension(self.counts()[0])
        assert scan.best_e == 5
        assert [r.stats.rho.hex() for r in scan.rows] == self.COUNTS_SCAN


def sweep_series(kind, n, origin, rng):
    """``n`` values from time ``origin``: a logistic map, the same with
    three values at 1e300 (whose states have no finite distance to the
    others, so a shift may leave them short of candidates), 2-decimal
    values on 12 levels (many states repeat, and rows tie at the table's
    bound), or a constant."""
    if kind in ("continuous", "outliers"):
        values = logistic_series(n, x0=rng.uniform(0.1, 0.9)).values.copy()
        if kind == "outliers":
            values[rng.choice(n, size=3, replace=False)] = 1e300
    else:
        values = np.round(rng.integers(0, 12, size=n) * 0.01, 2) \
            if kind == "two_decimals" else np.full(n, 0.25)
    return TimeSeries("x", values, origin_index=origin)


def whole_library_skills(view, series):
    """:meth:`_CrossMap.skills` of ``view`` with the one draw of every
    library column: the walk's whole-library read, which the sweep must
    match."""
    return view.skills(series, [np.arange(view.lib_times.size)])


class TestSweep:
    """:meth:`_CrossMap.sweep` scores each shift of a build with the bits,
    the note or the error of that shift's own view read as one draw of its
    whole library, although it picks and weights its lag-stable rows
    once."""

    @settings(max_examples=250, deadline=None, database=None)
    @given(kind=st.sampled_from(["continuous", "outliers", "two_decimals", "constant"]),
           n=st.integers(8, 200), origin=st.integers(-3, 3),
           # E = 7 gives k = 8, the first k whose weights weight_rows sums
           # by rows
           e_dim=st.one_of(st.integers(1, 4), st.just(7)),
           wide=st.booleans(), split=st.booleans(),
           scale=st.sampled_from([1.0, 1.0, 1e160]), data=st.data())
    def test_each_shift_is_its_own_view(self, kind, n, origin, e_dim, wide, split,
                                        scale, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        series = sweep_series(kind, n, origin, rng)
        manifold = embed(series, EmbeddingParams(e_dim))
        times, k = manifold.times, e_dim + 1
        cut = data.draw(st.integers(1, times.size - 1)) if split else times.size
        lib, tgt = times[:cut], (times[cut:] if split else times)
        # the series (a bounded one beside outliers) and a second cause on
        # its axis, which at 1e160 overflows every scored shift's correlation
        causes = (series if kind != "outliers"
                  else TimeSeries("b", rng.random(n), origin_index=origin),
                  TimeSeries("c", rng.random(n) * scale, origin_index=origin))
        # lags around 0, or reaching past the series, which leaves some too
        # short and, when they span more than the series, no column usable
        # at every lag
        reach = data.draw(st.sampled_from([3, n // 2 + 2, n + 2]))
        shifts = sorted(data.draw(st.sets(st.integers(-reach, reach), min_size=1,
                                          max_size=9)))
        # a wide build is 64 columns, or narrower than k, as a draw build
        # is from E = 64 on
        width = data.draw(st.sampled_from([64, k - 1]))
        try:
            with mock.patch.object(forecast, "_TABLE_WIDTH", width):
                full = cross_estimates(manifold.points, times, series, k,
                                       lib_times=lib, target_times=tgt, draws=wide)
        except DataError:
            reject()
        assert full.table.near.shape[1] == min(
            width if wide else k + forecast._VIEW_SLACK, lib.size)
        alone = [outcome(lambda: whole_library_skills(full.shifted(s), causes))
                 for s in shifts]
        swept = outcome(lambda: full.sweep(causes, shifts))
        raised = [a for a in alone if isinstance(a, str) and not a.startswith("DataError")]
        if raised:
            assert swept == raised[0]
            return
        assert len(swept) == len(shifts)
        for got, want in zip(swept, alone):
            if isinstance(want, str):
                assert f"{type(got).__name__}: {got}" == want
            else:
                assert [part.tobytes() for part in got] == [part.tobytes() for part in want]
                assert [part.shape for part in got] == [(2, 1)] * 4

    def test_an_untrusted_entry_is_picked_per_shift(self):
        # 120 values on 12 two-decimal levels at E = 1: many rows tie at the
        # narrow table's bound, and their untrusted entries (column n) may
        # stand for columns that are not the nearest; such rows are picked
        # per shift, from the points
        rng = np.random.default_rng(0)
        series = TimeSeries("x", np.round(rng.integers(0, 12, size=120) * 0.01, 2))
        manifold = embed(series, EmbeddingParams(1))
        full = cross_estimates(manifold.points, manifold.times, series, 2)
        assert (full.table.near[:, :2] == full.table.lib_times.size).any()
        shifts = list(range(-3, 4))
        for shift, got in zip(shifts, full.sweep((series,), shifts)):
            want = whole_library_skills(full.shifted(shift), (series,))
            assert [part.tobytes() for part in got] == [part.tobytes() for part in want]

    def test_a_table_narrower_than_k_has_no_lag_stable_row(self):
        # a draw build 3 columns wide at k = 5, as a 64-wide one is at
        # E >= 64: no row has k table entries, so every row is picked per
        # shift, from the points, and scored with k neighbours
        x = gen_coupled_logistic(120)[0]
        manifold = embed(x, EmbeddingParams(4))
        with mock.patch.object(forecast, "_TABLE_WIDTH", 3):
            full = cross_estimates(manifold.points, manifold.times, x, 5, draws=True)
        for shifts in ([0], [-1, 0, 1]):
            for shift, got in zip(shifts, full.sweep((x,), shifts)):
                want = whole_library_skills(full.shifted(shift), (x,))
                assert [part.tobytes() for part in got] \
                    == [part.tobytes() for part in want]
