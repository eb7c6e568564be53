import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmap import DataError, EmbeddingParams, TimeSeries, embed, knn
from crossmap.embedding import nearest_rows


def brute_force_knn(points, times, query, k, excluded=()):
    """Independent oracle: full sort by (distance, time)."""
    q = np.asarray(query, dtype=float)
    rows = []
    for i in range(points.shape[0]):
        if times[i] in excluded:
            continue
        d = float(np.sqrt(((points[i] - q) ** 2).sum()))
        rows.append((d, int(times[i]), i))
    rows.sort()
    return [r[2] for r in rows[:k]], [r[0] for r in rows[:k]]


class TestEmbed:
    def test_direct_construction(self):
        m = embed(TimeSeries("s", [1, 2, 3, 4, 5]), EmbeddingParams(2, 1))
        assert m.points.tolist() == [[2, 1], [3, 2], [4, 3], [5, 4]]
        assert m.times.tolist() == [1, 2, 3, 4]
        assert m.source_name == "s"

    def test_point_count(self):
        m = embed(TimeSeries("s", np.arange(1000.0)), EmbeddingParams(3, 2))
        assert m.n_points == 996

    def test_e1_identity(self):
        m = embed(TimeSeries("s", [7.0]), EmbeddingParams(1, 1))
        assert m.n_points == 1
        assert m.points.tolist() == [[7.0]]
        assert m.times.tolist() == [0]

    def test_too_short_reports_minimum(self):
        with pytest.raises(DataError, match="minimum 9"):
            embed(TimeSeries("s", np.arange(8.0)), EmbeddingParams(5, 2))

    def test_round_trip_to_source(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(5, 80))
            series = TimeSeries("s", rng.normal(size=n),
                                origin_index=int(rng.integers(-5, 6)))
            e = int(rng.integers(1, 5))
            tau = int(rng.integers(1, 4))
            if (e - 1) * tau + 1 > n:
                continue
            m = embed(series, EmbeddingParams(e, tau))
            assert m.n_points == n - (e - 1) * tau
            assert np.all(np.diff(m.times) > 0)
            for row in range(m.n_points):
                t = int(m.times[row])
                for j in range(e):
                    assert m.points[row, j] == series.value_at(t - j * tau)

    def test_params_validation(self):
        with pytest.raises(DataError):
            EmbeddingParams(0, 1)
        with pytest.raises(DataError):
            EmbeddingParams(2, 0)
        # negative horizons are allowed (reverse prediction)
        assert EmbeddingParams(2, 1, tp=-3).tp == -3


class TestKnn:
    def test_single_nearest(self):
        m = embed(TimeSeries("s", [0.0, 1.0, 2.0]), EmbeddingParams(1))
        ns = knn(m, [0.9], 1)
        assert ns.indices.tolist() == [1]
        assert ns.distances[0] == pytest.approx(0.1)

    def test_full_ordering(self):
        m = embed(TimeSeries("s", [0.0, 1.0, 2.0]), EmbeddingParams(1))
        ns = knn(m, [0.9], 3)
        assert ns.indices.tolist() == [1, 0, 2]
        assert np.allclose(ns.distances, [0.1, 0.9, 1.1])

    def test_exclusion_contract(self):
        m = embed(TimeSeries("s", [0.0, 1.0, 2.0]), EmbeddingParams(1))
        ns = knn(m, [1.0], 1, excluded_times={1})
        assert m.times[ns.indices[0]] != 1
        assert ns.distances[0] == pytest.approx(1.0)

    def test_ties_broken_by_time(self):
        # values 0, 2, 0 are all at distance 1 from the query
        m = embed(TimeSeries("s", [0.0, 2.0, 5.0, 0.0]), EmbeddingParams(1))
        ns = knn(m, [1.0], 3)
        assert ns.indices.tolist() == [0, 1, 3]
        assert ns.distances.tolist() == [1.0, 1.0, 1.0]

    def test_deterministic_under_ties(self):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 3, size=60).astype(float)  # many duplicates
        m = embed(TimeSeries("s", vals), EmbeddingParams(2))
        first = knn(m, [1.0, 1.0], 10)
        for _ in range(5):
            again = knn(m, [1.0, 1.0], 10)
            assert np.array_equal(first.indices, again.indices)
            assert np.array_equal(first.distances, again.distances)

    def test_insufficient_candidates(self):
        m = embed(TimeSeries("s", [0.0, 1.0]), EmbeddingParams(1))
        with pytest.raises(DataError, match="admissible"):
            knn(m, [0.5], 2, excluded_times={0})

    def test_dimension_mismatch(self):
        m = embed(TimeSeries("s", [0.0, 1.0, 2.0]), EmbeddingParams(2))
        with pytest.raises(DataError, match="dimension"):
            knn(m, [0.5], 1)

    @pytest.mark.parametrize("k, excluded, name", [
        (2.5, (), "k"), (2.0, (), "k"), (2, {2.5}, "excluded_times")],
        ids=["k-2.5", "k-2.0", "excluded-2.5"])
    def test_non_integer_arguments_are_rejected(self, k, excluded, name):
        # k of 2.5 fails the slice; an excluded 2.5 would exclude time 2
        m = embed(TimeSeries("s", np.arange(8.0)), EmbeddingParams(2))
        with pytest.raises(DataError, match=f"^{name} must hold integers, got "):
            knn(m, [0.1, 0.2], k, excluded_times=excluded)

    @pytest.mark.parametrize("query", [[np.nan, 0.1], [np.inf, 0.1], [0.1, -np.inf]])
    def test_rejects_a_non_finite_query(self, query):
        m = embed(TimeSeries("s", np.arange(8.0)), EmbeddingParams(2))
        with pytest.raises(DataError, match="^query must be finite$"):
            knn(m, query, 3)

    @pytest.mark.parametrize("values, query, k, n_fin", [
        (range(8), [1e200, 1e200], 3, 0),
        (range(8), [1e154, 1e154], 1, 0),
        ([0, 1, 2, 3, 4, 5, 1e308, 1e308], [-1e308, 0.0], 1, 0),
        ([0, 1, 2, 3, 4, 5, 1e200, 1e200], [1e200, 0.0], 2, 1)],
        ids=["square-overflows", "sum-overflows", "difference-overflows",
             "one-finite"])
    def test_rejects_a_query_with_fewer_than_k_finite_distances(self, values, query,
                                                                k, n_fin):
        # a difference, square or sum that overflows is a +inf distance,
        # which may not stand in for a neighbor, and no warning leaks
        m = embed(TimeSeries("s", values), EmbeddingParams(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^need {k} neighbors but only {n_fin} "
                                                f"admissible points lie at a finite "
                                                f"distance from the query$"):
                knn(m, query, k)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(10, 500))
            e = int(rng.integers(1, 4))
            series = TimeSeries("s", rng.normal(size=n))
            m = embed(series, EmbeddingParams(e))
            q = rng.normal(size=e)
            k = int(rng.integers(1, min(8, m.n_points) + 1))
            got = knn(m, q, k)
            want_idx, want_d = brute_force_knn(m.points, m.times, q, k)
            assert got.indices.tolist() == want_idx
            assert got.distances == pytest.approx(want_d, rel=1e-12)


class TestNearestRows:
    """The vectorized batch path must agree with knn exactly."""

    def test_matches_knn_row_by_row(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(8, 120))
            e = int(rng.integers(1, 4))
            m = embed(TimeSeries("s", rng.normal(size=n)), EmbeddingParams(e))
            queries = rng.normal(size=(7, e))
            k = int(rng.integers(1, min(6, m.n_points) + 1))
            diff = queries[:, None, :] - m.points[None, :, :]
            dist = np.sqrt(np.einsum("mne,mne->mn", diff, diff))
            idx, nd = nearest_rows(dist.copy(), k)
            for r in range(queries.shape[0]):
                ref = knn(m, queries[r], k)
                assert idx[r].tolist() == ref.indices.tolist()
                assert nd[r].tolist() == ref.distances.tolist()

    def test_tie_groups_resolved_by_column(self):
        dist = np.array([[2.0, 1.0, 1.0, 1.0, 0.5]])
        idx, nd = nearest_rows(dist.copy(), 3)
        assert idx[0].tolist() == [4, 1, 2]
        assert nd[0].tolist() == [0.5, 1.0, 1.0]

    def test_boundary_tie_repair(self):
        # four entries tie at the k-th distance; earliest columns must win
        dist = np.array([[1.0, 1.0, 1.0, 1.0, 0.1]])
        idx, _ = nearest_rows(dist.copy(), 2)
        assert idx[0].tolist() == [4, 0]

    def test_inf_exclusions_error_when_short(self):
        dist = np.array([[0.1, np.inf, np.inf]])
        with pytest.raises(DataError, match="usable"):
            nearest_rows(dist.copy(), 2)

    def test_k_equals_n(self):
        dist = np.array([[3.0, 1.0, 2.0]])
        idx, nd = nearest_rows(dist.copy(), 3)
        assert idx[0].tolist() == [1, 2, 0]
        assert nd[0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_results_are_c_contiguous_rows(self, layout):
        dist = np.round(np.random.default_rng(3).random((9, 14)), 1)
        given_dist = {"C": dist, "F": np.asfortranarray(dist),
                      "strided": np.repeat(dist, 2, axis=1)[:, ::2]}[layout]
        idx, nd = nearest_rows(given_dist, 4)
        want = np.argsort(dist, axis=1, kind="stable")[:, :4]
        assert idx.shape == nd.shape == (9, 4)
        assert idx.flags.c_contiguous and nd.flags.c_contiguous
        assert np.array_equal(idx, want)
        assert nd.tobytes() == np.take_along_axis(dist, want, axis=1).tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_stable_sort_oracle(self, data):
        # few distance levels and +inf entries: ties and short rows are common
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 8))
        cell = st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf])
        dist = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                           min_size=m, max_size=m)))
        k = data.draw(st.integers(1, n))
        before = dist.copy()
        finite = np.isfinite(dist).sum(axis=1)
        if np.any(finite < k):
            bad = int(np.flatnonzero(finite < k)[0])
            with pytest.raises(DataError) as info:
                nearest_rows(dist, k)
            assert str(info.value) == (
                f"need {k} neighbors but only {finite[bad]} usable candidates "
                f"for query row {bad}")
        else:
            idx, nd = nearest_rows(dist, k)
            want = np.stack([np.argsort(row, kind="stable")[:k] for row in dist])
            assert idx.dtype == want.dtype and nd.dtype == dist.dtype
            assert np.array_equal(idx, want)
            assert np.array_equal(nd, np.take_along_axis(dist, want, axis=1))
        assert np.array_equal(dist, before)
