import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import crossmap.ccm
from crossmap import (CcmConfig, CurveRow, DataError, TimeSeries,
                      causal_summary, ccm_curve, convergence_test,
                      cross_map_skill, default_library_sizes, eccm_profile,
                      forecast, loo_skill, pai_cross_map,
                      select_embedding_dimension, shared_embedding_dimension,
                      train_test_skill)
from crossmap.embedding import EmbeddingParams, embed
from crossmap.systems import (gen_coupled_logistic, gen_lagged_logistic,
                              gen_moran_fork, gen_unidirectional_logistic)


@pytest.fixture(scope="module")
def coupled():
    return gen_coupled_logistic(800)


CFG = CcmConfig(e_dim=2, seed=11, samples_per_size=8)


@pytest.fixture(scope="module")
def constant_effect_pair():
    """X random, Y = 0.5 throughout: the claim X=>Y has a constant effect."""
    x = TimeSeries("X", np.random.default_rng(0).random(400))
    return x, TimeSeries("Y", np.full(400, 0.5))


CONSTANT_Y = ("X=>Y: effect 'Y' is constant; every distance is 0, so "
              "neighbors are the earliest library times")


@pytest.fixture(scope="module")
def kendalltau():
    """scipy's Kendall tau, the oracle for the convergence trend."""
    return pytest.importorskip("scipy.stats").kendalltau


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            CcmConfig(e_dim=0)
        with pytest.raises(DataError):
            CcmConfig(e_dim=2, tau=0)
        with pytest.raises(DataError):
            CcmConfig(e_dim=2, samples_per_size=0)
        with pytest.raises(DataError):
            CcmConfig(e_dim=2, seed=-1)
        with pytest.raises(DataError, match="increasing"):
            CcmConfig(e_dim=2, lib_sizes=(10, 10, 20))
        with pytest.raises(DataError, match="E\\+2"):
            CcmConfig(e_dim=2, lib_sizes=(3, 10))

    @pytest.mark.parametrize("make, name", [
        (lambda: EmbeddingParams(2.0), "e_dim"),
        (lambda: EmbeddingParams(2, tau=1.5), "tau"),
        (lambda: EmbeddingParams(2, tp=1.0), "tp"),
        (lambda: CcmConfig(e_dim=2.0), "e_dim"),
        (lambda: CcmConfig(e_dim=2, tau=2.0), "tau"),
        (lambda: CcmConfig(e_dim=2, lag=0.5), "lag"),
        (lambda: CcmConfig(e_dim=2, samples_per_size=2.5), "samples_per_size"),
        (lambda: CcmConfig(e_dim=2, seed=1.0), "seed"),
        (lambda: CcmConfig(e_dim=2, lag="1"), "lag"),
    ])
    def test_counts_and_offsets_must_be_integers(self, make, name):
        with pytest.raises(DataError, match=f"^{name} must be an integer, got "):
            make()

    def test_numpy_integers_are_accepted(self):
        config = CcmConfig(e_dim=np.int64(2), tau=np.int32(1), lag=np.int64(-1),
                           samples_per_size=np.uint8(5), seed=np.int64(3),
                           lib_sizes=np.array([10, 20], dtype=np.int32))
        assert config == CcmConfig(e_dim=2, tau=1, lag=-1, samples_per_size=5, seed=3,
                                   lib_sizes=(10, 20))
        assert EmbeddingParams(np.int64(3), tp=np.int16(-2)).span == 2

    @pytest.mark.parametrize("sizes, bad", [
        ((10.7, 20.9, "30"), "10.7"), ((10, 20.0), "20.0"), ((10, "30"), "'30'")])
    def test_library_sizes_must_be_integers(self, sizes, bad):
        # int() would give (10, 20, 30) for (10.7, 20.9, '30')
        with pytest.raises(DataError,
                           match=f"^lib_sizes must hold integers, got {bad}$"):
            CcmConfig(e_dim=2, lib_sizes=sizes)

    def test_default_library_sizes(self):
        sizes = default_library_sizes(4, 996)
        assert sizes[0] == 4 and sizes[-1] == 996
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) == 8
        assert default_library_sizes(5, 5) == (5,)
        with pytest.raises(DataError):
            default_library_sizes(10, 9)

    @pytest.mark.parametrize("min_size", [0, -3])
    def test_default_library_sizes_start_at_one(self, min_size):
        # np.geomspace raised a bare ValueError at 0 and log10 warned below
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^library sizes must be at least 1, "
                                                f"got min_size {min_size}$"):
                default_library_sizes(min_size, 100)


@pytest.mark.parametrize("make, name", [
    (lambda x, y: cross_map_skill(x, y, CFG, library_times=np.arange(10, 400) + 0.5),
     "library_times"),
    (lambda x, y: cross_map_skill(x, y, CFG, library_times=[10.0, 11, 12, 13, 14]),
     "library_times"),
    (lambda x, y: default_library_sizes(3.5, 100), "min_size and max_size"),
    (lambda x, y: default_library_sizes(4, 100.0), "min_size and max_size"),
], ids=["library-times-x.5", "library-time-10.0", "min-size-3.5", "max-size-100.0"])
def test_non_integer_times_and_sizes_are_rejected(coupled, make, name):
    # int() would truncate 10.5 to 10 and 3.5 to 3, below the minimum size
    with pytest.raises(DataError, match=f"^{name} must hold integers, got "):
        make(*coupled)


class TestCrossMapSkill:
    def test_self_estimation(self, coupled):
        x, _ = coupled
        assert cross_map_skill(x, x, CFG).rho > 0.99

    def test_coupled_asymmetry(self, coupled):
        x, y = coupled
        # X drives Y strongly, so estimating X from Y's manifold wins
        assert cross_map_skill(x, y, CFG).rho > cross_map_skill(y, x, CFG).rho

    def test_independent_maps_near_zero(self):
        x, _ = gen_coupled_logistic(1000, bxy=0.0, byx=0.0, x0=0.11, y0=0.77)
        _, y = gen_coupled_logistic(1000, bxy=0.0, byx=0.0, x0=0.52, y0=0.31)
        assert abs(cross_map_skill(x, y, CFG).rho) < 0.2

    def test_length_mismatch(self, coupled):
        x, _ = coupled
        with pytest.raises(DataError):
            cross_map_skill(x, TimeSeries("y", x.values[:-1]), CFG)

    def test_library_too_small(self, coupled):
        x, y = coupled
        with pytest.raises(DataError, match="library too small"):
            cross_map_skill(x, y, CFG, library_times=[2, 3, 4])

    def test_explicit_library_must_be_admissible(self, coupled):
        x, y = coupled
        with pytest.raises(DataError, match="admissible"):
            cross_map_skill(x, y, CFG, library_times=[0, 2, 3, 4, 5])

    def test_repeated_library_times_are_rejected(self):
        # a repeated time would leave the target's own state among its
        # neighbors at distance 0, and rho would read 1.0
        x, y = gen_coupled_logistic(300, burn_in=849)
        lib = np.arange(1, 300)
        config = CcmConfig(e_dim=2)
        assert cross_map_skill(x, y, config, library_times=lib).rho < 0.7
        with pytest.raises(DataError, match="^library times must not repeat: "
                                            "time 1 appears more than once$"):
            cross_map_skill(x, y, config, library_times=np.r_[lib, lib])

    def test_self_beats_cross(self, coupled):
        x, y = coupled
        self_rho = cross_map_skill(x, x, CFG).rho
        assert self_rho >= cross_map_skill(x, y, CFG).rho - 1e-9
        assert self_rho >= cross_map_skill(y, x, CFG).rho - 1e-9


class TestAffineInvariance:
    def test_cause_rescaled(self, coupled):
        x, y = coupled
        base = cross_map_skill(x, y, CFG).rho
        scaled = TimeSeries("xs", 3.7 * x.values + 11.0)
        assert cross_map_skill(scaled, y, CFG).rho == pytest.approx(base, abs=1e-9)

    def test_effect_rescaled(self, coupled):
        # rescaling the embedded series rescales all distances uniformly:
        # neighbor order, weights, and rho are unchanged
        x, y = coupled
        base = cross_map_skill(x, y, CFG).rho
        scaled = TimeSeries("ys", 0.25 * y.values - 2.0)
        assert cross_map_skill(x, scaled, CFG).rho == pytest.approx(base, abs=1e-9)


class TestConvergenceTest:
    def test_monotone_rising(self):
        rows = [CurveRow(10 * (i + 1), rho, 0.0, 5)
                for i, rho in enumerate([0.1, 0.3, 0.5, 0.7, 0.9])]
        decision = convergence_test(rows)
        assert decision.convergent
        assert decision.final_rho == 0.9
        assert decision.rho_gain == pytest.approx(0.8)
        assert decision.trend == pytest.approx(1.0)

    def test_flat_curve(self):
        rows = [CurveRow(10 * (i + 1), 0.05, 0.0, 5) for i in range(5)]
        assert not convergence_test(rows).convergent

    def test_rising_but_low_floor(self):
        rows = [CurveRow(10 * (i + 1), rho, 0.0, 5)
                for i, rho in enumerate([0.01, 0.05, 0.12, 0.15, 0.18])]
        assert not convergence_test(rows).convergent

    def test_high_but_not_rising(self):
        rows = [CurveRow(10 * (i + 1), rho, 0.0, 5)
                for i, rho in enumerate([0.85, 0.88, 0.86, 0.87, 0.88])]
        assert not convergence_test(rows).convergent

    def test_too_few_rows(self):
        rows = [CurveRow(10, 0.1, 0.0, 5), CurveRow(20, 0.5, 0.0, 5)]
        with pytest.raises(DataError):
            convergence_test(rows)

    def test_unsorted_rows(self):
        rows = [CurveRow(30, 0.1, 0.0, 5), CurveRow(10, 0.2, 0.0, 5),
                CurveRow(20, 0.3, 0.0, 5)]
        with pytest.raises(DataError, match="sorted"):
            convergence_test(rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_skill_is_rejected(self, bad):
        rows = [CurveRow(10, 0.1, 0.0, 5), CurveRow(20, bad, 0.0, 5),
                CurveRow(30, 0.5, 0.0, 5)]
        with pytest.raises(DataError, match="^mean_rho must be finite, got .* at "
                                            "library size 20$"):
            convergence_test(rows)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(3, 40), decimals=st.integers(0, 2))
    def test_trend_is_kendall_tau_b(self, kendalltau, data, n, decimals):
        # rounding to 0-2 decimals makes rho ties (and -0.0 beside 0.0) common
        sizes = sorted(data.draw(st.sets(st.integers(4, 10_000), min_size=n,
                                         max_size=n)))
        rhos = [round(v, decimals) for v in data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))]
        tau = kendalltau(sizes, rhos).statistic
        expected = float(tau) if np.isfinite(tau) else 0.0
        trend = convergence_test([CurveRow(size, rho, 0.0, 1)
                                  for size, rho in zip(sizes, rhos)]).trend
        assert np.float64(trend).tobytes() == np.float64(expected).tobytes()

    def test_import_loads_no_scipy(self):
        code = ("import sys, crossmap, crossmap.cli; print(sorted(m for m in "
                "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        src = str(Path(crossmap.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.strip() == "[]"


class TestCcmCurve:
    def test_row_bookkeeping(self, coupled):
        x, y = coupled
        cfg = CcmConfig(e_dim=2, seed=5, samples_per_size=6,
                        lib_sizes=(10, 50, 200, 799))
        curve = ccm_curve(x, y, cfg)
        assert [r.lib_size for r in curve.rows] == [10, 50, 200, 799]
        assert all(r.samples_used == 6 for r in curve.rows[:-1])
        # the largest admissible size is a single full-library evaluation
        assert curve.rows[-1].samples_used == 1
        assert curve.rows[-1].sd_rho == 0.0
        assert all(r.sd_rho >= 0.0 for r in curve.rows)

    def test_direction_label(self, coupled):
        x, y = coupled
        assert ccm_curve(x, y, CFG).direction == "X=>Y"
        assert ccm_curve(y, x, CFG).direction == "Y=>X"

    def test_bit_reproducible(self, coupled):
        x, y = coupled
        cfg = CcmConfig(e_dim=2, seed=99, samples_per_size=5)
        assert ccm_curve(x, y, cfg) == ccm_curve(x, y, cfg)

    def test_seed_changes_draws(self, coupled):
        x, y = coupled
        a = ccm_curve(x, y, CcmConfig(e_dim=2, seed=1, samples_per_size=5))
        b = ccm_curve(x, y, CcmConfig(e_dim=2, seed=2, samples_per_size=5))
        assert a.rows[0].mean_rho != b.rows[0].mean_rho

    def test_final_row_equals_full_library_skill(self, coupled):
        x, y = coupled
        curve = ccm_curve(x, y, CFG)
        assert curve.rows[-1].mean_rho == cross_map_skill(x, y, CFG).rho
        assert curve.final_rho == curve.rows[-1].mean_rho

    def test_contiguous_mode(self, coupled):
        x, y = coupled
        cfg = CcmConfig(e_dim=2, seed=5, samples_per_size=5,
                        contiguous_draws=True)
        curve = ccm_curve(x, y, cfg)
        assert curve.rows[-1].mean_rho == cross_map_skill(x, y, CFG).rho

    def test_too_few_sizes_warn_that_convergence_was_skipped(self, coupled):
        x, y = coupled
        curve = ccm_curve(x, y, CcmConfig(e_dim=2, lib_sizes=(5, 200),
                                          samples_per_size=5))
        assert not curve.convergent
        assert curve.warnings == (
            "X=>Y: convergence test skipped: 2 library sizes (needs 3)",)
        assert ccm_curve(x, y, CFG).warnings == ()

    @pytest.mark.parametrize("constant", [False, True],
                             ids=["logistic", "constant-effect"])
    def test_long_curve_memory_does_not_grow_as_n_squared(self, constant):
        # at N=4000 the target x library float64 matrix alone is 122 MiB; a
        # constant effect ties every distance, so every row falls back
        x, y = gen_coupled_logistic(4000)
        if constant:
            y = TimeSeries("Y", np.full(4000, 0.5))
        cfg = CcmConfig(e_dim=2, lib_sizes=(4, 100, 1000, 3999),
                        samples_per_size=2)
        tracemalloc.start()
        try:
            curve = ccm_curve(x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.lib_size for r in curve.rows] == [4, 100, 1000, 3999]
        assert peak < 48 * 2 ** 20

    def test_oversized_grid_rejected(self, coupled):
        x, y = coupled
        with pytest.raises(DataError, match="exceeds"):
            ccm_curve(x, y, CcmConfig(e_dim=2, lib_sizes=(10, 10_000)))

    def test_direction_convention_against_ground_truth(self):
        # one-way system: the only true edge is Y => X, so the curve
        # carrying that label must be the convergent one
        x, y = gen_unidirectional_logistic(1000)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=20)
        true_edge = ccm_curve(y, x, cfg)
        absent_edge = ccm_curve(x, y, cfg)
        assert true_edge.direction == "Y=>X" and true_edge.convergent
        assert absent_edge.direction == "X=>Y" and not absent_edge.convergent


class TestPai:
    def test_redundant_coordinate(self, coupled):
        x, _ = coupled
        pai = pai_cross_map(x, x, CFG)
        assert pai.rho >= cross_map_skill(x, x, CFG).rho - 0.01

    def test_constant_extra_coordinate_is_noop(self, coupled):
        x, _ = coupled
        const = TimeSeries("c", np.full(len(x), 0.5))
        assert pai_cross_map(x, const, CFG) == cross_map_skill(x, x, CFG)

    def test_both_orderings_finite(self, coupled):
        x, y = coupled
        for a, b in [(x, y), (y, x)]:
            rho = pai_cross_map(a, b, CFG).rho
            assert np.isfinite(rho) and -1.0 <= rho <= 1.0

    def test_length_mismatch(self, coupled):
        x, _ = coupled
        with pytest.raises(DataError):
            pai_cross_map(x, TimeSeries("y", x.values[:-1]), CFG)


class TestEccm:
    def test_zero_lag_row_matches_plain_skill(self, coupled):
        x, y = coupled
        profile = eccm_profile(x, y, CFG, range(-2, 3))
        row0 = next(r for r in profile.rows if r.lag == 0)
        assert row0.rho == cross_map_skill(x, y, CFG).rho

    def test_lag_recovery(self):
        x, y = gen_lagged_logistic(1000, delay=2, coupling=0.1)
        cfg = CcmConfig(e_dim=2, seed=0)
        assert eccm_profile(x, y, cfg, range(-8, 9)).best_lag == -2
        assert eccm_profile(y, x, cfg, range(-8, 9)).best_lag >= 0

    @pytest.mark.parametrize("lags, bad", [
        ([-1.7, 0.5, "2"], "-1.7"), ([0, 1.0], "1.0"), ([0, "2"], "'2'")])
    def test_lags_must_be_integers(self, coupled, lags, bad):
        # int() would sweep lags -1, 0, 2 for [-1.7, 0.5, '2']
        x, y = coupled
        with pytest.raises(DataError,
                           match=f"^lag_range must hold integers, got {bad}$"):
            eccm_profile(x, y, CFG, lags)

    def test_unavailable_lags_marked(self, coupled):
        x, y = coupled
        profile = eccm_profile(x, y, CFG, [-800, 0, 800])
        notes = {r.lag: r for r in profile.rows}
        assert notes[800].rho is None and notes[800].note
        assert notes[-800].rho is None
        assert notes[0].rho is not None

    def test_empty_range(self, coupled):
        x, y = coupled
        with pytest.raises(DataError):
            eccm_profile(x, y, CFG, [])

    def test_constant_effect_warns(self, constant_effect_pair):
        x, y = constant_effect_pair
        assert eccm_profile(x, y, CFG, range(-2, 3)).warnings == (CONSTANT_Y,)
        # every Y=>X estimate is the constant Y
        assert eccm_profile(y, x, CFG, range(-2, 3)).warnings == (
            "Y=>X: 5 degenerate lags (zero-variance estimates) across the sweep",)

    def test_length_mismatch_fails_every_lag(self, coupled):
        x, _ = coupled
        short = TimeSeries("y", x.values[:-1])
        with pytest.raises(DataError) as info:
            eccm_profile(x, short, CFG, range(-2, 3))
        assert str(info.value) == "series lengths differ: 'X' has 800, 'y' has 799"
        # the same message the plain cross map gives
        with pytest.raises(DataError, match="series lengths differ: 'X' has 800, "
                                            "'y' has 799"):
            cross_map_skill(x, short, replace(CFG, lag=1))

    def test_effect_too_short_fails_every_lag(self):
        x = TimeSeries("x", [0.1, 0.4, 0.2])
        with pytest.raises(DataError) as info:
            eccm_profile(x, x, CcmConfig(e_dim=4), [-1, 0, 1])
        assert str(info.value) == ("series 'x' too short to embed: length 3 < "
                                   "minimum 4 for E=4, tau=1")

    def test_every_lag_failing_quotes_the_first_lags_note(self):
        # two effect values at 1e300 lie at +inf from every other state (the
        # squares overflow) and at 0 from each other, so each has one usable
        # candidate at every lag; the error says so, not only that no lag
        # scored
        x, y = gen_coupled_logistic(60)
        values = y.values.copy()
        values[[10, 30]] = 1e300
        with pytest.raises(DataError) as info:
            eccm_profile(x, TimeSeries("Y", values), CcmConfig(e_dim=1), range(-2, 3))
        assert str(info.value) == (
            "every lag in the range left no valid targets; lag -2: need 2 "
            "neighbors but only 1 usable candidates for the target at time 10")

    def test_rows_turn_into_notes_at_the_edge(self):
        # 40 steps, E=2: 39 state points; a lag leaves E+2 = 4 of them
        # usable at -36 and +35 and only 3 one step further out
        x, y = gen_coupled_logistic(40)
        cfg = CcmConfig(e_dim=2, seed=0)
        profile = eccm_profile(x, y, cfg, [-37, -36, 0, 35, 36])
        rows = {r.lag: r for r in profile.rows}
        for ell in (-37, 36):
            assert rows[ell].rho is None
            assert rows[ell].note == (f"library too small: 3 usable points after "
                                      f"shifting by {ell}, need at least 4")
        for ell in (-36, 0, 35):
            assert rows[ell].note is None
            assert rows[ell].rho == cross_map_skill(x, y, replace(cfg, lag=ell)).rho

    def test_tie_break_prefers_small_magnitude_then_negative(self):
        # two constant series tie every lag at exactly rho = 0
        x = TimeSeries("x", np.full(60, 0.7))
        c = TimeSeries("c", np.full(60, 0.4))
        profile = eccm_profile(x, c, CcmConfig(e_dim=2, seed=0), range(-3, 4))
        assert profile.best_lag == 0
        profile = eccm_profile(x, c, CcmConfig(e_dim=2, seed=0), [-2, 2, 3])
        assert profile.best_lag == -2


class TestCausalSummary:
    def test_fork_structure(self):
        z, a, b = gen_moran_fork(800)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=10)
        net = causal_summary([z, a, b], cfg)
        verdict = {(e.cause, e.effect): e.convergent for e in net.edges}
        assert len(net.edges) == 6
        assert verdict[("Z", "A")] and verdict[("Z", "B")]
        assert not verdict[("A", "B")] and not verdict[("B", "A")]

    def test_single_series_empty(self, coupled):
        x, _ = coupled
        net = causal_summary([x], CFG)
        assert net.edges == ()

    def test_single_series_with_lag_sweep_empty(self, coupled):
        x, _ = coupled
        net = causal_summary([x], CFG, eccm_lags=range(-1, 2))
        assert (net.series_names, net.edges, net.warnings) == (("X",), (), ())

    def test_edges_in_cause_major_order_with_lag_sweeps(self, coupled):
        x, y = coupled
        twin = TimeSeries("W", x.values)
        cfg = CcmConfig(e_dim=2, seed=3, samples_per_size=5)
        lags = range(0, 3)
        net = causal_summary([x, y, twin], cfg, eccm_lags=lags)
        pairs = [(x, y), (x, twin), (y, x), (y, twin), (twin, x), (twin, y)]
        assert [(e.cause, e.effect) for e in net.edges] \
            == [(c.name, e.name) for c, e in pairs]
        for edge, (cause, effect) in zip(net.edges, pairs):
            curve = ccm_curve(cause, effect, cfg)
            assert edge.final_rho == curve.final_rho
            assert edge.convergent == curve.convergent
            assert edge.best_lag == eccm_profile(cause, effect, cfg, lags).best_lag
        assert net.warnings == tuple(
            f"{a}<->{b}: both directions converge with non-negative best "
            f"lags; likely synchronization by a strong driver, not mutual "
            f"causation" for a, b in [("X", "Y"), ("X", "W"), ("Y", "W")])

    def test_first_failing_pair_in_cause_major_order(self, coupled):
        # (X, Z) is the first failing pair in cause-major order; an
        # effect-major walk would meet (Z, X) first
        x, y = coupled
        z = TimeSeries("Z", y.values[:-10])
        with pytest.raises(DataError) as info:
            causal_summary([x, y, z], CFG)
        assert str(info.value) == "series lengths differ: 'X' has 800, 'Z' has 790"

    @settings(max_examples=40, deadline=None, database=None)
    @given(count=st.integers(2, 4), n=st.integers(6, 30), e_dim=st.integers(1, 3),
           lag=st.integers(-3, 3), top=st.none() | st.integers(6, 40),
           data=st.data())
    def test_network_fails_on_its_axis_or_as_its_first_curve(
            self, count, n, e_dim, lag, top, data):
        axes = [(n, 0)] * count
        if data.draw(st.booleans()):
            axes[data.draw(st.integers(0, count - 1))] = (
                data.draw(st.integers(6, 30)), data.draw(st.integers(-2, 2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 5)))
        group = [TimeSeries(name, rng.random(length), origin_index=origin)
                 for name, (length, origin) in zip("WXYZ", axes)]
        # a top size past the usable points makes every curve fail alike
        cfg = CcmConfig(e_dim=e_dim, lag=lag, samples_per_size=2,
                        lib_sizes=None if top is None else (e_dim + 2, top))
        expected = None
        for a, b in permutations(group, 2):
            if len(a) != len(b):
                expected = (f"series lengths differ: {a.name!r} has {len(a)}, "
                            f"{b.name!r} has {len(b)}")
            elif a.origin_index != b.origin_index:
                expected = "series must share a time origin"
            if expected:
                break
        else:
            try:
                ccm_curve(group[0], group[1], cfg)
            except DataError as err:
                expected = str(err)
        if expected is None:
            net = causal_summary(group, cfg)
            assert len(net.edges) == count * (count - 1)
        else:
            with pytest.raises(DataError) as info:
                causal_summary(group, cfg)
            assert str(info.value) == expected

    def test_lag_sweep_error_of_the_first_pair(self, coupled):
        x, y = coupled
        with pytest.raises(DataError,
                           match="every lag in the range left no valid targets"):
            causal_summary([x, y], CFG, eccm_lags=[900])

    def test_constant_effect_warns_on_both_edges(self, constant_effect_pair):
        x, y = constant_effect_pair
        cfg = CcmConfig(e_dim=2, samples_per_size=5)
        net = causal_summary([x, y], cfg, eccm_lags=range(-2, 3))
        # X=>Y embeds the constant Y; every Y=>X estimate is the constant Y
        assert net.warnings == (
            CONSTANT_Y,
            "Y=>X: 36 degenerate draws (zero-variance estimates) across the sweep")
        assert net.warnings == (ccm_curve(x, y, cfg).warnings
                                + ccm_curve(y, x, cfg).warnings)

    def test_duplicate_names_rejected(self, coupled):
        x, _ = coupled
        with pytest.raises(DataError, match="unique"):
            causal_summary([x, x], CFG)

    def test_synchronization_warning_for_identical_pair(self, coupled):
        # identical series converge both ways; over non-negative lags the
        # best lags cannot disambiguate, so the warning must fire
        x, _ = coupled
        twin = TimeSeries("W", x.values)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=5)
        net = causal_summary([x, twin], cfg, eccm_lags=range(0, 3))
        assert any("synchronization" in w for w in net.warnings)

    def test_true_causal_pair_gets_no_warning(self):
        x, y = gen_lagged_logistic(600, delay=2, coupling=0.1)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=5)
        net = causal_summary([x, y], cfg, eccm_lags=range(-4, 5))
        assert not net.warnings


class TestSharedEmbeddingDimension:
    def test_floor_applies(self):
        x, y = gen_unidirectional_logistic(600)
        assert shared_embedding_dimension(x, y) >= 2

    def test_uses_scan_maximum(self, coupled):
        x, y = coupled
        e = shared_embedding_dimension(x, y)
        assert 2 <= e <= 10


@st.composite
def tie_heavy_group(draw, count):
    """``count`` equal-length series on one origin, values rounded to 0-2
    decimals so that neighbor distances tie often."""
    n = draw(st.integers(6, 30))
    decimals = draw(st.integers(0, 2))
    origin = draw(st.integers(-3, 3))
    return [TimeSeries(name, [round(v, decimals) for v in draw(
                st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))],
                       origin_index=origin)
            for name in "XYZ"[:count]]


class TestSharedDistances:
    """The shared distance build and neighbor sweep give exactly what
    independent builds give."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(pair=tie_heavy_group(2), e_dim=st.integers(1, 3),
           lags=st.sets(st.integers(-6, 6), min_size=1, max_size=5))
    def test_eccm_rows_equal_per_lag_skill(self, pair, e_dim, lags):
        cause, effect = pair
        cfg = CcmConfig(e_dim=e_dim)
        try:
            profile = eccm_profile(cause, effect, cfg, lags)
        except DataError:
            reject()
        n_degenerate = 0
        for row in profile.rows:
            lagged = replace(cfg, lag=row.lag)
            if row.rho is None:
                with pytest.raises(DataError) as info:
                    cross_map_skill(cause, effect, lagged)
                assert str(info.value) == row.note
            else:
                stats = cross_map_skill(cause, effect, lagged)
                assert row.rho == stats.rho
                n_degenerate += stats.degenerate
        expected = [f"{cause.name}=>{effect.name}: {n_degenerate} degenerate lags "
                    f"(zero-variance estimates) across the sweep"] if n_degenerate else []
        assert [w for w in profile.warnings if "degenerate" in w] == expected

    @settings(max_examples=30, deadline=None, database=None)
    @given(group=tie_heavy_group(3), e_dim=st.integers(1, 3), data=st.data())
    def test_network_draws_equal_per_draw_skill(self, group, e_dim, data):
        n_points = len(group[0]) - (e_dim - 1)
        if n_points < e_dim + 3:
            reject()
        # one drawn library size, so each edge's final rho is the mean
        # over that size's seeded draws
        size = data.draw(st.integers(e_dim + 2, n_points - 1))
        cfg = CcmConfig(e_dim=e_dim, lib_sizes=(size,), samples_per_size=3,
                        seed=data.draw(st.integers(0, 5)))
        net = causal_summary(group, cfg)
        by_name = {s.name: s for s in group}
        times = embed(group[0], EmbeddingParams(e_dim)).times
        for edge in net.edges:
            rhos = np.empty(cfg.samples_per_size)
            for j in range(cfg.samples_per_size):
                rng = np.random.default_rng([cfg.seed, size, j])
                positions = np.sort(rng.choice(n_points, size=size, replace=False))
                rhos[j] = cross_map_skill(by_name[edge.cause], by_name[edge.effect],
                                          cfg, library_times=times[positions]).rho
            assert edge.final_rho == float(rhos.mean())

    @pytest.fixture()
    def builds(self, monkeypatch):
        # one entry per cross-map build: the number of manifold points
        calls = []
        build = crossmap.ccm.cross_estimates

        def counting(points, *args, **kwargs):
            calls.append(points.shape[0])
            return build(points, *args, **kwargs)

        monkeypatch.setattr(crossmap.ccm, "cross_estimates", counting)
        return calls

    def test_a_draw_build_narrower_than_k_sweeps_lags_like_a_wide_one(self):
        # at E = 64 a draw build's 64 columns are fewer than k = 65, so no
        # row is lag-stable; causal_summary's sweeps on those builds find
        # the best lags eccm_profile finds on builds of E + 2 columns
        x, y = gen_coupled_logistic(700)
        cfg = CcmConfig(e_dim=64, lib_sizes=(66, 300, 600), samples_per_size=2)
        net = causal_summary([x, y], cfg, eccm_lags=range(-2, 3))
        assert [edge.best_lag for edge in net.edges] == [
            eccm_profile(cause, effect, cfg, range(-2, 3)).best_lag
            for cause, effect in ((x, y), (y, x))]

    def test_lag_sweep_builds_once(self, coupled, builds):
        x, y = coupled
        profile = eccm_profile(x, y, CFG, range(-8, 9))
        assert len(profile.rows) == 17
        assert builds == [799]

    def test_misaligned_network_raises_before_any_build(self, coupled, builds):
        x, y = coupled
        z = TimeSeries("Z", y.values[:-10])
        for eccm_lags in (None, range(-3, 4)):
            with pytest.raises(DataError) as info:
                causal_summary([x, y, z], CFG, eccm_lags=eccm_lags)
            assert str(info.value) == "series lengths differ: 'X' has 800, 'Z' has 790"
            assert builds == []

    @pytest.mark.parametrize("eccm_lags, error", [
        ([0, 0.5], "must hold integers, got 0.5"), ([], "empty lag range")])
    def test_bad_lags_raise_before_any_build(self, coupled, builds, eccm_lags, error):
        x, y = coupled
        for run, name in ((lambda: eccm_profile(x, y, CFG, eccm_lags), "lag_range"),
                          (lambda: causal_summary([x, y], CFG, eccm_lags), "eccm_lags")):
            with pytest.raises(DataError) as info:
                run()
            assert str(info.value) == (f"{name} {error}" if eccm_lags else error)
        assert builds == []

    def test_lags_may_come_from_a_one_pass_iterator(self):
        # each effect sweeps the same lags, not what the first one left
        z, a, b = gen_moran_fork(200)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=3)
        assert causal_summary([z, a, b], cfg, iter(range(-3, 4))) \
            == causal_summary([z, a, b], cfg, range(-3, 4))

    def test_network_builds_once_per_effect(self, builds):
        z, a, b = gen_moran_fork(200)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=3)
        # the lag sweeps are views of the build the curves use
        for eccm_lags in (None, range(-3, 4)):
            builds.clear()
            causal_summary([z, a, b], cfg, eccm_lags=eccm_lags)
            assert builds == [199, 199, 199]


class TestTableWidth:
    """Builds read only through whole-library views keep k + _VIEW_SLACK
    columns; builds whose libraries are drawn keep _TABLE_WIDTH."""

    @pytest.fixture()
    def widths(self, monkeypatch):
        # the width asked of each neighbor-table build, in call order
        calls = []
        build = forecast._NeighborTable.build
        signature = inspect.signature(build)

        def recording(cls, *args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments["width"])
            return build(*args, **kwargs)

        monkeypatch.setattr(forecast._NeighborTable, "build", classmethod(recording))
        return calls

    @pytest.mark.parametrize("run, n_builds", [
        (lambda x, y: loo_skill(x, EmbeddingParams(3)), 1),
        (lambda x, y: train_test_skill(x, EmbeddingParams(3)), 1),
        (lambda x, y: select_embedding_dimension(x, e_range=[3, 3]), 1),
        (lambda x, y: cross_map_skill(x, y, CcmConfig(e_dim=3)), 1),
        (lambda x, y: cross_map_skill(x, y, CcmConfig(e_dim=3),
                                      library_times=np.arange(2, 300, 3)), 1),
        (lambda x, y: pai_cross_map(x, y, CcmConfig(e_dim=3)), 1),
        (lambda x, y: eccm_profile(x, y, CcmConfig(e_dim=3), range(-3, 4)), 1),
        (lambda x, y: shared_embedding_dimension(x, y, e_range=[3]), 2),
    ])
    def test_view_only_builds_are_narrow(self, coupled, widths, run, n_builds):
        run(*coupled)
        assert widths == [3 + 1 + forecast._VIEW_SLACK] * n_builds

    def test_the_scan_builds_each_e_narrow(self, coupled, widths):
        select_embedding_dimension(coupled[0], e_range=range(1, 5), split_fraction=0.7)
        assert widths == [e + 1 + forecast._VIEW_SLACK for e in range(1, 5)]

    @pytest.mark.parametrize("table_width", [None, 7])
    def test_builds_that_draw_libraries_are_full_width(self, widths, table_width):
        # the width is read at call time, so a mocked _TABLE_WIDTH holds
        z, a, b = gen_moran_fork(200)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=3)
        with mock.patch.object(forecast, "_TABLE_WIDTH",
                               table_width or forecast._TABLE_WIDTH):
            width = forecast._TABLE_WIDTH
            ccm_curve(z, a, cfg)
            assert widths == [width]
            for eccm_lags in (None, range(-3, 4)):
                widths.clear()
                causal_summary([z, a, b], cfg, eccm_lags=eccm_lags)
                assert widths == [width] * 3


class TestDrawOrder:
    @settings(max_examples=40, deadline=None, database=None)
    @given(pair=tie_heavy_group(2), e_dim=st.integers(1, 3),
           contiguous=st.booleans(), seed=st.integers(0, 5), data=st.data())
    def test_row_does_not_depend_on_the_size_grid(self, pair, e_dim, contiguous,
                                                  seed, data):
        # a curve's row at size L is the same from every grid holding L,
        # the full-library size included
        cause, effect = pair
        n_points = len(effect) - (e_dim - 1)
        if n_points < e_dim + 2:
            reject()
        size = st.integers(e_dim + 2, n_points)
        common = data.draw(size)
        grids = [(common,)] + [
            tuple(sorted(data.draw(st.sets(size, max_size=4)) | {common}))
            for _ in range(2)]
        rows = []
        for grid in grids:
            cfg = CcmConfig(e_dim=e_dim, lib_sizes=grid, samples_per_size=3,
                            seed=seed, contiguous_draws=contiguous)
            rows.append({r.lib_size: r for r in ccm_curve(cause, effect, cfg).rows})
        for lib_size in set(rows[1]) & set(rows[2]):
            assert rows[1][lib_size] == rows[2][lib_size]
        assert rows[0][common] == rows[1][common] == rows[2][common]


class TestDrawGroups:
    """:meth:`_CrossMap.skills` scores a size's draws in groups of at most
    max(1, ``_BLOCK_CELLS`` // (targets k)), drawn in order, and the full
    library as one draw; how they are grouped moves no number."""

    @pytest.mark.parametrize("contiguous", [False, True])
    @pytest.mark.parametrize("cells", [1, 2 ** 11, 2 ** 30])
    def test_groups_split_a_size_without_moving_a_number(self, cells, contiguous):
        z, a, _ = gen_moran_fork(200)
        cfg = CcmConfig(e_dim=2, seed=0, samples_per_size=7,
                        contiguous_draws=contiguous)
        want = ccm_curve(z, a, cfg)
        groups, score = [], forecast._CrossMap._score

        def recording(cross_map, series, draws):
            groups.append(len(draws))
            return score(cross_map, series, draws)

        with mock.patch.object(forecast, "_BLOCK_CELLS", cells), \
                mock.patch.object(forecast._CrossMap, "_score", recording):
            got = ccm_curve(z, a, cfg)
        assert got == want
        # 199 targets and k = 3 neighbors each
        size = max(1, cells // (199 * 3))
        split = [min(size, 7 - first) for first in range(0, 7, size)]
        assert groups == split * (len(want.rows) - 1) + [1]
