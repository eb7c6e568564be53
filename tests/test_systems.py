import re
import warnings

import numpy as np
import pytest

from crossmap import DataError, NumericalError
from crossmap.systems import (GENERATOR_KINDS, GeneratorSpec,
                              gen_coupled_logistic, gen_lagged_logistic,
                              gen_lorenz, gen_moran_fork,
                              gen_unidirectional_logistic, generate)


def logistic_iterates(n, x0, r):
    v = np.empty(n)
    v[0] = x0
    for t in range(1, n):
        v[t] = r * v[t - 1] * (1.0 - v[t - 1])
    return v


class TestCoupledLogistic:
    def test_first_step_hand_values(self):
        x, y = gen_coupled_logistic(2)
        assert x.values[0] == 0.2 and y.values[0] == 0.5
        assert x.values[1] == pytest.approx(0.606, abs=1e-12)
        assert y.values[1] == pytest.approx(0.942, abs=1e-12)

    def test_decoupled_equals_univariate(self):
        x, y = gen_coupled_logistic(300, bxy=0.0, byx=0.0)
        assert np.array_equal(x.values, logistic_iterates(300, 0.2, 3.8))
        assert np.array_equal(y.values, logistic_iterates(300, 0.5, 3.8))

    def test_stays_in_unit_interval(self):
        x, y = gen_coupled_logistic(10_000)
        for s in (x, y):
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_escape_reports_step(self):
        with pytest.raises(NumericalError, match="step"):
            gen_coupled_logistic(1000, rx=4.2)

    def test_burn_in_is_a_shift(self):
        full_x, full_y = gen_coupled_logistic(250)
        x, y = gen_coupled_logistic(200, burn_in=50)
        assert np.array_equal(x.values, full_x.values[50:])
        assert np.array_equal(y.values, full_y.values[50:])

    def test_steps_validation(self):
        with pytest.raises(DataError):
            gen_coupled_logistic(0)


@pytest.mark.parametrize("gen,kwargs,message", [
    (gen_coupled_logistic, {"x0": 1.5}, "X left [0,1] at step 0: 1.5;"),
    (gen_coupled_logistic, {"y0": float("nan")}, "Y left [0,1] at step 0: nan;"),
    (gen_unidirectional_logistic, {"y0": -0.2}, "Y left [0,1] at step 0: -0.2;"),
    (gen_lagged_logistic, {"x0": 1.5}, "X left [0,1] at step 0: 1.5;"),
    (gen_lagged_logistic, {"y0": -0.2}, "Y left [0,1] at step 0: -0.2;"),
])
@pytest.mark.parametrize("steps", [1, 50])
def test_an_initial_state_outside_the_unit_interval_raises(gen, kwargs, message, steps):
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}"):
        gen(steps, **kwargs)


class TestUnidirectionalLogistic:
    def test_first_step_hand_values(self):
        x, y = gen_unidirectional_logistic(2)
        # 3.8*0.5*0.5 - 0.08*0.5 = 0.91
        assert y.values[1] == pytest.approx(0.91, abs=1e-12)
        # the X update matches the bidirectional generator exactly
        bx, _ = gen_coupled_logistic(2)
        assert x.values[1] == bx.values[1]

    def test_y_is_autonomous(self):
        _, y1 = gen_unidirectional_logistic(200, x0=0.2)
        _, y2 = gen_unidirectional_logistic(200, x0=0.9)
        assert np.array_equal(y1.values, y2.values)

    def test_stays_in_unit_interval(self):
        x, y = gen_unidirectional_logistic(10_000)
        for s in (x, y):
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0


class TestLaggedLogistic:
    def test_x_is_autonomous_logistic(self):
        x, _ = gen_lagged_logistic(300, delay=2, coupling=0.1)
        assert np.array_equal(x.values, logistic_iterates(300, 0.2, 3.8))

    def test_zero_coupling_decouples(self):
        _, y = gen_lagged_logistic(300, delay=3, coupling=0.0)
        assert np.array_equal(y.values, logistic_iterates(300, 0.5, 3.8))

    def test_recurrence_oracle(self):
        # independent reimplementation of the documented update rule
        d, c = 3, 0.2
        x, y = gen_lagged_logistic(50, delay=d, coupling=c)
        for t in range(1, 50):
            i = t - d
            drive = x.values[i] if i >= 0 else 0.2
            want = 3.8 * y.values[t - 1] * (1 - y.values[t - 1]) \
                - c * y.values[t - 1] * drive
            assert y.values[t] == pytest.approx(want, abs=1e-15)

    def test_delay_one_is_contemporaneous_coupling(self):
        x, y = gen_lagged_logistic(100, delay=1, coupling=0.08)
        for t in range(1, 100):
            want = 3.8 * y.values[t - 1] * (1 - y.values[t - 1]) \
                - 0.08 * y.values[t - 1] * x.values[t - 1]
            assert y.values[t] == pytest.approx(want, abs=1e-15)

    def test_stays_in_unit_interval(self):
        for d in (1, 2, 4):
            x, y = gen_lagged_logistic(10_000, delay=d, coupling=0.1)
            for s in (x, y):
                assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(DataError):
            gen_lagged_logistic(100, delay=-1)

    @pytest.mark.parametrize("delay", [2.0, "2"])
    def test_non_integer_delay_rejected(self, delay):
        with pytest.raises(DataError,
                           match=f"^delay must be an integer >= 0, got {delay}$"):
            gen_lagged_logistic(100, delay=delay)

    def test_a_numpy_integer_delay_is_an_integer(self):
        for got, want in zip(gen_lagged_logistic(50, delay=np.uint8(3)),
                             gen_lagged_logistic(50, delay=3)):
            assert np.array_equal(got.values, want.values)


class TestMoranFork:
    def test_deterministic(self):
        a = gen_moran_fork(500)
        b = gen_moran_fork(500)
        for s, t in zip(a, b):
            assert np.array_equal(s.values, t.values)

    def test_zero_coupling_decouples_everything(self):
        z, a, b = gen_moran_fork(300, coupling=0.0)
        assert np.array_equal(z.values, logistic_iterates(300, 0.4, 3.8))
        assert np.array_equal(a.values, logistic_iterates(300, 0.2, 3.7))
        assert np.array_equal(b.values, logistic_iterates(300, 0.6, 3.9))

    def test_stays_in_unit_interval(self):
        for s in gen_moran_fork(10_000):
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_noise_driver_consumes_seed(self):
        z1, a1, _ = gen_moran_fork(200, driver_kind="noise", seed=1)
        z2, _, _ = gen_moran_fork(200, driver_kind="noise", seed=1)
        z3, _, _ = gen_moran_fork(200, driver_kind="noise", seed=2)
        assert np.array_equal(z1.values, z2.values)
        assert not np.array_equal(z1.values, z3.values)
        assert a1.values.min() >= 0.0

    def test_unknown_driver(self):
        with pytest.raises(DataError):
            gen_moran_fork(100, driver_kind="sine")

    def test_negative_noise_seed_rejected(self):
        with pytest.raises(DataError, match="^seed must be non-negative, got -1$"):
            gen_moran_fork(100, driver_kind="noise", seed=-1)
        with pytest.raises(DataError, match="^seed must be non-negative, got -1$"):
            generate(GeneratorSpec(kind="moran_fork", steps=100,
                                   params={"driver_kind": "noise"}, seed=-1))

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_a_non_integer_noise_seed_raises_data_error(self, seed):
        with pytest.raises(DataError, match=f"^seed must be an integer, got "
                                            f"{re.escape(repr(seed))}$"):
            gen_moran_fork(5, driver_kind="noise", seed=seed)

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
    ])
    def test_the_logistic_driver_checks_the_seed_too(self, seed, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            gen_moran_fork(10, seed=seed)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            generate(GeneratorSpec("moran_fork", 10, params={"seed": seed}))

    def test_a_numpy_integer_noise_seed_is_an_integer(self):
        for got, want in zip(gen_moran_fork(20, driver_kind="noise", seed=np.int64(3)),
                             gen_moran_fork(20, driver_kind="noise", seed=3)):
            assert np.array_equal(got.values, want.values)


class TestLorenz:
    def test_zero_initial_is_fixed_point(self):
        for s in gen_lorenz(50, initial=(0.0, 0.0, 0.0)):
            assert not s.values.any()

    def test_step_halving_consistency(self):
        coarse = gen_lorenz(101, dt=0.01)
        fine = gen_lorenz(201, dt=0.005)
        for c, f in zip(coarse, fine):
            assert np.max(np.abs(c.values - f.values[::2])) < 1e-3

    def test_finite_long_run(self):
        for s in gen_lorenz(5000):
            assert np.all(np.isfinite(s.values))

    def test_wing_dependent_correlation_sign(self):
        from crossmap import windowed_pearson
        x, _, z = gen_lorenz(4000)
        assert windowed_pearson(x, z, 100, 400) < -0.3
        assert windowed_pearson(x, z, 2900, 3200) > 0.3

    def test_bad_dt(self):
        with pytest.raises(DataError):
            gen_lorenz(10, dt=0.0)

    def test_a_nan_dt_is_not_positive(self):
        with pytest.raises(DataError, match="^dt must be positive, got nan$"):
            gen_lorenz(5, dt=float("nan"))

    @pytest.mark.parametrize("initial", ["abc", ("a", 1.0, 1.0), {"x": 1.0}])
    def test_non_numeric_initial_rejected(self, initial):
        with pytest.raises(DataError, match="^initial state must be three numbers"):
            gen_lorenz(10, initial=initial)

    def test_escaping_state_raises_without_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                gen_lorenz(2000, dt=0.5)


BAD_LENGTHS = [
    (0, 0, "steps must be >= 1, got 0"),
    (5, -1, "burn_in must be >= 0, got -1"),
    (5, -3, "burn_in must be >= 0, got -3"),
    (2.5, 0, "steps must be an integer, got 2.5"),
    ("10", 0, "steps must be an integer, got '10'"),
    (5, 1.0, "burn_in must be an integer, got 1.0"),
]


@pytest.mark.parametrize("gen", [gen_coupled_logistic, gen_unidirectional_logistic,
                                 gen_lagged_logistic, gen_moran_fork, gen_lorenz],
                         ids=lambda gen: gen.__name__)
class TestLengthCheck:
    """Every generator returns ``steps`` values per series, and one check
    rejects any other length with a :class:`DataError`."""

    @pytest.mark.parametrize("steps, burn_in", [(1, 0), (5, 0), (5, 3), (np.int64(4), 0)])
    def test_each_series_holds_steps_values(self, gen, steps, burn_in):
        assert [len(s) for s in gen(steps, burn_in=burn_in)] == [steps] * len(gen(1))

    @pytest.mark.parametrize("steps, burn_in, text", BAD_LENGTHS)
    def test_a_bad_length_raises_data_error(self, gen, steps, burn_in, text):
        with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
            gen(steps, burn_in=burn_in)


class TestGeneratorSpec:
    @pytest.mark.parametrize("steps, burn_in, text", BAD_LENGTHS)
    def test_a_bad_length_raises_data_error(self, steps, burn_in, text):
        with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
            GeneratorSpec(kind="coupled_logistic", steps=steps, burn_in=burn_in)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_a_non_integer_seed_raises_data_error(self, seed):
        with pytest.raises(DataError, match=f"^seed must be an integer, got "
                                            f"{re.escape(repr(seed))}$"):
            GeneratorSpec(kind="coupled_logistic", steps=10, seed=seed)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_a_negative_seed_raises_data_error(self, kind):
        # also for the kinds whose generators never read it
        with pytest.raises(DataError, match="^seed must be non-negative, got -1$"):
            GeneratorSpec(kind=kind, steps=10, seed=-1)

    def test_a_non_integer_seed_param_raises_data_error(self):
        spec = GeneratorSpec(kind="moran_fork", steps=10,
                             params={"driver_kind": "noise", "seed": 1.5})
        with pytest.raises(DataError, match="^seed must be an integer, got 1.5$"):
            generate(spec)

    def test_dispatch_with_params(self):
        spec = GeneratorSpec(kind="lagged_logistic", steps=100,
                             params={"delay": 4, "coupling": 0.2})
        x, y = generate(spec)
        direct_x, direct_y = gen_lagged_logistic(100, delay=4, coupling=0.2)
        assert np.array_equal(x.values, direct_x.values)
        assert np.array_equal(y.values, direct_y.values)

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            GeneratorSpec(kind="henon", steps=10)

    def test_bad_counts(self):
        with pytest.raises(DataError):
            GeneratorSpec(kind="lorenz", steps=0)
        with pytest.raises(DataError):
            GeneratorSpec(kind="lorenz", steps=10, burn_in=-1)

    def test_bad_param_name(self):
        spec = GeneratorSpec(kind="lorenz", steps=10, params={"zeta": 1.0})
        with pytest.raises(DataError, match="parameters"):
            generate(spec)

    @pytest.mark.parametrize("kind,params,message", [
        ("lagged_logistic", {"coupling": "abc"}, "coupling must be a number, got 'abc'"),
        ("coupled_logistic", {"bxy": (0.1, 0.2)},
         "bxy must be a number, got (0.1, 0.2)"),
        ("lorenz", {"dt": "0.01"}, "dt must be a number, got '0.01'"),
        ("moran_fork", {"seed": "3"}, "seed must be an integer, got '3'"),
        ("lagged_logistic", {"delay": "2"}, "delay must be an integer, got '2'"),
    ], ids=["text-coupling", "tuple-rate", "text-dt", "text-seed", "text-delay"])
    def test_text_for_a_numeric_param_names_it(self, kind, params, message):
        with pytest.raises(DataError) as info:
            generate(GeneratorSpec(kind=kind, steps=10, params=params))
        assert str(info.value) == message

    def test_numeric_params_accept_ints_and_numpy_floats(self):
        spec = GeneratorSpec(kind="lagged_logistic", steps=50,
                             params={"coupling": np.float64(0.2), "x0": 0})
        x, y = generate(spec)
        want = gen_lagged_logistic(50, coupling=0.2, x0=0.0)
        assert np.array_equal(y.values, want[1].values)

    def test_seed_reaches_noise_driver(self):
        spec1 = GeneratorSpec(kind="moran_fork", steps=100,
                              params={"driver_kind": "noise"}, seed=5)
        spec2 = GeneratorSpec(kind="moran_fork", steps=100,
                              params={"driver_kind": "noise"}, seed=6)
        z1 = generate(spec1)[0]
        z2 = generate(spec2)[0]
        assert not np.array_equal(z1.values, z2.values)

    def test_burn_in_shift_property(self):
        for kind in ("coupled_logistic", "unidirectional_logistic",
                     "lagged_logistic", "moran_fork", "lorenz"):
            full = generate(GeneratorSpec(kind=kind, steps=150))
            cut = generate(GeneratorSpec(kind=kind, steps=100, burn_in=50))
            for f, c in zip(full, cut):
                assert np.array_equal(c.values, f.values[50:])
