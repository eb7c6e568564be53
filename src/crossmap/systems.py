"""Deterministic, seedable generators for the synthetic benchmark systems.

Every generator is a pure function of its arguments; the only stochastic
option (the moran-fork noise driver) consumes an explicit seed. Logistic-
family trajectories are checked to stay inside [0, 1] at every step and
generation aborts with the offending step otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .core import DataError, NumericalError, TimeSeries, _check_seed

__all__ = [
    "GeneratorSpec",
    "generate",
    "gen_coupled_logistic",
    "gen_unidirectional_logistic",
    "gen_lagged_logistic",
    "gen_moran_fork",
    "gen_lorenz",
]


def _check_args(steps: int, burn_in: int, **numbers: float) -> None:
    """Every generator's check of ``steps`` (an integer >= 1, the values
    returned), ``burn_in`` (an integer >= 0, the leading steps dropped)
    and its real-valued parameters ``numbers`` (name=value), each of
    which must be a real number: bools and numpy numbers are, text and
    None are not."""
    for name, value, least in (("steps", steps, 1), ("burn_in", burn_in, 0)):
        if not isinstance(value, Integral):
            raise DataError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise DataError(f"{name} must be >= {least}, got {value}")
    for name, value in numbers.items():
        if not isinstance(value, Real):
            raise DataError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of one synthetic-system run."""

    kind: str
    steps: int
    params: dict = field(default_factory=dict)
    seed: int = 0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise DataError(
                f"unknown system {self.kind!r}; choose from {', '.join(GENERATOR_KINDS)}")
        _check_args(self.steps, self.burn_in)
        _check_seed(self.seed)


def _check_unit(value: float, step: int, label: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise NumericalError(
            f"{label} left [0,1] at step {step}: {float(value)!r}; "
            f"parameters outside the supported range")
    return value


def _iterate_logistic(steps: int, burn_in: int, state: list[float],
                      advance: Callable[[int, list[float]], list[float]],
                      labels: tuple[str, ...]) -> list[np.ndarray]:
    total = steps + burn_in
    out = [np.empty(total) for _ in labels]
    for t in range(total):
        if t:
            state = advance(t, state)
        for i, (v, label) in enumerate(zip(state, labels)):
            out[i][t] = _check_unit(v, t, label)
    return [col[burn_in:] for col in out]


def gen_coupled_logistic(steps: int, x0: float = 0.2, y0: float = 0.5,
                         rx: float = 3.8, ry: float = 3.8,
                         bxy: float = 0.02, byx: float = 0.08,
                         burn_in: int = 0) -> tuple[TimeSeries, TimeSeries]:
    """Bidirectionally coupled logistic pair.

        X[t+1] = rx * X[t] * (1 - X[t]) - bxy * X[t] * Y[t]
        Y[t+1] = ry * Y[t] * (1 - Y[t]) - byx * Y[t] * X[t]

    With the defaults, X's influence on Y (byx = 0.08) is the stronger
    causal direction. ``steps`` counts output values; index 0 is the
    initial condition unless ``burn_in`` discards leading steps.
    """
    _check_args(steps, burn_in, x0=x0, y0=y0, rx=rx, ry=ry, bxy=bxy, byx=byx)

    def advance(_t: int, s: list[float]) -> list[float]:
        x, y = s
        return [rx * x * (1.0 - x) - bxy * x * y,
                ry * y * (1.0 - y) - byx * y * x]

    xs, ys = _iterate_logistic(steps, burn_in, [x0, y0], advance, ("X", "Y"))
    return TimeSeries("X", xs), TimeSeries("Y", ys)


def gen_unidirectional_logistic(steps: int, x0: float = 0.2, y0: float = 0.5,
                                burn_in: int = 0) -> tuple[TimeSeries, TimeSeries]:
    """One-way variant: Y evolves autonomously and drives X.

        X[t+1] = 3.8 * X[t] * (1 - X[t]) - 0.02 * X[t] * Y[t]
        Y[t+1] = 3.8 * Y[t] * (1 - Y[t]) - 0.08 * Y[t]

    The linear -0.08*Y term is kept exactly as written; the only causal
    edge is Y => X.
    """
    _check_args(steps, burn_in, x0=x0, y0=y0)

    def advance(_t: int, s: list[float]) -> list[float]:
        x, y = s
        return [3.8 * x * (1.0 - x) - 0.02 * x * y,
                3.8 * y * (1.0 - y) - 0.08 * y]

    xs, ys = _iterate_logistic(steps, burn_in, [x0, y0], advance, ("X", "Y"))
    return TimeSeries("X", xs), TimeSeries("Y", ys)


def gen_lagged_logistic(steps: int, delay: int = 2, coupling: float = 0.1,
                        x0: float = 0.2, y0: float = 0.5,
                        burn_in: int = 0) -> tuple[TimeSeries, TimeSeries]:
    """Unidirectional pair where X drives Y after a known delay.

        X[t+1] = 3.8 * X[t] * (1 - X[t])
        Y[t+1] = 3.8 * Y[t] * (1 - Y[t]) - coupling * Y[t] * X[t + 1 - delay]

    The value of Y at time t is shaped by X exactly ``delay`` steps
    earlier, so a cross-map lag sweep on the claim X => Y recovers
    -delay. X references before time 0 are clamped to x0. ``delay`` = 1
    is the contemporaneous-coupling case (Y[t+1] driven by X[t]).
    """
    _check_args(steps, burn_in, coupling=coupling, x0=x0, y0=y0)
    if not isinstance(delay, Real):
        raise DataError(f"delay must be an integer, got {delay!r}")
    if not isinstance(delay, Integral) or delay < 0:
        raise DataError(f"delay must be an integer >= 0, got {delay}")
    # a Python int: t - delay on a numpy unsigned delay would wrap
    delay = int(delay)
    # X is autonomous, so it is iterated in full first; Y then reads it
    (xs,) = _iterate_logistic(steps + burn_in, 0, [x0],
                              lambda _t, s: [3.8 * s[0] * (1.0 - s[0])], ("X",))

    def advance(t: int, s: list[float]) -> list[float]:
        drive = xs[t - delay] if t - delay >= 0 else x0
        y = s[0]
        return [3.8 * y * (1.0 - y) - coupling * y * drive]

    (ys,) = _iterate_logistic(steps, burn_in, [y0], advance, ("Y",))
    return TimeSeries("X", xs[burn_in:]), TimeSeries("Y", ys)


def gen_moran_fork(steps: int, coupling: float = 0.1,
                   driver_kind: str = "logistic", seed: int = 0,
                   burn_in: int = 0) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Shared-driver fork: Z forces both A and B, which never interact.

        Z: autonomous logistic, r = 3.8, z0 = 0.4 (or seeded noise)
        A[t+1] = 3.7 * A[t] * (1 - A[t]) - coupling * A[t] * Z[t],  a0 = 0.2
        B[t+1] = 3.9 * B[t] * (1 - B[t]) - coupling * B[t] * Z[t],  b0 = 0.6

    ``driver_kind`` "noise" replaces the logistic Z with seeded uniform
    values on [0, 1] (a non-deterministic environmental driver, still
    reproducible from the seed). ``seed`` must be a non-negative integer
    with either driver, although only the noise driver reads it.
    """
    _check_args(steps, burn_in, coupling=coupling)
    _check_seed(seed)
    total = steps + burn_in
    if driver_kind == "logistic":
        (zs,) = _iterate_logistic(total, 0, [0.4],
                                  lambda _t, s: [3.8 * s[0] * (1.0 - s[0])], ("Z",))
    elif driver_kind == "noise":
        zs = np.random.default_rng(seed).uniform(0.0, 1.0, size=total)
    else:
        raise DataError(f"unknown driver kind {driver_kind!r}; use logistic or noise")

    def advance(t: int, s: list[float]) -> list[float]:
        a, b = s
        z = zs[t - 1]
        return [3.7 * a * (1.0 - a) - coupling * a * z,
                3.9 * b * (1.0 - b) - coupling * b * z]

    a, b = _iterate_logistic(steps, burn_in, [0.2, 0.6], advance, ("A", "B"))
    return TimeSeries("Z", zs[burn_in:]), TimeSeries("A", a), TimeSeries("B", b)


def _lorenz_deriv(s: np.ndarray, sigma: float, rho: float, beta: float) -> np.ndarray:
    x, y, z = s
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def gen_lorenz(steps: int, dt: float = 0.01, sigma: float = 10.0,
               rho: float = 28.0, beta: float = 8.0 / 3.0,
               initial: tuple[float, float, float] = (1.0, 1.0, 1.0),
               burn_in: int = 0) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Lorenz system integrated with fixed-step 4th-order Runge-Kutta.

    Classic chaotic parameters by default; one sample per integration
    step, sample 0 = the initial state.
    """
    _check_args(steps, burn_in, dt=dt, sigma=sigma, rho=rho, beta=beta)
    if not dt > 0:
        raise DataError(f"dt must be positive, got {dt}")
    total = steps + burn_in
    out = np.empty((total, 3))
    try:
        s = np.asarray(initial, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"initial state must be three numbers, got {initial!r}") from None
    if s.shape != (3,):
        raise DataError("initial state must have three components")
    out[0] = s
    for t in range(1, total):
        # an escaping state overflows mid-step; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _lorenz_deriv(s, sigma, rho, beta)
            k2 = _lorenz_deriv(s + 0.5 * dt * k1, sigma, rho, beta)
            k3 = _lorenz_deriv(s + 0.5 * dt * k2, sigma, rho, beta)
            k4 = _lorenz_deriv(s + dt * k3, sigma, rho, beta)
            s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(s)):
            raise NumericalError(f"Lorenz state became non-finite at step {t}")
        out[t] = s
    out = out[burn_in:]
    return (TimeSeries("X", out[:, 0]), TimeSeries("Y", out[:, 1]),
            TimeSeries("Z", out[:, 2]))


_DISPATCH: dict[str, Callable] = {
    "coupled_logistic": gen_coupled_logistic,
    "unidirectional_logistic": gen_unidirectional_logistic,
    "lagged_logistic": gen_lagged_logistic,
    "moran_fork": gen_moran_fork,
    "lorenz": gen_lorenz,
}
GENERATOR_KINDS = tuple(_DISPATCH)


def generate(spec: GeneratorSpec) -> tuple[TimeSeries, ...]:
    """Run the generator described by ``spec`` and return its series; the
    generator checks the parameters."""
    fn = _DISPATCH[spec.kind]
    kwargs = dict(spec.params)
    if spec.kind == "moran_fork":
        kwargs.setdefault("seed", spec.seed)
    try:
        return fn(spec.steps, burn_in=spec.burn_in, **kwargs)
    except TypeError as err:
        raise DataError(f"bad parameters for {spec.kind}: {err}") from None
