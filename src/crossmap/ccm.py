"""Convergent cross mapping, lag sweeps, and causal-network summaries.

Testing the claim "cause => effect" always embeds the EFFECT series and
estimates the CAUSE from its shadow manifold: if the cause drives the
effect, its information is recoverable there. Convergence of the skill
as the library grows is the causality signature; a rising curve that
plateaus supports the claim, a flat one rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, permutations
from typing import Sequence

import numpy as np
from scipy.stats import kendalltau

from .core import DataError, SkillStats, TimeSeries
from .embedding import EmbeddingParams, embed
from .forecast import _observed_under, cross_estimates, select_embedding_dimension

__all__ = [
    "CcmConfig",
    "CurveRow",
    "ConvergenceDecision",
    "CcmCurve",
    "EccmRow",
    "EccmProfile",
    "CausalEdge",
    "CausalNetwork",
    "default_library_sizes",
    "shared_embedding_dimension",
    "cross_map_skill",
    "ccm_curve",
    "convergence_test",
    "pai_cross_map",
    "eccm_profile",
    "causal_summary",
]

# fewest library sizes the convergence test can judge a curve from
MIN_CONVERGENCE_SIZES = 3
# sizes in the default library grid, and the floor of the shared E
DEFAULT_LIB_SIZE_COUNT = 8
MIN_SHARED_E_DIM = 2


@dataclass(frozen=True)
class CcmConfig:
    """Cross-mapping parameters.

    ``lib_sizes`` of None means :func:`default_library_sizes` from E+2
    (the smallest library that leaves E+1 neighbors after
    self-exclusion) up to every admissible point. Library draws are
    uniform random subsets without replacement; ``contiguous_draws``
    switches to random contiguous segments for comparison. The three
    ``min_*`` values are the convergence-test thresholds.
    """

    e_dim: int
    tau: int = 1
    lag: int = 0
    lib_sizes: tuple[int, ...] | None = None
    samples_per_size: int = 100
    seed: int = 0
    contiguous_draws: bool = False
    min_rho_gain: float = 0.10
    min_kendall_tau: float = 0.5
    min_final_rho: float = 0.2

    def __post_init__(self) -> None:
        if self.e_dim < 1:
            raise DataError(f"embedding dimension must be >= 1, got {self.e_dim}")
        if self.tau < 1:
            raise DataError(f"delay tau must be >= 1, got {self.tau}")
        if self.samples_per_size < 1:
            raise DataError(f"samples_per_size must be >= 1, got {self.samples_per_size}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.lib_sizes is not None:
            sizes = tuple(int(s) for s in self.lib_sizes)
            if len(sizes) == 0:
                raise DataError("lib_sizes must not be empty")
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise DataError(f"lib_sizes must be strictly increasing: {sizes}")
            if sizes[0] < self.e_dim + 2:
                raise DataError(
                    f"minimum library size is E+2 = {self.e_dim + 2} "
                    f"(E+1 neighbors plus self-exclusion), got {sizes[0]}")
            object.__setattr__(self, "lib_sizes", sizes)

    @property
    def min_lib_size(self) -> int:
        return self.e_dim + 2


@dataclass(frozen=True)
class CurveRow:
    lib_size: int
    mean_rho: float
    sd_rho: float
    samples_used: int
    degenerate_draws: int = 0


@dataclass(frozen=True)
class ConvergenceDecision:
    """Outcome of the three-part convergence rule (see convergence_test)."""

    convergent: bool
    final_rho: float
    rho_gain: float
    trend: float


@dataclass(frozen=True)
class CcmCurve:
    """Cross-map skill as a function of library size for one causal claim;
    ``warnings`` name a constant effect, degenerate draws or a skipped
    convergence test."""

    direction: str
    rows: tuple[CurveRow, ...]
    decision: ConvergenceDecision
    warnings: tuple[str, ...] = ()

    @property
    def convergent(self) -> bool:
        return self.decision.convergent

    @property
    def final_rho(self) -> float:
        return self.decision.final_rho


@dataclass(frozen=True)
class EccmRow:
    lag: int
    rho: float | None
    note: str | None = None


@dataclass(frozen=True)
class EccmProfile:
    """Cross-map skill versus prediction lag at the full library, with warnings."""

    direction: str
    rows: tuple[EccmRow, ...]
    best_lag: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CausalEdge:
    cause: str
    effect: str
    final_rho: float
    convergent: bool
    best_lag: int | None = None


@dataclass(frozen=True)
class CausalNetwork:
    """Directed-edge table over a set of series; no transitive closure."""

    series_names: tuple[str, ...]
    edges: tuple[CausalEdge, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)


def default_library_sizes(min_size: int, max_size: int) -> tuple[int, ...]:
    """Up to ``DEFAULT_LIB_SIZE_COUNT`` geometric sizes from min_size to max_size."""
    if min_size > max_size:
        raise DataError(
            f"not enough admissible points: need at least {min_size}, have {max_size}")
    if min_size == max_size:
        return (min_size,)
    grid = np.geomspace(min_size, max_size, DEFAULT_LIB_SIZE_COUNT)
    sizes = np.unique(np.rint(grid).astype(int))
    sizes = sizes[(sizes >= min_size) & (sizes <= max_size)]
    out = sorted({min_size, max_size, *sizes.tolist()})
    return tuple(int(s) for s in out)


def shared_embedding_dimension(*series: TimeSeries, e_range=range(1, 11),
                               tau: int = 1) -> int:
    """Embedding dimension for cross mapping a group of series.

    The largest per-series best E from the simplex scan, floored at
    ``MIN_SHARED_E_DIM``: a near-autonomous driver predicts itself
    perfectly at E=1, but one coordinate cannot resolve two variables.
    """
    best = max(select_embedding_dimension(s, e_range=e_range, tau=tau).best_e
               for s in series)
    return max(MIN_SHARED_E_DIM, best)


def _check_pair(a: TimeSeries, b: TimeSeries) -> None:
    if len(a) != len(b):
        raise DataError(
            f"series lengths differ: {a.name!r} has {len(a)}, "
            f"{b.name!r} has {len(b)}")
    if a.origin_index != b.origin_index:
        raise DataError("series must share a time origin")


def _constant_effect(cause: TimeSeries, effect: TimeSeries) -> tuple[str, ...]:
    """A warning when the effect is constant: its manifold is one point."""
    if effect.values.min() < effect.values.max():
        return ()
    return (f"{cause.name}=>{effect.name}: effect {effect.name!r} is constant; "
            f"every distance is 0, so neighbors are the earliest library times",)


def _effect_cross_map(cause: TimeSeries, effect: TimeSeries, config: CcmConfig,
                      library_times: Sequence[int] | np.ndarray | None = None):
    """Check the pair, embed the effect and build its cross map onto the
    cause at lag 0; every lag is a view of it (see :func:`_at_lag`)."""
    _check_pair(cause, effect)
    manifold = embed(effect, EmbeddingParams(e_dim=config.e_dim, tau=config.tau))
    lib = np.asarray(library_times, dtype=int) if library_times is not None else None
    return cross_estimates(manifold.points, manifold.times, cause,
                           config.e_dim + 1, lib_times=lib)


def _at_lag(full, lag: int, config: CcmConfig):
    """The lag-0 build ``full`` under ``lag``, once at least E+2 of the
    manifold's times have a cause value at time + lag."""
    n_usable = _observed_under(full.target_times, full.values, lag).size
    if n_usable < config.min_lib_size:
        raise DataError(
            f"only {n_usable} usable points after shifting by lag "
            f"{lag}; need at least {config.min_lib_size}")
    return full.shifted(lag)


def cross_map_skill(cause: TimeSeries, effect: TimeSeries, config: CcmConfig,
                    library_times: Sequence[int] | np.ndarray | None = None,
                    ) -> SkillStats:
    """Skill of estimating the cause from the effect's shadow manifold.

    Embeds ``effect``, finds each state's E+1 nearest neighbors among the
    library points (the state's own time excluded), and estimates
    cause(t + lag) as the weighted average of cause at the neighbors'
    times + lag. High convergent skill supports the claim cause => effect.
    """
    return _at_lag(_effect_cross_map(cause, effect, config, library_times),
                   config.lag, config).skill()


def convergence_test(rows: Sequence[CurveRow],
                     min_rho_gain: float = 0.10,
                     min_kendall_tau: float = 0.5,
                     min_final_rho: float = 0.2) -> ConvergenceDecision:
    """Decide convergence of a skill-vs-library-size curve.

    Convergent iff all three hold: the skill gain from the smallest to
    the largest library exceeds ``min_rho_gain``; Kendall's tau of
    (L, mean_rho) exceeds ``min_kendall_tau``; and the final skill
    exceeds ``min_final_rho``.
    """
    if len(rows) < MIN_CONVERGENCE_SIZES:
        raise DataError(f"convergence test needs >= {MIN_CONVERGENCE_SIZES} "
                        f"library sizes, got {len(rows)}")
    sizes = [r.lib_size for r in rows]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DataError("curve rows must be sorted by increasing library size")
    rhos = [r.mean_rho for r in rows]
    final = rhos[-1]
    gain = final - rhos[0]
    tau = kendalltau(sizes, rhos).statistic
    trend = float(tau) if np.isfinite(tau) else 0.0
    convergent = (gain > min_rho_gain) and (trend > min_kendall_tau) \
        and (final > min_final_rho)
    return ConvergenceDecision(convergent=convergent, final_rho=float(final),
                               rho_gain=float(gain), trend=trend)


def ccm_curve(cause: TimeSeries, effect: TimeSeries, config: CcmConfig) -> CcmCurve:
    """Sweep library sizes and record cross-map skill per size.

    Each size L gets ``samples_per_size`` seeded random draws of L
    library points (without replacement); the largest admissible L is a
    single full-library evaluation. Identical inputs and seed reproduce
    the curve bit for bit.
    """
    return _ccm_curves(_effect_cross_map(cause, effect, config), (cause,),
                       effect, config)[0]


def _ccm_curves(full, causes: Sequence[TimeSeries], effect: TimeSeries,
                config: CcmConfig) -> list[CcmCurve]:
    """:func:`ccm_curve` of each cause on the effect's lag-0 build ``full``.

    Every cause must share the effect's length and origin. Then the
    usable library, the seeded draws and each draw's neighbors do not
    depend on the cause: each draw's neighbors are selected once, and
    every cause is estimated from them.
    """
    cross_map = _at_lag(full, config.lag, config)
    n_usable = int(cross_map.lib_times.size)
    sizes = config.lib_sizes or default_library_sizes(config.min_lib_size, n_usable)
    if sizes[-1] > n_usable:
        raise DataError(
            f"largest library size {sizes[-1]} exceeds the {n_usable} "
            f"admissible points")

    rows: list[list[CurveRow]] = [[] for _ in causes]
    for size in sizes:
        n_draws = 1 if size == n_usable else config.samples_per_size
        rhos = np.empty((len(causes), n_draws))
        n_degenerate = [0] * len(causes)
        for j in range(n_draws):
            rng = np.random.default_rng([config.seed, size, j])
            if size == n_usable:
                positions = None
            elif config.contiguous_draws:
                start = int(rng.integers(0, n_usable - size + 1))
                positions = np.arange(start, start + size)
            else:
                positions = np.sort(rng.choice(n_usable, size=size, replace=False))
            for i, stats in enumerate(cross_map.skills(causes, positions)):
                rhos[i, j] = stats.rho
                n_degenerate[i] += int(stats.degenerate)
        for cause_rows, cause_rhos, n_deg in zip(rows, rhos, n_degenerate):
            cause_rows.append(CurveRow(lib_size=size,
                                       mean_rho=float(cause_rhos.mean()),
                                       sd_rho=float(cause_rhos.std()),
                                       samples_used=n_draws,
                                       degenerate_draws=n_deg))

    curves = []
    for cause, cause_rows in zip(causes, rows):
        direction = f"{cause.name}=>{effect.name}"
        warnings = list(_constant_effect(cause, effect))
        n_degenerate = sum(r.degenerate_draws for r in cause_rows)
        if n_degenerate:
            warnings.append(f"{direction}: {n_degenerate} degenerate draws "
                            f"(zero-variance estimates) across the sweep")
        if len(cause_rows) >= MIN_CONVERGENCE_SIZES:
            decision = convergence_test(cause_rows, config.min_rho_gain,
                                        config.min_kendall_tau, config.min_final_rho)
        else:
            decision = ConvergenceDecision(
                convergent=False, final_rho=cause_rows[-1].mean_rho,
                rho_gain=cause_rows[-1].mean_rho - cause_rows[0].mean_rho,
                trend=0.0)
            warnings.append(f"{direction}: convergence test skipped: "
                            f"{len(cause_rows)} library sizes "
                            f"(needs {MIN_CONVERGENCE_SIZES})")
        curves.append(CcmCurve(direction=direction, rows=tuple(cause_rows),
                               decision=decision, warnings=tuple(warnings)))
    return curves


def pai_cross_map(x: TimeSeries, y: TimeSeries, config: CcmConfig) -> SkillStats:
    """Joint-embedding variant: estimate x from E lags of x plus y itself.

    State points are (x_t, x_{t-tau}, ..., x_{t-(E-1)tau}, y_t). Neighbor
    count and estimation match :func:`cross_map_skill`, so a zero-spread
    y coordinate reproduces the plain embedding of x exactly.
    """
    _check_pair(x, y)
    manifold = embed(x, EmbeddingParams(e_dim=config.e_dim, tau=config.tau))
    y_at_times = y.values[manifold.times - y.origin_index]
    joint = np.hstack([manifold.points, y_at_times[:, None]])
    return cross_estimates(joint, manifold.times, x,
                           config.e_dim + 1).shifted(config.lag).skill()


def eccm_profile(cause: TimeSeries, effect: TimeSeries, config: CcmConfig,
                 lag_range: Sequence[int]) -> EccmProfile:
    """Cross-map skill at the full library for each prediction lag.

    The best lag maximizes skill (ties: smallest magnitude, then the
    negative one). A negative best lag on the claim cause => effect marks
    a true, possibly delayed, causal direction; non-negative best lags in
    both directions flag driver-response synchronization instead.
    """
    return _eccm_profiles(_effect_cross_map(cause, effect, config), (cause,),
                          effect, config, lag_range)[0]


def _eccm_profiles(full, causes: Sequence[TimeSeries], effect: TimeSeries,
                   config: CcmConfig, lag_range: Sequence[int]) -> list[EccmProfile]:
    """:func:`eccm_profile` of each cause on the effect's lag-0 build
    ``full``: each lag's neighbors are selected once on a view of it and
    serve every cause. A lag with too few usable points gets a note."""
    lags = sorted(set(int(v) for v in lag_range))
    if not lags:
        raise DataError("empty lag range")
    rows = []  # one list per lag, one row per cause
    for ell in lags:
        try:
            rows.append([EccmRow(lag=ell, rho=s.rho)
                         for s in _at_lag(full, ell, config).skills(causes)])
        except DataError as err:
            rows.append([EccmRow(lag=ell, rho=None, note=str(err))] * len(causes))
    profiles = []
    for cause, cause_rows in zip(causes, zip(*rows)):
        scored = [r for r in cause_rows if r.rho is not None]
        if not scored:
            raise DataError("every lag in the range left no valid targets")
        best = max(scored, key=lambda r: (r.rho, -abs(r.lag), -r.lag))
        profiles.append(EccmProfile(direction=f"{cause.name}=>{effect.name}",
                                    rows=tuple(cause_rows), best_lag=best.lag,
                                    warnings=_constant_effect(cause, effect)))
    return profiles


def causal_summary(series: Sequence[TimeSeries], config: CcmConfig,
                   eccm_lags: Sequence[int] | None = None) -> CausalNetwork:
    """All-pairs CCM curves (and optional lag sweeps) as a directed-edge table.

    Each ordered pair gets one edge with its convergence verdict; no
    transitive closure is inferred. The warnings are each edge's curve
    warnings in edge order, then, when lag sweeps run, a synchronization
    warning for each pair whose two directions converge with non-negative
    best lags.
    """
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise DataError(f"series names must be unique, got {names}")
    # effects outer, so that one effect manifold's distances are alive at
    # a time; a pair's error is kept and raised in cause-major order below
    by_pair: dict[tuple[str, str], CausalEdge | DataError] = {}
    curve_warnings: dict[tuple[str, str], tuple[str, ...]] = {}
    for effect in series:
        causes = []
        for cause in series:
            if cause.name == effect.name:
                continue
            try:
                _check_pair(cause, effect)
            except DataError as err:
                by_pair[(cause.name, effect.name)] = err
            else:
                causes.append(cause)
        if not causes:
            continue
        try:
            full = _effect_cross_map(causes[0], effect, config)
            curves = _ccm_curves(full, causes, effect, config)
            best_lags = [None] * len(causes) if eccm_lags is None else [
                p.best_lag for p in _eccm_profiles(full, causes, effect, config,
                                                   eccm_lags)]
        except DataError as err:
            by_pair.update({(cause.name, effect.name): err for cause in causes})
            continue
        for cause, curve, best_lag in zip(causes, curves, best_lags):
            by_pair[(cause.name, effect.name)] = CausalEdge(
                cause=cause.name, effect=effect.name, final_rho=curve.final_rho,
                convergent=curve.convergent, best_lag=best_lag)
            curve_warnings[(cause.name, effect.name)] = curve.warnings
    edges = []
    warnings = []
    for pair in permutations(names, 2):
        if isinstance(by_pair[pair], DataError):
            raise by_pair[pair]
        edges.append(by_pair[pair])
        warnings += curve_warnings[pair]
    if eccm_lags is not None:
        for a, b in combinations(names, 2):
            fwd, rev = by_pair[(a, b)], by_pair[(b, a)]
            if (fwd.convergent and rev.convergent
                    and fwd.best_lag is not None and fwd.best_lag >= 0
                    and rev.best_lag is not None and rev.best_lag >= 0):
                warnings.append(
                    f"{a}<->{b}: both directions converge with non-negative "
                    f"best lags; likely synchronization by a strong driver, "
                    f"not mutual causation")
    return CausalNetwork(series_names=tuple(names), edges=tuple(edges),
                         warnings=tuple(warnings))
