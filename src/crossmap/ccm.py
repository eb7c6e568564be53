"""Convergent cross mapping, lag sweeps, and causal-network summaries.

Testing the claim "cause => effect" always embeds the EFFECT series and
estimates the CAUSE from its shadow manifold: if the cause drives the
effect, its information is recoverable there. Convergence of the skill
as the library grows is the causality signature; a rising curve that
plateaus supports the claim, a flat one rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .core import (DataError, SkillStats, TimeSeries, integer_values,
                   require_integers)
from .embedding import EmbeddingParams, embed
from .forecast import cross_estimates, select_embedding_dimension

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

# fewest library sizes the convergence test judges, and its thresholds
MIN_CONVERGENCE_SIZES = 3
MIN_RHO_GAIN = 0.10
MIN_KENDALL_TAU = 0.5
MIN_FINAL_RHO = 0.2
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
    switches to random contiguous segments for comparison.
    """

    e_dim: int
    tau: int = 1
    lag: int = 0
    lib_sizes: tuple[int, ...] | None = None
    samples_per_size: int = 100
    seed: int = 0
    contiguous_draws: bool = False

    def __post_init__(self) -> None:
        EmbeddingParams(e_dim=self.e_dim, tau=self.tau)
        require_integers(self, "lag", "samples_per_size", "seed")
        if self.samples_per_size < 1:
            raise DataError(f"samples_per_size must be >= 1, got {self.samples_per_size}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.lib_sizes is not None:
            sizes = tuple(integer_values("lib_sizes", self.lib_sizes))
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
    warnings: tuple[str, ...] = ()


def default_library_sizes(min_size: int, max_size: int) -> tuple[int, ...]:
    """Up to ``DEFAULT_LIB_SIZE_COUNT`` geometric sizes from min_size to max_size."""
    min_size, max_size = integer_values("min_size and max_size", [min_size, max_size])
    if min_size < 1:
        raise DataError(f"library sizes must be at least 1, got min_size {min_size}")
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


def _effect_warnings(cause: TimeSeries, effect: TimeSeries, n_degenerate: int,
                     unit: str) -> list[str]:
    """Warnings for a constant effect, then for ``n_degenerate`` degenerate ``unit``."""
    direction = f"{cause.name}=>{effect.name}"
    warnings = []
    if not effect.values.min() < effect.values.max():
        warnings.append(f"{direction}: effect {effect.name!r} is constant; every "
                        f"distance is 0, so neighbors are the earliest library times")
    if n_degenerate:
        warnings.append(f"{direction}: {n_degenerate} degenerate {unit} "
                        f"(zero-variance estimates) across the sweep")
    return warnings


def _effect_cross_map(cause: TimeSeries, effect: TimeSeries, config: CcmConfig,
                      library_times: Sequence[int] | np.ndarray | None = None,
                      draws: bool = False):
    """Check the pair, embed the effect and build its cross map onto the
    cause at lag 0; every lag is a view of it, ``full.shifted(lag)``.
    ``draws`` says whether library draws will read it (see
    :func:`cross_estimates`)."""
    _check_pair(cause, effect)
    manifold = embed(effect, EmbeddingParams(e_dim=config.e_dim, tau=config.tau))
    lib = (np.asarray(integer_values("library_times", library_times), dtype=int)
           if library_times is not None else None)
    return cross_estimates(manifold.points, manifold.times, cause, config.e_dim + 1,
                           lib_times=lib, draws=draws)


def cross_map_skill(cause: TimeSeries, effect: TimeSeries, config: CcmConfig,
                    library_times: Sequence[int] | np.ndarray | None = None,
                    ) -> SkillStats:
    """Skill of estimating the cause from the effect's shadow manifold.

    Embeds ``effect``, finds each state's E+1 nearest neighbors among the
    library points (the state's own time excluded), and estimates
    cause(t + lag) as the weighted average of cause at the neighbors'
    times + lag. High convergent skill supports the claim cause => effect.
    """
    return _effect_cross_map(cause, effect, config,
                             library_times).shifted(config.lag).skill()


def convergence_test(rows: Sequence[CurveRow]) -> ConvergenceDecision:
    """Decide convergence of a skill-vs-library-size curve.

    Convergent iff all three hold: the skill gain from the smallest to
    the largest library exceeds ``MIN_RHO_GAIN``; Kendall's tau-b of
    (L, mean_rho) exceeds ``MIN_KENDALL_TAU``; and the final skill
    exceeds ``MIN_FINAL_RHO``.
    """
    if len(rows) < MIN_CONVERGENCE_SIZES:
        raise DataError(f"convergence test needs >= {MIN_CONVERGENCE_SIZES} "
                        f"library sizes, got {len(rows)}")
    sizes = [r.lib_size for r in rows]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DataError("curve rows must be sorted by increasing library size")
    for r in rows:
        if not np.isfinite(r.mean_rho):
            raise DataError(f"mean_rho must be finite, got {r.mean_rho} at library "
                            f"size {r.lib_size}")
    rhos = [r.mean_rho for r in rows]
    final = rhos[-1]
    gain = final - rhos[0]
    # tau-b with untied sizes, clipped as rounding can give 1.0000000000000002
    signs = np.sign(np.subtract.outer(rhos, rhos))[np.tril_indices(len(rhos), -1)]
    untied = np.count_nonzero(signs)
    trend = float(np.clip(signs.sum() / np.sqrt(signs.size) / np.sqrt(untied),
                          -1.0, 1.0)) if untied else 0.0
    convergent = (gain > MIN_RHO_GAIN) and (trend > MIN_KENDALL_TAU) \
        and (final > MIN_FINAL_RHO)
    return ConvergenceDecision(convergent=convergent, final_rho=float(final),
                               rho_gain=float(gain), trend=trend)


def ccm_curve(cause: TimeSeries, effect: TimeSeries, config: CcmConfig) -> CcmCurve:
    """Sweep library sizes and record cross-map skill per size.

    Each size L gets ``samples_per_size`` seeded random draws of L
    library points (without replacement); the largest admissible L is a
    single full-library evaluation. Identical inputs and seed reproduce
    the curve bit for bit.
    """
    return _ccm_curves(_effect_cross_map(cause, effect, config, draws=True), (cause,),
                       effect, config)[0]


def _ccm_curves(full, causes: Sequence[TimeSeries], effect: TimeSeries,
                config: CcmConfig) -> list[CcmCurve]:
    """:func:`ccm_curve` of each cause on the effect's lag-0 build ``full``.

    Every cause shares the effect's length and origin, as both callers
    check. So the usable library, the seeded draws and each draw's
    neighbors do not depend on the cause: each draw's neighbors are
    selected once, and every cause is estimated from them. Each size
    hands :meth:`_CrossMap.skills` a generator of its draws, which it
    pulls in groups as it scores them; the full library is the one draw
    ``draw(n_usable, 0)``, every position in order for either draw kind.
    """
    cross_map = full.shifted(config.lag)
    n_usable = int(cross_map.lib_times.size)
    sizes = config.lib_sizes or default_library_sizes(config.min_lib_size, n_usable)
    if sizes[-1] > n_usable:
        raise DataError(
            f"largest library size {sizes[-1]} exceeds the {n_usable} "
            f"admissible points")

    def draw(size: int, j: int) -> np.ndarray:
        rng = np.random.default_rng([config.seed, size, j])
        if config.contiguous_draws:
            start = int(rng.integers(0, n_usable - size + 1))
            return np.arange(start, start + size)
        return np.sort(rng.choice(n_usable, size=size, replace=False))

    rows: list[list[CurveRow]] = [[] for _ in causes]
    for size in sizes:
        n_draws = 1 if size == n_usable else config.samples_per_size
        rho, _, _, degenerate = cross_map.skills(
            causes, (draw(size, j) for j in range(n_draws)))
        for cause_rows, cause_rho, cause_degenerate in zip(rows, rho, degenerate):
            cause_rows.append(CurveRow(lib_size=size, mean_rho=float(cause_rho.mean()),
                                       sd_rho=float(cause_rho.std()),
                                       samples_used=n_draws,
                                       degenerate_draws=int(cause_degenerate.sum())))

    curves = []
    for cause, cause_rows in zip(causes, rows):
        direction = f"{cause.name}=>{effect.name}"
        warnings = _effect_warnings(
            cause, effect, sum(r.degenerate_draws for r in cause_rows), "draws")
        if len(cause_rows) >= MIN_CONVERGENCE_SIZES:
            decision = convergence_test(cause_rows)
        else:
            final, first = cause_rows[-1].mean_rho, cause_rows[0].mean_rho
            decision = ConvergenceDecision(convergent=False, final_rho=final,
                                           rho_gain=final - first, trend=0.0)
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

    Every lag is a view of one build, and one :meth:`_CrossMap.sweep`
    scores them all.
    """
    lags = _sweep_lags("lag_range", lag_range)
    return _eccm_profiles(_effect_cross_map(cause, effect, config),
                          (cause,), effect, config, lags)[0]


def _sweep_lags(name: str, lag_range: Sequence[int]) -> list[int]:
    """The distinct lags of a sweep, ascending; checked before any build."""
    lags = sorted(set(integer_values(name, lag_range)))
    if not lags:
        raise DataError("empty lag range")
    return lags


def _eccm_profiles(full, causes: Sequence[TimeSeries], effect: TimeSeries,
                   config: CcmConfig, lags: list[int]) -> list[EccmProfile]:
    """:func:`eccm_profile` of each cause on the effect's lag-0 build
    ``full``, at the ascending ``lags``, scored by one
    :meth:`_CrossMap.sweep`, whose neighbors serve every cause, on the
    effect's axis as both callers check. A lag with too few usable points
    gets a note; when every lag has one, the error quotes the first."""
    rows = []  # one list per lag, one (row, degenerate) pair per cause
    for ell, scores in zip(lags, full.sweep(causes, lags)):
        if isinstance(scores, DataError):
            rows.append([(EccmRow(lag=ell, rho=None, note=str(scores)), False)]
                        * len(causes))
        else:
            rho, _, _, degenerate = scores
            rows.append([(EccmRow(lag=ell, rho=r), g) for r, g in
                         zip(rho[:, 0].tolist(), degenerate[:, 0].tolist())])
    profiles = []
    for cause, pairs in zip(causes, zip(*rows)):
        cause_rows, degenerate = zip(*pairs)
        scored = [r for r in cause_rows if r.rho is not None]
        if not scored:
            first = cause_rows[0]
            raise DataError(f"every lag in the range left no valid targets; "
                            f"lag {first.lag}: {first.note}")
        best = max(scored, key=lambda r: (r.rho, -abs(r.lag), -r.lag))
        profiles.append(EccmProfile(
            direction=f"{cause.name}=>{effect.name}", rows=cause_rows, best_lag=best.lag,
            warnings=tuple(_effect_warnings(cause, effect, sum(degenerate), "lags"))))
    return profiles


def causal_summary(series: Sequence[TimeSeries], config: CcmConfig,
                   eccm_lags: Sequence[int] | None = None) -> CausalNetwork:
    """All-pairs CCM curves (and optional lag sweeps) as a directed-edge table.

    Every series must share the first one's length and origin: the first
    that differs raises "series lengths differ" or "series must share a
    time origin" before any embedding, as do lags that are not integers
    and an empty lag range. Each ordered pair gets one edge
    with its convergence verdict; no transitive closure is inferred. The
    warnings are each edge's curve warnings in edge order, then, when lag
    sweeps run, a synchronization warning for each pair whose two
    directions converge with non-negative best lags.
    """
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise DataError(f"series names must be unique, got {names}")
    for other in series[1:]:
        _check_pair(series[0], other)
    lags = None if eccm_lags is None else _sweep_lags("eccm_lags", eccm_lags)
    # on one shared axis every effect fails alike or not at all; effects
    # outer, so that one effect manifold's distances are alive at a time
    by_pair: dict[tuple[str, str], tuple[CausalEdge, tuple[str, ...]]] = {}
    for effect in series:
        causes = [cause for cause in series if cause.name != effect.name]
        if not causes:
            continue
        full = _effect_cross_map(causes[0], effect, config, draws=True)
        curves = _ccm_curves(full, causes, effect, config)
        best_lags = [None] * len(causes) if lags is None else [
            p.best_lag for p in _eccm_profiles(full, causes, effect, config, lags)]
        for cause, curve, best_lag in zip(causes, curves, best_lags):
            by_pair[(cause.name, effect.name)] = (CausalEdge(
                cause=cause.name, effect=effect.name, final_rho=curve.final_rho,
                convergent=curve.convergent, best_lag=best_lag), curve.warnings)
    edges = {pair: by_pair[pair][0] for pair in permutations(names, 2)}
    warnings = [w for pair in edges for w in by_pair[pair][1]]
    if eccm_lags is not None:
        for a, b in combinations(names, 2):
            fwd, rev = edges[(a, b)], edges[(b, a)]
            if (fwd.convergent and rev.convergent
                    and fwd.best_lag >= 0 and rev.best_lag >= 0):
                warnings.append(
                    f"{a}<->{b}: both directions converge with non-negative "
                    f"best lags; likely synchronization by a strong driver, "
                    f"not mutual causation")
    return CausalNetwork(series_names=tuple(names), edges=tuple(edges.values()),
                         warnings=tuple(warnings))
