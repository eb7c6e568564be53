"""Time-series container, skill metrics, and CSV ingestion.

Everything downstream (embedding, forecasting, cross mapping) works on
:class:`TimeSeries` values and reports skill through :class:`SkillStats`.
All functions here are pure and all containers are immutable after
construction, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CrossmapError",
    "DataError",
    "NumericalError",
    "TimeSeries",
    "SkillStats",
    "pearson",
    "skill_stats",
    "windowed_pearson",
    "read_series_csv",
    "write_series_csv",
]


class CrossmapError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CrossmapError, ValueError):
    """Malformed or inadmissible input data (lengths, NaNs, bad windows)."""


class NumericalError(CrossmapError, ArithmeticError):
    """A computation produced or encountered a non-finite / escaping state."""


def _as_finite_array(values: Iterable[float], what: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DataError(f"{what} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DataError(f"{what} contains a non-finite value at position {bad}")
    return arr


def require_integers(owner: object, *names: str) -> None:
    """Raise :class:`DataError` unless each named attribute is an integer."""
    for name in names:
        if not isinstance(value := getattr(owner, name), Integral):
            raise DataError(f"{name} must be an integer, got {value!r}")


def integer_values(name: str, values: Iterable) -> list[int]:
    """``values`` as ints; :class:`DataError` names the first that is not
    an integer (numpy integers are), where ``int()`` would truncate or
    parse it."""
    values = list(values)
    for value in values:
        if not isinstance(value, Integral):
            raise DataError(f"{name} must hold integers, got {value!r}")
    return [int(v) for v in values]


@dataclass(frozen=True)
class TimeSeries:
    """A named, uniformly sampled sequence of finite real observations.

    Value ``i`` corresponds to time index ``origin_index + i``. The value
    array is copied and marked read-only on construction.
    """

    name: str
    values: np.ndarray
    origin_index: int = 0

    def __post_init__(self) -> None:
        arr = _as_finite_array(self.values, f"series {self.name!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        require_integers(self, "origin_index")
        object.__setattr__(self, "origin_index", int(self.origin_index))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end_index(self) -> int:
        """Time index of the last value (inclusive)."""
        return self.origin_index + len(self) - 1

    def has_time(self, t: int) -> bool:
        return self.origin_index <= t <= self.end_index

    def value_at(self, t: int) -> float:
        """Value at absolute time index ``t``."""
        if not self.has_time(t):
            raise DataError(
                f"series {self.name!r} has no value at time {t} "
                f"(covers {self.origin_index}..{self.end_index})")
        return float(self.values[t - self.origin_index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.name == other.name
                and self.origin_index == other.origin_index
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.name, self.origin_index, self.values.tobytes()))


@dataclass(frozen=True)
class SkillStats:
    """Prediction-skill summary over paired (observed, predicted) values.

    ``degenerate`` is set when either side has zero variance, in which
    case ``rho`` is reported as 0 rather than raising, so that sweeps
    over tiny libraries never abort mid-run.
    """

    rho: float
    mae: float
    rmse: float
    n_pairs: int
    degenerate: bool = field(default=False)


def _skill_rows(observed: np.ndarray, predicted: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pearson rho, MAE, RMSE and degeneracy of each row of ``predicted``
    (rows, m) against ``observed`` (m,); the input is not checked.

    Each row gets the bits of the one-row formula: the means are
    ``mean(axis=1)`` and the dot products are ``matmul`` of one row by one
    column, which numpy computes as ``np.dot`` does (``einsum`` does not).
    A row with zero variance on either side is degenerate, with rho 0.
    Raises :class:`NumericalError` for the first row whose correlation is
    not finite; an RMSE that overflows is left to the caller.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        oc = observed - observed.mean()
        pc = predicted - predicted.mean(axis=1, keepdims=True)
        column = pc[:, :, None]
        denom = np.sqrt((oc @ oc) * (pc[:, None, :] @ column).ravel())
        rho = (oc @ column).ravel() / denom
        err = observed - predicted
        mae = np.abs(err).mean(axis=1)
        rmse = np.sqrt(np.multiply(err, err, out=err).mean(axis=1))
    degenerate = denom == 0.0
    if not np.all(degenerate | (np.isfinite(denom) & np.isfinite(rho))):
        raise NumericalError("correlation is not finite: the values are too large "
                             "for float64 sums; rescale them")
    rho = np.minimum(np.maximum(rho, -1.0, out=rho), 1.0, out=rho)
    rho[degenerate] = 0.0
    return rho, mae, rmse, degenerate


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences.

    Returns 0.0 when either side has zero variance (the degenerate case;
    :func:`skill_stats` additionally flags it). Raises :class:`DataError`
    for mismatched lengths, fewer than two points, or non-finite input.
    """
    av = _as_finite_array(a, "first argument")
    bv = _as_finite_array(b, "second argument")
    if av.size != bv.size:
        raise DataError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < 2:
        raise DataError("correlation needs at least 2 points")
    return float(_skill_rows(av, bv[None])[0][0])


def skill_stats(observed: Sequence[float], predicted: Sequence[float]) -> SkillStats:
    """Pearson rho, MAE, and RMSE between observed and predicted values."""
    obs = _as_finite_array(observed, "observed")
    pred = _as_finite_array(predicted, "predicted")
    if obs.size != pred.size:
        raise DataError(f"length mismatch: {obs.size} observed vs {pred.size} predicted")
    if obs.size < 2:
        raise DataError("skill statistics need at least 2 pairs")
    (rho,), (mae,), (rmse,), (degenerate,) = _skill_rows(obs, pred[None])
    # a finite rmse means every squared error, and so the mae, is finite
    if not np.isfinite(rmse):
        raise NumericalError("prediction errors are not finite: the values are "
                             "too large for float64 squares; rescale them")
    return SkillStats(rho=float(rho), mae=float(mae), rmse=float(rmse),
                      n_pairs=int(obs.size), degenerate=bool(degenerate))


def windowed_pearson(x: TimeSeries, y: TimeSeries, start: int, end: int) -> float:
    """Pearson correlation of two series over value indices start..end inclusive.

    Indices are 0-based positions into the value arrays (index 0 is the
    initial condition for generated systems). Both series must have the
    same length and the window must contain at least two points.
    """
    start, end = integer_values("start and end", [start, end])
    if len(x) != len(y):
        raise DataError(f"series lengths differ: {len(x)} vs {len(y)}")
    if not (0 <= start < end < len(x)):
        raise DataError(
            f"window [{start},{end}] out of bounds for series of length {len(x)}")
    return pearson(x.values[start:end + 1], y.values[start:end + 1])


def read_series_csv(path: str) -> list[TimeSeries]:
    """Read a CSV of equal-length numeric columns into TimeSeries.

    The first row holds the series names; every cell below must be a
    decimal real. Missing cells, non-numeric cells, and NaN/Inf are
    rejected outright. A leading UTF-8 byte-order mark and blank lines
    (empty, or only whitespace in every cell) after the last data row are
    ignored. A file that is not UTF-8 text, or that the csv module cannot
    split (a field over its 131,072-character limit, say), raises
    :class:`DataError` naming the path. A quoted cell may span lines, and
    every error that names a line names the physical line the reader
    stopped on, counting each line of such a cell.
    """
    return _read_columns(path)


def _read_columns(path: str, wanted: Sequence[str] | None = None) -> list[TimeSeries]:
    """The columns ``wanted`` of the CSV at ``path`` in the order named, or
    every column when None, as :func:`read_series_csv` reads them. Every
    row is checked for its cell count and for blank lines, but only the
    wanted columns' cells are converted."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            names = [h.strip() for h in header]
            if not names or any(not n for n in names):
                raise DataError(f"{path}: header row must name every column")
            if len(set(names)) != len(names):
                raise DataError(f"{path}: duplicate column names in header")
            for name in wanted or ():
                if name not in names:
                    raise DataError(f"{path}: no column {name!r}; "
                                    f"available: {', '.join(names)}")
            picked = range(len(names)) if wanted is None else [names.index(n)
                                                                for n in wanted]
            columns: list[list[float]] = [[] for _ in picked]
            blank_line = None  # first blank line not yet followed by data
            for row in reader:
                if not "".join(row).strip():
                    blank_line = blank_line or reader.line_num
                    continue
                if blank_line is not None:
                    raise DataError(f"{path}:{blank_line}: expected "
                                    f"{len(names)} cells, got 0")
                if len(row) != len(names):
                    raise DataError(f"{path}:{reader.line_num}: expected "
                                    f"{len(names)} cells, got {len(row)}")
                for values, col in zip(columns, picked):
                    cell = row[col]
                    try:
                        value = float(cell.strip())
                    except ValueError:
                        raise DataError(
                            f"{path}:{reader.line_num}: column {names[col]!r} "
                            f"has non-numeric cell {cell!r}") from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}:{reader.line_num}: column {names[col]!r} "
                            f"has non-finite value {cell!r}")
                    values.append(value)
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text (byte "
                            f"{err.object[err.start]:#04x}: {err.reason}); "
                            f"save it as UTF-8") from None
        except csv.Error as err:
            raise DataError(f"{path}:{reader.line_num}: {err}") from None
    if not columns[0]:
        raise DataError(f"{path}: no data rows")
    return [TimeSeries(names[col], np.asarray(values))
            for col, values in zip(picked, columns)]


def write_series_csv(path: str, series: Sequence[TimeSeries]) -> None:
    """Write series as CSV columns (headers = names, one row per time step).

    The series must share a time origin, which is not written: row i holds
    each series' value at its origin + i."""
    if not series:
        raise DataError("nothing to write: no series given")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise DataError(f"series lengths differ: {sorted(lengths)}")
    if len({s.origin_index for s in series}) != 1:
        raise DataError("series must share a time origin")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in series])
        for row in zip(*(s.values for s in series)):
            writer.writerow([repr(float(v)) for v in row])
