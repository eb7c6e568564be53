import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmap import (DataError, NumericalError, TimeSeries, pearson,
                      read_series_csv, skill_stats, windowed_pearson,
                      write_series_csv)
from crossmap.core import _skill_rows
from crossmap.systems import gen_coupled_logistic


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries("a", [1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.origin_index == 0
        assert ts.end_index == 2
        assert ts.value_at(1) == 2.0

    def test_origin_offsets_time_axis(self):
        ts = TimeSeries("a", [5.0, 6.0], origin_index=10)
        assert ts.has_time(10) and ts.has_time(11)
        assert not ts.has_time(9) and not ts.has_time(12)
        assert ts.value_at(11) == 6.0
        with pytest.raises(DataError):
            ts.value_at(12)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DataError):
            TimeSeries("a", [1.0, float("nan")])
        with pytest.raises(DataError):
            TimeSeries("a", [float("inf"), 1.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries("a", [])

    def test_values_are_immutable(self):
        ts = TimeSeries("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_input_array_not_aliased(self):
        src = np.array([1.0, 2.0])
        ts = TimeSeries("a", src)
        src[0] = 42.0
        assert ts.values[0] == 1.0

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(DataError) as info:
            TimeSeries("x", [[1.0, 2.0]])
        assert str(info.value) == "series 'x' must be one-dimensional, got shape (1, 2)"


class TestTimeSeriesEquality:
    def test_equal_fields_are_equal_and_hash_alike(self):
        a = TimeSeries("x", [1.0, 2.5, -3.0], origin_index=4)
        b = TimeSeries("x", np.array([1.0, 2.5, -3.0]), origin_index=4)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [
        TimeSeries("y", [1.0, 2.5, -3.0], origin_index=4),
        TimeSeries("x", [1.0, 2.5, -3.0], origin_index=5),
        TimeSeries("x", [1.0, 2.5, -3.5], origin_index=4),
        TimeSeries("x", [9.0, 2.5, -3.0], origin_index=4),
        TimeSeries("x", [1.0, 2.5], origin_index=4),
    ])
    def test_a_different_name_origin_or_value_is_unequal(self, other):
        a = TimeSeries("x", [1.0, 2.5, -3.0], origin_index=4)
        assert a != other and not a == other

    @pytest.mark.parametrize("other", [None, "x", [1.0, 2.0], (1.0, 2.0)])
    def test_a_non_series_is_unequal(self, other):
        a = TimeSeries("x", [1.0, 2.0])
        assert (a == other) is False


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_zero_variance_returns_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(DataError):
            pearson([1.0], [2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            pearson([1.0, np.nan], [1.0, 2.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 40))
            b = rng.normal(size=a.size)
            assert pearson(a, b) == pearson(b, a)

    def test_affine_relation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=rng.integers(3, 30))
            alpha = rng.uniform(0.1, 5.0)
            beta = rng.normal()
            assert pearson(a, alpha * a + beta) == pytest.approx(1.0)
            assert pearson(a, -alpha * a + beta) == pytest.approx(-1.0)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            assert -1.0 <= pearson(a, b) <= 1.0


class TestSkillStats:
    def test_identity(self):
        st = skill_stats([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert st.rho == 1.0 and st.mae == 0.0 and st.rmse == 0.0
        assert st.n_pairs == 3 and not st.degenerate

    def test_anticorrelated_unit_errors(self):
        st = skill_stats([0, 1], [1, 0])
        assert st.rho == -1.0 and st.mae == 1.0 and st.rmse == 1.0

    def test_length_mismatch_is_named(self):
        with pytest.raises(DataError) as info:
            skill_stats([1, 2, 3], [1, 2])
        assert str(info.value) == "length mismatch: 3 observed vs 2 predicted"

    def test_one_pair_is_too_few(self):
        with pytest.raises(DataError) as info:
            skill_stats([1], [1])
        assert str(info.value) == "skill statistics need at least 2 pairs"

    def test_degenerate_observed(self):
        st = skill_stats([0, 0, 0], [1, 2, 3])
        assert st.degenerate and st.rho == 0.0 and st.mae == 2.0

    def test_overflowing_sums_raise_instead_of_rho_minus_one(self):
        # the centred dot products overflow to inf, and inf/inf is nan
        v = gen_coupled_logistic(300)[0].values * 1e160
        for a, b in ((v, v), (v, v[::-1]), (v, np.ones(300))):
            with pytest.raises(NumericalError, match="too large for float64 "
                                                     "sums; rescale them"):
                skill_stats(a, b)
        with pytest.raises(NumericalError):
            pearson(v, v)
        # rescaled, the same values score
        assert skill_stats(v / 1e160, v / 1e160).rho == 1.0

    def test_overflowing_errors_raise_instead_of_an_infinite_rmse(self):
        # a constant observed side scores rho 0 without an overflowing sum,
        # but the squares of its errors overflow
        with pytest.raises(NumericalError, match="too large for float64 "
                                                 "squares; rescale them"):
            skill_stats([1e300] * 3, [5e299] * 3)
        assert skill_stats([1e150] * 3, [5e149] * 3).rmse == 5e149

    def test_self_skill_nonconstant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            o = rng.normal(size=rng.integers(2, 50))
            if o.std() == 0:
                continue
            st = skill_stats(o, o)
            assert st.mae == 0.0 and st.rho == 1.0


def pearson_raw(a, b):
    """The one-pair Pearson that :func:`_skill_rows` replaced, kept as its
    oracle: (rho, degenerate), or NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):
        ac = a - a.mean()
        bc = b - b.mean()
        denom = float(np.sqrt(np.dot(ac, ac) * np.dot(bc, bc)))
        if denom == 0.0:
            return 0.0, True
        r = float(np.dot(ac, bc) / denom)
    if not (np.isfinite(denom) and np.isfinite(r)):
        raise NumericalError("correlation is not finite: the values are too large "
                             "for float64 sums; rescale them")
    return min(1.0, max(-1.0, r)), False


def errors_raw(a, b):
    """The one-pair MAE and RMSE that :func:`skill_stats` computed."""
    with np.errstate(over="ignore"):
        err = a - b
        return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def assert_rows_match_the_oracle(observed, predicted):
    """Every row of ``_skill_rows`` equals the one-pair formulas bit for bit;
    it raises the oracle's error exactly when some row's oracle raises."""
    failing = []
    for row in predicted:
        try:
            pearson_raw(observed, row)
        except NumericalError as err:
            failing.append(str(err))
    if failing:
        with pytest.raises(NumericalError, match=f"^{failing[0]}$"):
            _skill_rows(observed, predicted)
        return
    rho, mae, rmse, degenerate = _skill_rows(observed, predicted)
    assert rho.shape == mae.shape == rmse.shape == degenerate.shape == (len(predicted),)
    for j, row in enumerate(predicted):
        want_rho, want_degenerate = pearson_raw(observed, row)
        assert np.float64(want_rho).tobytes() == rho[j].tobytes()
        assert want_degenerate == degenerate[j]
        assert np.array(errors_raw(observed, row)).tobytes() == \
            np.array([mae[j], rmse[j]]).tobytes()


class TestSkillRows:
    """One Pearson for a block of rows: each row's rho, MAE, RMSE and
    degeneracy are the one-pair formulas' bits (``np.dot`` and 1-D means)."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 300),
           n_rows=st.integers(1, 6),
           scale=st.sampled_from([1.0, 1e-310, 1e-160, 1e160, 1e300]),
           kinds=st.lists(st.sampled_from(["noise", "constant", "affine", "same"]),
                          min_size=6, max_size=6),
           constant_observed=st.booleans())
    def test_each_row_is_the_one_pair_formula_bit_for_bit(
            self, seed, m, n_rows, scale, kinds, constant_observed):
        # subnormal, tiny, huge (the sums overflow) and constant rows,
        # affine copies whose rho rounds above 1 before the clip
        rng = np.random.default_rng(seed)
        observed = np.full(m, 0.3) if constant_observed else rng.normal(size=m)
        rows = []
        for kind in kinds[:n_rows]:
            rows.append({"noise": lambda: observed + rng.normal(size=m),
                         "constant": lambda: np.full(m, rng.normal()),
                         "affine": lambda: rng.uniform(-9, 9) * observed + rng.normal(),
                         "same": lambda: observed.copy()}[kind]())
        assert_rows_match_the_oracle(observed * scale, np.array(rows) * scale)

    def test_constant_rows_are_degenerate_without_a_warning(self):
        observed = np.arange(5.0)
        predicted = np.array([[2.0] * 5, [0.0, 1, 2, 3, 5], [0.0] * 5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, _, _, degenerate = _skill_rows(observed, predicted)
            assert _skill_rows(np.ones(5), predicted[1:2])[3].tolist() == [True]
        assert rho.tolist()[::2] == [0.0, 0.0]
        assert degenerate.tolist() == [True, False, True]
        assert_rows_match_the_oracle(observed, predicted)

    def test_perfect_correlation_is_clipped_to_one(self):
        # affine copies whose centred dot products round rho above 1
        over = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.random(10)
            b = a * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
            ac, bc = a - a.mean(), b - b.mean()
            above = np.dot(ac, bc) / np.sqrt(np.dot(ac, ac) * np.dot(bc, bc)) > 1
            rho = _skill_rows(a, b[None])[0][0]
            assert rho == 1.0 if above else rho <= 1.0
            assert_rows_match_the_oracle(a, b[None])
            over += above
        assert over > 0

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_rows_raise_for_the_first(self, scale):
        v = gen_coupled_logistic(300)[0].values
        fine = np.vstack([v, v[::-1]])
        assert_rows_match_the_oracle(v, fine)
        with pytest.raises(NumericalError, match="too large for float64 sums"):
            _skill_rows(v, np.vstack([v, v * scale]))
        assert_rows_match_the_oracle(v * scale, fine * scale)


@pytest.mark.parametrize("make, name", [
    (lambda: TimeSeries("x", [1, 2, 3], origin_index=1.5), "origin_index"),
    (lambda: TimeSeries("x", [1, 2, 3], origin_index=2.0), "origin_index"),
    (lambda: windowed_pearson(TimeSeries("x", np.arange(10.0)),
                              TimeSeries("y", np.arange(10.0) ** 2), 0.5, 5),
     "start and end"),
    (lambda: windowed_pearson(TimeSeries("x", np.arange(10.0)),
                              TimeSeries("y", np.arange(10.0) ** 2), 0, 5.0),
     "start and end"),
], ids=["origin-1.5", "origin-2.0", "start-0.5", "end-5.0"])
def test_non_integer_times_are_rejected(make, name):
    # int() would truncate 1.5 to 1; a float bound would fail the slice
    with pytest.raises(DataError, match=f"^{name} must "):
        make()


class TestWindowedPearson:
    def test_equals_sliced_pearson(self):
        rng = np.random.default_rng(4)
        x = TimeSeries("x", rng.normal(size=200))
        y = TimeSeries("y", rng.normal(size=200))
        for _ in range(50):
            a = int(rng.integers(0, 198))
            b = int(rng.integers(a + 1, 200))
            assert windowed_pearson(x, y, a, b) == pearson(
                x.values[a:b + 1], y.values[a:b + 1])

    def test_window_is_inclusive(self):
        x = TimeSeries("x", [0, 1, 2, 3, 9])
        y = TimeSeries("y", [0, 1, 2, 3, -9])
        # [0,3] excludes the discordant last point
        assert windowed_pearson(x, y, 0, 3) == pytest.approx(1.0)

    @pytest.mark.parametrize("start,end", [(-1, 5), (0, 10), (5, 5), (7, 3)])
    def test_bad_windows(self, start, end):
        x = TimeSeries("x", np.arange(10.0))
        y = TimeSeries("y", np.arange(10.0))
        with pytest.raises(DataError):
            windowed_pearson(x, y, start, end)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            windowed_pearson(TimeSeries("x", [1, 2, 3]),
                             TimeSeries("y", [1, 2]), 0, 1)

    def test_mirage_window_on_coupled_logistic(self):
        # the figure's negative-correlation window, past the transient
        x, y = gen_coupled_logistic(1000, burn_in=849)
        assert windowed_pearson(x, y, 840, 850) < -0.8


class TestCsvRoundTrip:
    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        a = TimeSeries("alpha", rng.normal(size=40))
        b = TimeSeries("beta", rng.uniform(1e-9, 1e9, size=40))
        path = tmp_path / "pair.csv"
        write_series_csv(path, [a, b])
        back = read_series_csv(path)
        assert [s.name for s in back] == ["alpha", "beta"]
        assert np.array_equal(back[0].values, a.values)
        assert np.array_equal(back[1].values, b.values)

    @settings(max_examples=60, deadline=None, database=None)
    @given(names=st.lists(st.text(alphabet="AZaz09_ ,\"'\n", min_size=1,
                                  max_size=8).filter(lambda t: t == t.strip()),
                          min_size=1, max_size=4, unique=True),
           n_rows=st.integers(1, 20), data=st.data())
    def test_round_trip_is_bit_exact(self, names, n_rows, data):
        # negative zero, subnormals and 17-significant-digit values too
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308,
                             0.30000000000000004, 1.7976931348623157e308]))
        series = [TimeSeries(name, data.draw(st.lists(value, min_size=n_rows,
                                                      max_size=n_rows)))
                  for name in names]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "round.csv")
            write_series_csv(path, series)
            back = read_series_csv(path)
        assert [s.name for s in back] == names
        for got, want in zip(back, series):
            assert got.values.view(np.uint64).tolist() \
                == want.values.view(np.uint64).tolist()

    def test_rejects_missing_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError):
            read_series_csv(p)

    def test_rejects_non_numeric(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,x\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_series_csv(p)

    def test_rejects_nan_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a\n1.0\nnan\n")
        with pytest.raises(DataError, match="non-finite"):
            read_series_csv(p)

    @pytest.mark.parametrize("cell", ["inf", " -Infinity", "NaN ", "1e400", "-1e999"])
    def test_non_finite_cell_is_named(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(DataError) as info:
            read_series_csv(p)
        assert str(info.value) == f"{p}:3: column 'b' has non-finite value {cell!r}"

    def test_rejects_empty_and_headerless(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_series_csv(p)
        p.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            read_series_csv(p)

    def test_reads_utf8_bom(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes("X,Y\n1.0,2.0\n3.0,4.0\n".encode("utf-8-sig"))
        assert [s.name for s in read_series_csv(p)] == ["X", "Y"]

    def test_ignores_trailing_blank_lines(self, tmp_path):
        p = tmp_path / "trail.csv"
        p.write_text("X,Y\n1.0,2.0\n3.0,4.0\n\n\n")
        x, y = read_series_csv(p)
        assert x.values.tolist() == [1.0, 3.0]
        assert y.values.tolist() == [2.0, 4.0]

    def test_ignores_trailing_whitespace_only_lines(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"X,Y\r\n1,2\r\n3,4\r\n5,6\r\n \r\n")
        x, y = read_series_csv(p)
        assert x.values.tolist() == [1.0, 3.0, 5.0]
        assert y.values.tolist() == [2.0, 4.0, 6.0]
        p.write_text("X\n1.0\n2.0\n\t\n\n")
        assert read_series_csv(p)[0].values.tolist() == [1.0, 2.0]
        p.write_text("X,Y\n1.0,2.0\n , \t\n")
        assert read_series_csv(p)[0].values.tolist() == [1.0]

    @pytest.mark.parametrize("blank", [" ", "\t", " , "])
    def test_rejects_whitespace_only_line_between_rows(self, tmp_path, blank):
        p = tmp_path / "gap.csv"
        p.write_text(f"X,Y\n1.0,2.0\n{blank}\n3.0,4.0\n")
        with pytest.raises(DataError, match=r"gap\.csv:3: expected 2 cells, got 0"):
            read_series_csv(p)

    def test_rejects_blank_line_between_rows(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("X,Y\n1.0,2.0\n\n3.0,4.0\n")
        with pytest.raises(DataError, match=r"gap\.csv:3: expected 2 cells, got 0"):
            read_series_csv(p)

    @pytest.mark.parametrize("content, error", [
        # an Excel "Unicode Text" export: UTF-16 LE with a byte-order mark
        ("\ufeffX\tY\n1\t2\n".encode("utf-16-le"),
         "not UTF-8 text (byte 0xff: invalid start byte); save it as UTF-8"),
        # a cp1252 header
        (b"Temp\xe9rature,Y\n1,2\n",
         "not UTF-8 text (byte 0xe9: invalid continuation byte); save it as UTF-8"),
    ])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, content, error):
        p = tmp_path / "enc.csv"
        p.write_bytes(content)
        with pytest.raises(DataError) as info:
            read_series_csv(p)
        assert str(info.value) == f"{p}: {error}"

    def test_a_field_over_the_csv_limit_is_named_with_its_line(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text('X,Y\n1,2\n3,"' + "4" * 200_000 + '"\n')
        with pytest.raises(DataError) as info:
            read_series_csv(p)
        assert str(info.value) == f"{p}:3: field larger than field limit (131072)"

    @pytest.mark.parametrize("content, error", [
        ('"X\nA",Y\n1,2\n3,oops\n', "4: column 'Y' has non-numeric cell 'oops'"),
        ('X,Y\n"1\n\n",2\n3\n', "5: expected 2 cells, got 1"),
        ('X,Y\n1,"2\n"\n\n3,4\n', "4: expected 2 cells, got 0"),
        ('X,Y\n1,2\n3,"in\nf"\n', "4: column 'Y' has non-numeric cell 'in\\nf'"),
    ], ids=["header", "cell-count", "blank-line", "cell"])
    def test_a_quoted_cell_that_spans_lines_counts_each_line(self, tmp_path,
                                                              content, error):
        p = tmp_path / "ml.csv"
        p.write_text(content)
        with pytest.raises(DataError) as info:
            read_series_csv(p)
        assert str(info.value) == f"{p}:{error}"

    def test_rejects_duplicate_headers(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("a,a\n1.0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_series_csv(p)

    def test_write_length_mismatch(self, tmp_path):
        with pytest.raises(DataError):
            write_series_csv(tmp_path / "x.csv",
                             [TimeSeries("a", [1.0]), TimeSeries("b", [1, 2])])

    def test_write_length_mismatch_names_both_series(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(DataError) as info:
            write_series_csv(path, [TimeSeries("X", [1.0, 2.0, 3.0]),
                                    TimeSeries("Y", [1.0, 2.0])])
        assert str(info.value) == "series lengths differ: 'X' has 3, 'Y' has 2"
        assert not path.exists()

    def test_write_with_no_series(self, tmp_path):
        with pytest.raises(DataError) as info:
            write_series_csv(tmp_path / "x.csv", [])
        assert str(info.value) == "nothing to write: no series given"

    def test_rejects_an_unnamed_header_column(self, tmp_path):
        p = tmp_path / "unnamed.csv"
        p.write_text("X,,Y\n1.0,2.0,3.0\n")
        with pytest.raises(DataError) as info:
            read_series_csv(p)
        assert str(info.value) == f"{p}: header row must name every column"

    def test_write_origin_mismatch(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(DataError, match="^series must share a time origin$"):
            write_series_csv(path, [TimeSeries("a", [1.0, 2.0]),
                                    TimeSeries("b", [1.0, 2.0], origin_index=3)])
        assert not path.exists()
        # a shared origin other than 0 is written, though not recorded
        write_series_csv(path, [TimeSeries("a", [1.0, 2.0], origin_index=3),
                                TimeSeries("b", [4.0, 5.0], origin_index=3)])
        assert [s.values.tolist() for s in read_series_csv(path)] \
            == [[1.0, 2.0], [4.0, 5.0]]
