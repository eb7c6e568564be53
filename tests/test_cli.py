import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossmap
from crossmap import (CcmConfig, causal_summary, ccm_curve, eccm_profile,
                      read_series_csv, select_embedding_dimension)
from crossmap.cli import (RunReport, curve_dict, main, network_dict,
                          profile_dict, scan_dict)
from crossmap.systems import gen_coupled_logistic


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def constant_effect_csv(tmp_path):
    """400 rows: X random, Y = 0.5 throughout."""
    path = tmp_path / "const_y.csv"
    x = np.random.default_rng(0).random(400).tolist()
    path.write_text("X,Y\n" + "".join(f"{v!r},0.5\n" for v in x))
    return path


CONSTANT_Y = ("X=>Y: effect 'Y' is constant; every distance is 0, so "
              "neighbors are the earliest library times")


@pytest.fixture()
def huge_x_csv(tmp_path):
    """300 coupled-logistic rows with X scaled by 1e160, Y as generated."""
    x, y = gen_coupled_logistic(300)
    path = tmp_path / "huge_x.csv"
    path.write_text("X,Y\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                        zip((x.values * 1e160).tolist(),
                                            y.values.tolist())))
    return path


@pytest.fixture()
def coupled_csv(tmp_path):
    path = tmp_path / "cl.csv"
    rc = main(["generate", "--system", "coupled-logistic", "--steps", "600",
               "--out", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "cl.csv"
        rc = main(["generate", "--system", "coupled-logistic",
                   "--steps", "1000", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,Y"
        assert len(lines) == 1001
        assert lines[1] == "0.2,0.5"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--system", "lorenz", "--steps", "200", "--out", str(a)])
        main(["generate", "--system", "lorenz", "--steps", "200", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_steps_is_usage_error(self, tmp_path):
        rc = main(["generate", "--system", "lorenz", "--steps", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_param_overrides(self, tmp_path):
        out = tmp_path / "lag.csv"
        rc = main(["generate", "--system", "lagged-logistic", "--steps", "100",
                   "--param", "delay=4", "--param", "coupling=0.2",
                   "--out", str(out)])
        assert rc == 0
        from crossmap import read_series_csv
        from crossmap.systems import gen_lagged_logistic
        got = read_series_csv(out)
        want = gen_lagged_logistic(100, delay=4, coupling=0.2)
        assert np.array_equal(got[1].values, want[1].values)

    def test_comma_list_sets_lorenz_initial_state(self, tmp_path):
        out = tmp_path / "lorenz.csv"
        rc = main(["generate", "--system", "lorenz", "--steps", "20",
                   "--param", "initial=1,2.5,-3", "--out", str(out)])
        assert rc == 0
        from crossmap import read_series_csv
        from crossmap.systems import gen_lorenz
        got = read_series_csv(out)
        want = gen_lorenz(20, initial=(1, 2.5, -3))
        assert [s.values[0] for s in got] == [1.0, 2.5, -3.0]
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)

    def test_bad_param_shape(self, tmp_path):
        rc = main(["generate", "--system", "lorenz", "--steps", "10",
                   "--param", "dt", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_param_is_data_error(self, tmp_path):
        rc = main(["generate", "--system", "lorenz", "--steps", "10",
                   "--param", "zeta=1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_escaping_state_is_numerical_error(self, tmp_path):
        rc = main(["generate", "--system", "coupled-logistic", "--steps", "1000",
                   "--param", "rx=4.2", "--out", str(tmp_path / "x.csv")])
        assert rc == 4

    @pytest.mark.parametrize("system,params,message", [
        ("lagged-logistic", ["coupling=8"], "Y left [0,1] at step 3: -0.48731294999999986;"),
        ("lagged-logistic", ["x0=1.5"], "X left [0,1] at step 0: 1.5;"),
        ("moran-fork", ["coupling=8"], "A left [0,1] at step 1: -0.04800000000000004;"),
        ("moran-fork", ["coupling=8", "driver_kind=noise"],
         "A left [0,1] at step 1: -0.42713869971432694;"),
    ], ids=["lagged", "lagged-initial", "fork-logistic", "fork-noise"])
    def test_escape_message_prints_a_plain_float(self, tmp_path, capsys,
                                                 system, params, message):
        flags = [f for p in params for f in ("--param", p)]
        rc = main(["generate", "--system", system, "--steps", "50", *flags,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert f"numerical failure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("system,params,message", [
        ("lagged-logistic", ["delay=2.0"], "delay must be an integer >= 0, got 2.0"),
        ("lorenz", ["initial=abc"], "initial state must be three numbers, got 'abc'"),
        ("moran-fork", ["driver_kind=noise", "seed=-1"],
         "seed must be non-negative, got -1"),
        ("moran-fork", ["seed=-1"], "seed must be non-negative, got -1"),
        ("lagged-logistic", ["coupling=abc"], "coupling must be a number, got 'abc'"),
        ("coupled-logistic", ["rx=3.8,3.9"], "rx must be a number, got (3.8, 3.9)"),
        ("lorenz", ["initial=1,2"], "initial state must have three components"),
    ], ids=["float-delay", "text-initial", "negative-seed", "logistic-negative-seed",
            "text-coupling", "list-rate", "short-initial"])
    def test_bad_param_value_is_data_error(self, tmp_path, capsys,
                                           system, params, message):
        out = tmp_path / "x.csv"
        flags = [f for p in params for f in ("--param", p)]
        rc = main(["generate", "--system", system, "--steps", "50", *flags,
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()


class TestSimplex:
    def test_scan_report(self, coupled_csv, tmp_path, capsys):
        rc = main(["simplex", "-i", str(coupled_csv), "--col", "Y",
                   "--e-range", "1:6"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        scan = report["results"]["e_scan"]
        assert len(scan["rows"]) == 6
        best = next(r for r in scan["rows"] if r["e_dim"] == scan["best_e"])
        assert best["stats"]["rho"] > 0.99
        assert report["config"]["tau"] == 1 and report["config"]["tp"] == 1

    def test_missing_column_lists_available(self, coupled_csv, capsys):
        rc = main(["simplex", "-i", str(coupled_csv), "--col", "Q"])
        assert rc == 3
        assert "X, Y" in capsys.readouterr().err

    def test_constant_column_warns(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("C\n" + "1.5\n" * 60)
        rc = main(["simplex", "-i", str(p), "--col", "C", "--e-range", "1:3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"]

    def test_missing_file(self, tmp_path):
        rc = main(["simplex", "-i", str(tmp_path / "nope.csv"), "--col", "X"])
        assert rc == 3

    def test_overflowing_distances_are_named(self, huge_x_csv, capsys):
        rc = main(["simplex", "-i", str(huge_x_csv), "--col", "X",
                   "--e-range", "1:3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: series 'X': no scanned dimension could be scored; "
            "E=1: need 2 neighbors but only 0 usable candidates for the target "
            "at time 0\n")

    def test_overflowing_difference_prints_only_the_failure(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        values = np.tile([1e308, -1e308, 0.5, 0.25, 3.0], 20).tolist()
        path.write_text("s\n" + "".join(f"{v!r}\n" for v in values))
        rc = main(["simplex", "-i", str(path), "--col", "s", "--e-range", "1:2"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "numerical failure: correlation is not finite: the values are too "
            "large for float64 sums; rescale them\n")

    def test_trailing_whitespace_line_is_ignored(self, tmp_path, capsys):
        p = tmp_path / "ws.csv"
        x = np.random.default_rng(1).random(40).tolist()
        p.write_text("X\n" + "".join(f"{v!r}\n" for v in x) + "\t\n")
        rc = main(["simplex", "-i", str(p), "--col", "X", "--e-range", "1:2"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["e_scan"]["rows"]) == 2

    @pytest.mark.parametrize("fraction", ["1.5", "0", "-0.2"])
    def test_split_fraction_out_of_range_is_usage_error(self, coupled_csv,
                                                        capsys, fraction):
        rc = main(["simplex", "-i", str(coupled_csv), "--col", "X",
                   "--split-fraction", fraction])
        assert rc == 2
        assert (f"error: --split-fraction must be in (0,1), got "
                f"{float(fraction)}") in capsys.readouterr().err


class TestCcmCommand:
    def test_both_directions(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(coupled_csv), "--cause", "X",
                   "--effect", "Y", "--e", "2", "--samples", "10",
                   "--both-directions", "--out", str(out)])
        assert rc == 0
        report = RunReport.from_json(out.read_text())
        dirs = [c["direction"] for c in report.results["curves"]]
        assert dirs == ["X=>Y", "Y=>X"]
        assert report.config["seed"] == 0
        assert report.config["lib_sizes"] is None

    def test_config_echo_states_every_field(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(coupled_csv), "--cause", "X", "--effect", "Y",
                   "--e", "2", "--tau", "2", "--lag", "-1", "--lib-sizes", "6,20,60",
                   "--samples", "3", "--seed", "4", "--contiguous", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"] == {
            "e_dim": 2, "tau": 2, "lag": -1, "lib_sizes": [6, 20, 60],
            "samples_per_size": 3, "seed": 4, "contiguous_draws": True,
            "min_rho_gain": 0.1, "min_kendall_tau": 0.5, "min_final_rho": 0.2,
            "e_source": "2", "both_directions": False, "pai": False}

    def test_byte_identical_rerun(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        argv = ["ccm", "-i", str(coupled_csv), "--cause", "X", "--effect", "Y",
                "--e", "2", "--samples", "8", "--out", str(out)]
        main(argv)
        first = out.read_bytes()
        main(argv)
        assert out.read_bytes() == first

    def test_report_round_trip(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        main(["ccm", "-i", str(coupled_csv), "--cause", "X", "--effect", "Y",
              "--e", "2", "--samples", "5", "--out", str(out)])
        text = out.read_text()
        report = RunReport.from_json(text)
        assert report.to_json() + "\n" == text

    def test_auto_e(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(coupled_csv), "--cause", "X",
                   "--effect", "Y", "--samples", "5", "--out", str(out)])
        assert rc == 0
        report = RunReport.from_json(out.read_text())
        assert report.config["e_source"] == "auto"
        assert report.config["e_dim"] >= 2

    def test_pai_payload(self, coupled_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(coupled_csv), "--cause", "X",
                   "--effect", "Y", "--e", "2", "--samples", "5", "--pai",
                   "--out", str(out)])
        assert rc == 0
        report = RunReport.from_json(out.read_text())
        assert report.results["pai"][0]["direction"] == "X=>Y"

    def test_bad_e_value(self, coupled_csv):
        assert main(["ccm", "-i", str(coupled_csv), "--cause", "X",
                     "--effect", "Y", "--e", "wide"]) == 2

    @pytest.mark.parametrize("cmd,flags", [
        ("ccm", ["--samples", "0"]),
        ("ccm", ["--tau", "0"]),
        ("ccm", ["--seed", "-1"]),
        ("eccm", ["--tau", "0", "--lags=-2:2"]),
        ("simplex", ["--tau", "0"]),
        ("simplex", ["--e-range", "0:3"]),
        ("demo", ["--seed", "-1"]),
        ("generate", ["--burn-in", "-5"]),
        ("generate", ["--seed", "-1"]),
        ("ccm", ["--lib-sizes", "10,10"]),
        ("ccm", ["--lib-sizes", "10,5"]),
        ("ccm", ["--lib-sizes", "0,10"]),
    ])
    def test_out_of_range_flag_is_usage_error(self, coupled_csv, tmp_path,
                                              capsys, cmd, flags):
        # --e auto: the flag must be rejected before the E scan runs, and
        # no command may write anything first
        out = tmp_path / "out"
        head = {"ccm": ["-i", coupled_csv, "--cause", "X", "--effect", "Y"],
                "eccm": ["-i", coupled_csv, "--cause", "X", "--effect", "Y"],
                "simplex": ["-i", coupled_csv, "--col", "X"],
                "demo": ["fig7", "--out-dir", out],
                "generate": ["--system", "coupled-logistic", "--steps", "10",
                             "--out", out]}[cmd]
        rc = main([cmd, *map(str, head), *flags])
        assert rc == 2
        assert f"error: {flags[0]} must be >=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,flags", [
        ("ccm", []),
        ("eccm", ["--lags=-2:2"]),
    ])
    def test_equal_cause_and_effect_is_usage_error(self, tmp_path, capsys,
                                                   cmd, flags):
        # the input does not exist: the pair must be rejected before any
        # column is read (a read would exit 3) or E is scanned
        out = tmp_path / "out"
        rc = main([cmd, "-i", str(tmp_path / "missing.csv"), "--cause", "X",
                   "--effect", "X", *flags, "--out", str(out)])
        assert rc == 2
        assert ("error: --cause and --effect must differ, got 'X' for both"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_too_few_sizes_warns_that_convergence_was_not_tested(self, tmp_path):
        data = tmp_path / "cl.csv"
        main(["generate", "--system", "coupled-logistic", "--steps", "400",
              "--out", str(data)])
        reports = {}
        for sizes in ("5,200", "5,20,200"):
            out = tmp_path / f"{sizes}.json"
            rc = main(["ccm", "-i", str(data), "--cause", "X", "--effect", "Y",
                       "--e", "2", "--lib-sizes", sizes, "--both-directions",
                       "--out", str(out)])
            assert rc == 0
            reports[sizes] = RunReport.from_json(out.read_text())
        assert reports["5,200"].warnings == [
            "X=>Y: convergence test skipped: 2 library sizes (needs 3)",
            "Y=>X: convergence test skipped: 2 library sizes (needs 3)"]
        assert reports["5,20,200"].warnings == []
        assert reports["5,20,200"].results["curves"][0]["convergent"]

    def test_constant_effect_warns(self, constant_effect_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(constant_effect_csv), "--cause", "X",
                   "--effect", "Y", "--e", "2", "--samples", "5",
                   "--both-directions", "--out", str(out)])
        assert rc == 0
        warnings = RunReport.from_json(out.read_text()).warnings
        # only X=>Y has the constant effect; Y=>X has degenerate draws
        assert warnings.count(CONSTANT_Y) == 1
        assert not any("effect 'X'" in w for w in warnings)

    def test_warnings_are_the_library_curves_warnings(self, constant_effect_csv,
                                                      tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ccm", "-i", str(constant_effect_csv), "--cause", "X",
                   "--effect", "Y", "--e", "2", "--samples", "5",
                   "--lib-sizes", "5,200", "--both-directions", "--out", str(out)])
        assert rc == 0
        x, y = read_series_csv(str(constant_effect_csv))
        config = CcmConfig(e_dim=2, samples_per_size=5, lib_sizes=(5, 200))
        expected = ccm_curve(x, y, config).warnings + ccm_curve(y, x, config).warnings
        # every kind of curve warning, in curve order
        assert len(expected) == 4
        assert RunReport.from_json(out.read_text()).warnings == list(expected)

    def test_overflowing_correlation_exits_4(self, huge_x_csv, tmp_path, capsys):
        rc = main(["ccm", "-i", str(huge_x_csv), "--cause", "X", "--effect", "Y",
                   "--e", "2", "--samples", "2", "--lib-sizes", "4,50,299",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 4
        assert "too large for float64 sums; rescale them" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_bad_lib_sizes(self, coupled_csv):
        assert main(["ccm", "-i", str(coupled_csv), "--cause", "X",
                     "--effect", "Y", "--e", "2", "--lib-sizes", "3;4"]) == 2


class TestEccmCommand:
    def test_lag_profile(self, tmp_path):
        src = tmp_path / "lag.csv"
        main(["generate", "--system", "lagged-logistic", "--steps", "800",
              "--param", "delay=2", "--out", str(src)])
        out = tmp_path / "r.json"
        rc = main(["eccm", "-i", str(src), "--cause", "X", "--effect", "Y",
                   "--lags=-6:6", "--e", "2", "--out", str(out)])
        assert rc == 0
        report = RunReport.from_json(out.read_text())
        assert report.results["eccm"]["best_lag"] == -2

    def test_constant_effect_warns(self, constant_effect_csv, tmp_path):
        warnings = {}
        for cause, effect in (("X", "Y"), ("Y", "X")):
            out = tmp_path / f"{effect}.json"
            rc = main(["eccm", "-i", str(constant_effect_csv), "--cause", cause,
                       "--effect", effect, "--lags=-2:2", "--e", "2",
                       "--out", str(out)])
            assert rc == 0
            warnings[effect] = RunReport.from_json(out.read_text()).warnings
        # every Y=>X estimate is the constant Y
        assert warnings == {"Y": [CONSTANT_Y], "X": [
            "Y=>X: 5 degenerate lags (zero-variance estimates) across the sweep"]}

    def test_empty_lag_range(self, coupled_csv):
        assert main(["eccm", "-i", str(coupled_csv), "--cause", "X",
                     "--effect", "Y", "--lags", "5:1"]) == 2

    def test_a_closed_stdout_exits_1_quietly(self, coupled_csv, monkeypatch, capsys):
        # the reader of the report went away, as ``crossmap eccm ... | head``
        # leaves it: that is no data error, and nothing is printed
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["eccm", "-i", str(coupled_csv), "--cause", "X",
                     "--effect", "Y", "--lags=-2:2"]) == 1
        assert capsys.readouterr().err == ""

    def test_a_closed_pipe_leaves_no_error_at_shutdown(self, coupled_csv):
        # a pipe whose read end is closed before the report is written
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ,
               "PYTHONPATH": str(Path(crossmap.__file__).resolve().parents[1])}
        try:
            done = subprocess.run([sys.executable, "-m", "crossmap.cli", "eccm",
                                   "-i", str(coupled_csv), "--cause", "X",
                                   "--effect", "Y", "--lags=-2:2"],
                                  stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr.decode()) == (1, "")


class TestDemo:
    def test_fig3(self, tmp_path, capsys):
        rc = main(["demo", "fig3", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fig3_report.json").read_text())
        rs = [w["r"] for w in report["results"]["windows"]]
        assert rs[0] > 0.7 and abs(rs[1]) < 0.15 and rs[2] < -0.8
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "t,X,Y" and len(lines) == 1001

    def test_fig7(self, tmp_path):
        rc = main(["demo", "fig7", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fig7_report.json").read_text())
        curves = {c["direction"]: c for c in report["results"]["curves"]}
        assert curves["X=>Y"]["convergent"] and curves["Y=>X"]["convergent"]
        assert curves["X=>Y"]["final_rho"] > curves["Y=>X"]["final_rho"]

    def test_fig8(self, tmp_path):
        rc = main(["demo", "fig8", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fig8_report.json").read_text())
        curves = {c["direction"]: c for c in report["results"]["curves"]}
        assert curves["Y=>X"]["convergent"] and not curves["X=>Y"]["convergent"]

    def test_fork(self, tmp_path):
        rc = main(["demo", "fork", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fork_report.json").read_text())
        verdict = {(e["cause"], e["effect"]): e["convergent"]
                   for e in report["results"]["network"]["edges"]}
        assert verdict[("Z", "A")] and verdict[("Z", "B")]
        assert not verdict[("A", "B")] and not verdict[("B", "A")]

    # sha256 of each report's config, inputs, results and warnings
    # (sorted-key JSON) and of its CSV, at seed 0. The curve demos draw 100
    # libraries per size, so each size is scored in several groups of
    # draws, which no benchmark workload does; of the output paths only
    # the CSV's file name is kept
    DEMO_DIGESTS = {
        "fig3": "045e0853897e7dbeb4e8ce9aae0b43d2149f38f53a2b19ef64eee831646ef222",
        "fig7": "d52864b6ac518078db65abdb1dbbaea2c6d4a38bff91209d4d5eff63569ac745",
        "fig8": "3204622098e4ea2dbc7ddeef6237ab4d188f45d041ce6cd3ebc90a22b1a44df3",
        "fork": "d93f12fbbff2f1620058852ae048a78e6ec081d1e60e00a09c8010956fef2870",
    }

    @pytest.mark.parametrize("figure", sorted(DEMO_DIGESTS))
    def test_default_sample_runs_match_their_recorded_digests(self, tmp_path, figure):
        assert main(["demo", figure, "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        report = json.loads((tmp_path / f"{figure}_report.json").read_text())
        inputs = {**report["inputs"], "csv": Path(report["inputs"]["csv"]).name}
        digest = hashlib.sha256(json.dumps(
            {"config": report["config"], "inputs": inputs,
             "results": report["results"], "warnings": report["warnings"]},
            sort_keys=True).encode())
        digest.update((tmp_path / f"{figure}.csv").read_bytes())
        assert digest.hexdigest() == self.DEMO_DIGESTS[figure]

    def test_generated_csv_feeds_every_command(self, tmp_path, capsys):
        # format round-trip: generate -> simplex, ccm, eccm all accept it
        src = tmp_path / "u.csv"
        main(["generate", "--system", "unidirectional-logistic",
              "--steps", "400", "--out", str(src)])
        assert main(["simplex", "-i", str(src), "--col", "X",
                     "--e-range", "1:3"]) == 0
        assert main(["ccm", "-i", str(src), "--cause", "Y", "--effect", "X",
                     "--e", "2", "--samples", "5"]) == 0
        assert main(["eccm", "-i", str(src), "--cause", "Y", "--effect", "X",
                     "--lags=-2:2", "--e", "2"]) == 0
        capsys.readouterr()


class TestReportRows:
    """Each report row is a copy of its result row's fields: equal to
    ``dataclasses.asdict`` of the row, and free to change without
    touching the frozen result it was read from."""

    def test_rows_are_copies_of_the_dataclass_fields(self):
        x, y = gen_coupled_logistic(150)
        config = CcmConfig(e_dim=2, lib_sizes=(20, 60), samples_per_size=3)
        for to_dict, result, key in [
                (scan_dict, select_embedding_dimension(y, range(1, 4)), "rows"),
                (curve_dict, ccm_curve(x, y, config), "rows"),
                (profile_dict, eccm_profile(x, y, config, range(-2, 3)), "rows"),
                (network_dict, causal_summary([x, y], config, [-1, 0]), "edges")]:
            rows = to_dict(result)[key]
            want = [dataclasses.asdict(r) for r in getattr(result, key)]
            assert rows == want and rows
            for row in rows:
                row.clear()
            assert [dataclasses.asdict(r) for r in getattr(result, key)] == want


class TestCsvInput:
    """The CSVs users have: a column the run does not name is never
    converted, and a file the reader cannot decode or split is a data
    error, not a crash."""

    COMMANDS = {
        "simplex": ["--col", "Y", "--e-range", "1:3"],
        "ccm": ["--cause", "X", "--effect", "Y", "--e", "2", "--samples", "5"],
        "eccm": ["--cause", "X", "--effect", "Y", "--e", "2", "--lags=-2:2"],
    }

    @staticmethod
    def dated(path, lines):
        """``lines`` of a CSV with a date column put before its first."""
        path.write_text("".join(
            f"{'date' if i == 0 else f'2020-01-{i:02d}'},{line}\n"
            for i, line in enumerate(lines)))
        return path

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_a_dated_csv_reports_as_the_plain_one(self, coupled_csv, tmp_path,
                                                  capsys, command):
        dated = self.dated(tmp_path / "dated.csv",
                           coupled_csv.read_text().splitlines())
        reports = []
        for path in (coupled_csv, dated):
            assert main([command, "-i", str(path), *self.COMMANDS[command]]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["results"] == reports[0]["results"]
        assert reports[1]["warnings"] == reports[0]["warnings"]

    def test_a_bad_cell_in_a_named_column_keeps_its_text(self, tmp_path, capsys):
        path = self.dated(tmp_path / "dated.csv", ["X,Y", "0.1,0.2", "0.3,oops"])
        assert main(["ccm", "-i", str(path), *self.COMMANDS["ccm"]]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:3: column 'Y' has non-numeric cell 'oops'\n")

    def test_an_error_after_a_multi_line_header_names_its_physical_line(
            self, tmp_path, capsys):
        path = tmp_path / "ml.csv"
        path.write_text('"X\nA",Y\n1,2\n3,oops\n')
        assert main(["simplex", "-i", str(path), "--col", "Y"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:4: column 'Y' has non-numeric cell 'oops'\n")

    def test_an_unnamed_column_still_has_every_cell(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("date,X,Y\n2020-01-01,0.1,0.2\n0.3,0.4\n")
        assert main(["simplex", "-i", str(path), "--col", "X"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:3: expected 3 cells, got 2\n")

    @pytest.mark.parametrize("content, error", [
        # an Excel "Unicode Text" export: UTF-16 LE with a byte-order mark
        ("\ufeffX\tY\n1\t2\n".encode("utf-16-le"),
         "not UTF-8 text (byte 0xff: invalid start byte); save it as UTF-8"),
        (b"Temp\xe9rature,Y\n1,2\n",
         "not UTF-8 text (byte 0xe9: invalid continuation byte); save it as UTF-8"),
    ])
    def test_a_file_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys,
                                                     content, error):
        path = tmp_path / "enc.csv"
        path.write_bytes(content)
        assert main(["simplex", "-i", str(path), "--col", "Y"]) == 3
        assert capsys.readouterr().err == f"data error: {path}: {error}\n"

    def test_a_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text('X,Y\n1,2\n3,"' + "4" * 200_000 + '"\n')
        assert main(["simplex", "-i", str(path), "--col", "Y"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}:3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("command", [
    ["ccm", "--cause", "X", "--effect", "Y", "--e", "2", "--samples", "10",
     "--both-directions"],
    ["simplex", "--col", "Y", "--e-range", "1:10"],
])
def test_reports_do_not_depend_on_blas_threads(tmp_path, command):
    # the neighbor table's BLAS screen may round differently on more
    # threads; that can change which entries are trusted, never a number
    x, y = gen_coupled_logistic(800)
    path = tmp_path / "tied.csv"
    path.write_text("X,Y\n" + "".join(f"{a:.2f},{b:.2f}\n" for a, b in
                                        zip(x.values, y.values)))
    src = str(Path(crossmap.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "crossmap.cli", command[0],
                               "-i", str(path), *command[1:]],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        reports.append(done.stdout)
    assert reports[0] == reports[1]
