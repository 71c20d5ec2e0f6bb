"""End-to-end tests of the command-line interface.

Most tests call main(argv) in-process for speed; one subprocess test
proves the module entry point works. Oracle notes are tagged [TRIVIAL] /
[DERIVED] as in conftest.py.
"""

import csv
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_price_csv
from smfdfa import hurst_dfa, load_csv, to_fluctuations
from smfdfa.cli import main


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


@pytest.fixture()
def price_csv(tmp_path):
    rng = np.random.default_rng(42)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 600)))
    path = tmp_path / "prices.csv"
    write_price_csv(path, prices)
    return path


@pytest.fixture()
def cascade_csv(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "cascade", "--levels", "10", "--out", str(out)]) == 0
    return out / "series.csv"


# ------------------------------------------------------------------ errors


class TestErrorPaths:
    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert "nope.csv" in err

    def test_cascade_weight_order_exits_2(self, tmp_path, capsys):
        code = main(["synth", "cascade", "--b1", "0.2", "--b2", "0.8",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_step_break_position_exits_2(self, tmp_path, capsys):
        code = main(["synth", "step", "--n", "100", "--break-at", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--break-at" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--shift", "inf"),
                                             ("--offset", "-inf")])
    def test_non_finite_synth_value_exits_2(self, flag, value, tmp_path, capsys):
        # a NaN --sigma once exited 0 with every price empty, a file that
        # load_csv then rejected
        code = main(["synth", "step", "--n", "100", f"{flag}={value}",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"input error: {flag} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, flags, named", [
        ("fgn", ["--n", "64", "--sigma", "1e308", "--offset", "1e308"],
         "sigma squared overflows, got 1e+308"),
        ("step", ["--n", "100", "--shift", "1e308", "--offset", "1e308"],
         "the step series overflows; lower --sigma or --shift or --offset"),
        ("arfima", ["--n", "100", "--sigma", "1e308"],
         "the arfima series overflows; lower --sigma or --offset"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_synth_series_exits_2(self, kind, flags, named, tmp_path, capsys):
        # finite flags whose series overflows: fgn once raised an
        # OverflowError traceback (exit 1), step and arfima exited 0 with
        # inf prices that load_csv then rejected, and later printed NumPy's
        # overflow warnings before the one input error line
        code = main(["synth", kind, *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {named}\n"
        assert not (tmp_path / "o").exists()

    def test_forecast_break_outside_series_exits_2(self, price_csv, tmp_path, capsys):
        code = main(["forecast", str(price_csv), "--breaks", "manual:900",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "strictly inside" in capsys.readouterr().err

    def test_forecast_unparseable_breaks_exits_2(self, price_csv, tmp_path, capsys):
        code = main(["forecast", str(price_csv), "--breaks", "sometimes",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--breaks must be" in capsys.readouterr().err

    def test_forecast_lags_and_hidden_units_below_one_exit_2(self, price_csv, tmp_path,
                                                              capsys):
        # each once exited 2 as "no segment was long enough to train on",
        # after every row had been skipped with this message
        cfg = tmp_path / "p0.json"
        cfg.write_text(json.dumps({"p": 0}))
        for flags in (["--p", "0"], ["--p", "-2"], ["--hidden", "0"], ["--config", str(cfg)]):
            code = main(["forecast", str(price_csv), "--breaks", "manual:300", *flags,
                         "--out", str(tmp_path / "o")])
            assert code == 2, flags
            assert capsys.readouterr().err == "input error: p and hidden_units must be >= 1\n"
            assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_2(self, price_csv, tmp_path, capsys):
        code = main(["mfdfa", str(price_csv), "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err
        # malformed values and unknown keys are input errors naming their
        # key, not tracebacks or silently ignored settings (there is one
        # change-point cost and one search, so "statistic" and "cp_method"
        # are not keys)
        for key, value in (("q_grid", ["a", 1]), ("min_segment", "x"), ("penalty", "high"),
                           ("qgrid", [1, 2, 3]), ("statistic", "mean-only"),
                           ("cp_method", "exact-dp")):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            code = main(["analyze", str(price_csv), "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config key {key!r}" in capsys.readouterr().err

    def test_non_finite_moments_and_bounds_exit_2(self, price_csv, tmp_path, capsys):
        # a NaN q once made mfdfa exit 3 on an error meant for computation
        # bugs and analyze exit 0 with every regime skipped; -Infinity
        # exited 3 "vanished" (json.dumps writes NaN, Infinity, -Infinity)
        for i, cfg in enumerate(({"q_grid": [-2, -1, 1, math.nan, 2, 3]},
                                 {"q_grid": [-math.inf, -2, -1, 1, 2, 3]},
                                 {"regression_range": [16, math.inf]})):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            for command in ("analyze", "mfdfa", "surrogate"):
                out = tmp_path / f"{command}{i}"
                assert main([command, str(price_csv), "--config", str(path),
                             "--out", str(out)]) == 2, (cfg, command)
                assert ("input error: q_grid and regression_range must hold finite values"
                        in capsys.readouterr().err), (cfg, command)
                assert not out.exists()

    def test_integer_keys_reject_fractions_bools_and_strings(self, price_csv, tmp_path, capsys):
        # int() once truncated "detrend_order": 1.5 to 1 and echoed 1
        cases = (
            ("detrend_order", 1.5, ["mfdfa"]),
            ("detrend_order", True, ["mfdfa"]),
            ("scale_grid", [16, 32.5, 64, 128], ["mfdfa"]),
            ("min_segment", "64", ["changepoints"]),
            ("max_breaks", 2.5, ["changepoints"]),
            ("p", 3.5, ["forecast", "--breaks", "none"]),
            ("hidden_units", False, ["forecast", "--breaks", "none"]),
        )
        for key, value, argv in cases:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({key: value}))
            assert main([argv[0], str(price_csv), *argv[1:], "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 2, key
            assert (f"input error: config key {key!r} has a bad value {value!r}: "
                    "expected an integer" in capsys.readouterr().err), key
            assert not (tmp_path / "o").exists()
        # integral values, written as integers or not, keep their echo
        path = tmp_path / "integral.json"
        path.write_text(json.dumps({"detrend_order": 2.0, "scale_grid": [16, 32.0, 64, 128]}))
        assert main(["mfdfa", str(price_csv), "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "manifest.json").read_text()
        assert '"detrend_order": 2,' in text
        assert json.loads(text)["config"]["scale_grid"] == [16, 32, 64, 128]

    def test_number_keys_reject_bools_and_strings(self, price_csv, tmp_path, capsys):
        # bool is a subclass of int: {"penalty": true} once ran with 0 breaks
        # and echoed true, and q_grid items went through float(), so true
        # and "1" ran as 1.0
        cases = (
            ("penalty", True, ["changepoints"]),
            ("regression_range", [False, 100], ["mfdfa"]),
            ("q_grid", [-2, -1, True, 2, 3], ["mfdfa"]),
            ("q_grid", ["-2", "-1", "1", "2", "3"], ["analyze"]),
        )
        for key, value, argv in cases:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({key: value}))
            assert main([argv[0], str(price_csv), *argv[1:], "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 2, (key, value)
            assert (f"input error: config key {key!r} has a bad value {value!r}: "
                    "expected a number" in capsys.readouterr().err), (key, value)
            assert not (tmp_path / "o").exists()

    def test_overflowing_window_variance_exits_3(self, tmp_path, capsys):
        # values near 1e155 once printed overflow RuntimeWarnings and exited
        # 3 on "power-mean monotonicity violated", an error meant for bugs
        path = write_price_csv(tmp_path / "huge.csv", np.where(np.arange(1000) % 2, 2e155, 1e155))
        for argv in (["mfdfa"], ["surrogate", "--n", "10"]):
            out = tmp_path / argv[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([argv[0], str(path), "--transform", "values", *argv[1:],
                             "--out", str(out)]) == 3, argv
            assert ("numerical failure: window variance overflows at (s=16, gamma=1)"
                    in capsys.readouterr().err), argv
            assert not out.exists()

    def test_analyze_rejects_transform_flag(self, price_csv, tmp_path, capsys):
        # analyze always segments the fluctuation series, so a --transform
        # it would ignore is a usage error (mfdfa and surrogate keep it)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(price_csv), "--transform", "values",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --transform values" in capsys.readouterr().err

    def test_synth_rejects_config_and_format_flags(self, tmp_path, capsys):
        # synth reads no config file and always writes CSV, so both flags
        # would be ignored: they are usage errors
        for flags in (["--config", str(tmp_path / "no.json")], ["--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                main(["synth", "fgn", *flags, "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_that_is_a_file_exits_2(self, price_csv, tmp_path, capsys):
        # --out naming an existing file, or a path under one, is an input
        # error rather than a traceback
        for out in (price_csv, price_csv / "sub"):
            code = main(["changepoints", str(price_csv), "--out", str(out)])
            assert code == 2
            assert "input error: cannot create output directory" in capsys.readouterr().err
        assert price_csv.is_file()

    def test_negative_seed_exits_2(self, price_csv, tmp_path, capsys):
        # NumPy generators take only non-negative seeds; main rejects a
        # negative one for every subcommand before any handler runs
        out = tmp_path / "o"
        for argv in (["synth", "fgn"], *([cmd, str(price_csv)] for cmd in
                     ("analyze", "changepoints", "mfdfa", "surrogate", "forecast"))):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--seed", "-1", "--out", str(out)])
            assert exc.value.code == 2
            assert "--seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_input_that_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        code = main(["analyze", str(tmp_path / "d"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "input error: cannot read input file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_a_directory_exits_2(self, price_csv, tmp_path, capsys):
        code = main(["mfdfa", str(price_csv), "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "input error: cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_input_exits_2(self, price_csv, tmp_path, capsys):
        # a 0xff byte in a price is an input error naming the file, not a
        # UnicodeDecodeError traceback
        bad = tmp_path / "bad.csv"
        bad.write_bytes(price_csv.read_bytes().replace(b",1", b",\xff1", 1))
        assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert (f"input error: cannot read input file {bad}: not UTF-8 text"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_field_over_the_csv_limit_exits_2(self, price_csv, tmp_path, capsys):
        # a price field over csv.field_size_limit() is an input error naming
        # the file and the line, not a csv.Error traceback
        bad = tmp_path / "long.csv"
        bad.write_text(price_csv.read_text() + "2010-01-01," + "9" * 200000 + "\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert (f"input error: {bad} line 602: field larger than field limit (131072)"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exits_2(self, price_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"penalty": "\xff"}')
        code = main(["mfdfa", str(price_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"input error: cannot read config file {cfg}: not UTF-8 text"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_q_grid_too_small_for_a_spectrum_exits_2(self, price_csv, tmp_path, capsys):
        # every command that builds a spectrum rejects a q grid of < 5
        # points up front, not as a "too short" flag on each regime;
        # commands that ignore q_grid accept the same file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q_grid": [-2, 0, 2, 4]}))
        for command in ("analyze", "mfdfa", "surrogate"):
            code = main([command, str(price_csv), "--config", str(cfg),
                         "--out", str(tmp_path / command)])
            assert code == 2, command
            assert ("input error: spectrum needs a Hurst curve on >= 5 q points"
                    in capsys.readouterr().err), command
            assert not (tmp_path / command).exists()
        for argv in (["changepoints"],
                     ["forecast", "--breaks", "none", "--method", "fd", "--p", "3",
                      "--hidden", "6"]):
            out = tmp_path / argv[0]
            assert main([argv[0], str(price_csv), *argv[1:], "--config", str(cfg),
                         "--out", str(out)]) == 0, argv
            assert (out / "manifest.json").exists()

    def test_failed_write_inside_out_exits_2(self, price_csv, tmp_path, capsys):
        # a write that fails after --out exists names its file, prints no
        # summary, and no manifest claims the run complete; each subcommand
        # is blocked at the first file it writes, mfdfa also at a later one
        cases = (
            (["analyze", str(price_csv)], "report.json"),
            (["changepoints", str(price_csv)], "changepoints.json"),
            (["mfdfa", str(price_csv)], "report.json"),
            (["mfdfa", str(price_csv)], "hurst.csv"),
            (["surrogate", str(price_csv), "--n", "10"], "surrogate.json"),
            (["forecast", str(price_csv), "--breaks", "none", "--method", "fd",
              "--p", "2", "--hidden", "2"], "report.json"),
            (["synth", "step", "--n", "100"], "series.csv"),
        )
        for i, (argv, blocked) in enumerate(cases):
            out = tmp_path / f"o{i}"
            (out / blocked).mkdir(parents=True)
            assert main([*argv, "--out", str(out)]) == 2, argv
            captured = capsys.readouterr()
            assert f"input error: cannot write {out / blocked}" in captured.err, argv
            assert captured.out == "", argv
            assert not (out / "manifest.json").exists(), argv

    def test_failed_runs_leave_no_out_directory(self, price_csv, tmp_path):
        # handlers compute everything before the one writer runs, so a run
        # that exits 2 or 3 creates no --out directory
        flat = write_price_csv(tmp_path / "flat.csv", np.full(600, 50.0))
        cases = (
            (["forecast", str(price_csv), "--breaks", "manual:900"], 2),
            (["synth", "step", "--n", "100", "--break-at", "0"], 2),
            (["analyze", str(price_csv), "--config", str(tmp_path / "no.json")], 2),
            # an infinite penalty is rejected, not run to a null total cost
            (["changepoints", str(price_csv), "--penalty", "inf"], 2),
            (["changepoints", str(price_csv), "--penalty", "inf", "--max-breaks", "2"], 2),
            (["mfdfa", str(flat), "--transform", "values"], 3),  # zero window variance
            # there is one change-point search, so no flag selects another
            (["changepoints", str(price_csv), "--cp-method", "binary-segmentation"], 2),
        )
        for argv, expected in cases:
            out = tmp_path / "o"
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # a usage error
                code = exc.code
            assert code == expected, argv
            assert not out.exists(), argv


# ------------------------------------------------------------------- synth


class TestSynth:
    def test_cascade_defaults(self, tmp_path):
        # [TRIVIAL] default depth 14 gives 2^14 = 16384 cells of a measure
        # that sums to 1 by construction.
        out = tmp_path / "o"
        assert main(["synth", "cascade", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "series.csv")
        assert len(rows) == 16384
        assert rows[0]["date"] == "2000-01-01"
        total = sum(float(r["price"]) for r in rows)
        assert abs(total - 1.0) <= 1e-9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["series.csv"]
        assert {p.name for p in out.iterdir()} == {"series.csv", "manifest.json"}
        assert manifest["format"] == "csv"  # synth always writes CSV
        assert manifest["config"]["levels"] == 14

    def test_deterministic(self, tmp_path):
        # [TRIVIAL] same seed, same bytes.
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "fgn", "--n", "256", "--seed", "9",
                         "--out", str(out)]) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_step_writes_shifted_tail(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "step", "--n", "200", "--break-at", "120",
                     "--shift", "50", "--sigma", "0.1", "--out", str(out)]) == 0
        vals = np.array([float(r["price"]) for r in read_csv_rows(out / "series.csv")])
        assert vals.size == 200
        assert vals[120:].mean() - vals[:120].mean() > 40


# ----------------------------------------------------------------- analyze


class TestAnalyze:
    def test_happy_path_outputs(self, price_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["analyze", str(price_csv), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["series"] == "prices"
        assert report["n"] == 600
        assert report["structured"]["segments"]
        for name in ("spectra.csv", "surfaces.csv", "hurst.csv",
                     "changepoints.csv", "segments.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        produced = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == produced
        stdout = capsys.readouterr().out
        assert "series prices" in stdout
        assert "segment" in stdout

    def test_json_format_suppresses_csv(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["analyze", str(price_csv), "--format", "json",
                     "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"report.json", "manifest.json"}

    def test_reruns_are_byte_identical(self, price_csv, tmp_path):
        # [TRIVIAL] everything downstream of (input, flags, seed) is
        # deterministic, so two runs agree file-for-file, byte-for-byte.
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["analyze", str(price_csv), "--surrogates", "10",
                         "--seed", "7", "--out", str(out)]) == 0
        assert tree_digest(a) == tree_digest(b)
        assert "surrogate.csv" in tree_digest(a)

    def test_spectra_csv_parses(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["analyze", str(price_csv), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "spectra.csv")
        assert rows, "expected at least one analyzed segment"
        assert set(rows[0]) == {"segment", "q", "tau", "alpha", "f_alpha"}
        float(rows[0]["tau"])  # numeric cells

    def test_flat_regime_is_flagged_not_fatal(self, tmp_path, capsys):
        # 600 noisy returns, 600 zero returns, 600 noisy returns: the flat
        # regime's fluctuations are exactly 0, so MF-DFA (zero window
        # variance) and GPH (vanishing periodogram) both fail numerically
        # there. The run must still succeed and report the noisy regimes.
        rng = np.random.default_rng(1)
        r = np.concatenate([rng.normal(0.0, 0.01, 600), np.zeros(600),
                            rng.normal(0.0, 0.01, 600)])
        path = write_price_csv(tmp_path / "flat.csv",
                               100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)])))
        out = tmp_path / "o"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        segments = json.loads((out / "report.json").read_text())["segments"]
        flat = [s for s in segments if s["start"] >= 600 and s["stop"] <= 1200]
        assert len(flat) == 1
        assert flat[0]["skipped_reason"].startswith("numerical: window variance is exactly 0")
        assert "numerical: gph:" in flat[0]["skipped_reason"]
        assert flat[0]["delta_alpha"] is None
        assert flat[0]["d_hat"] is None and flat[0]["d_stderr"] is None
        for s in (segments[0], segments[-1]):
            assert s["skipped_reason"] is None
            assert s["delta_alpha"] is not None and s["d_hat"] is not None
        flagged = [row["label"] for row in read_csv_rows(out / "segments.csv")
                   if row["skipped_reason"]]
        assert flagged == [flat[0]["label"]]
        assert "numerical failure" not in capsys.readouterr().err

    def test_flat_regime_skips_the_surrogate_test_not_the_run(self, tmp_path, capsys):
        # The whole-series surrogate test runs MF-DFA over the flat regime
        # too and fails there numerically. That once aborted the run with
        # exit 3; now report.json names the failure, surrogate.csv is not
        # written, and every other output is the same as without the test.
        # Too few surrogates is still an input error, and the surrogate
        # command, whose whole run is the test, still fails.
        rng = np.random.default_rng(0)
        r = np.concatenate([rng.normal(0.0, 0.01, 600), np.zeros(600),
                            rng.normal(0.0, 0.01, 600)])
        path = write_price_csv(tmp_path / "flat.csv",
                               100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)])))
        plain, tested = tmp_path / "plain", tmp_path / "tested"
        assert main(["analyze", str(path), "--out", str(plain)]) == 0
        plain_out = capsys.readouterr().out
        assert main(["analyze", str(path), "--surrogates", "10", "--out", str(tested)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        entry = json.loads((tested / "report.json").read_text())["surrogate"]
        reason = "numerical: window variance is exactly 0 at (s=23, gamma=112)"
        assert entry["kind"] == "shuffle" and entry["n"] == 10
        assert entry["skipped_reason"].startswith(reason)
        assert set(entry) == {"kind", "n", "skipped_reason"}
        assert out.startswith(plain_out)
        assert out[len(plain_out):] == (
            f"surrogate(shuffle, n=10): skipped, {entry['skipped_reason']}\n")
        plain_files, tested_files = tree_digest(plain), tree_digest(tested)
        assert "surrogate.csv" not in tested_files
        for name in ("report.json", "manifest.json"):
            del plain_files[name], tested_files[name]
        assert tested_files == plain_files
        assert main(["analyze", str(path), "--surrogates", "5", "--out",
                     str(tmp_path / "few")]) == 2
        assert main(["surrogate", str(path), "--n", "10", "--out", str(tmp_path / "s")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "input error: need at least 10 surrogates for a quantile, got 5",
            "numerical failure: " + entry["skipped_reason"].removeprefix("numerical: "),
        ]

    def test_flagged_regime_reports_no_hurst(self, tmp_path, capsys):
        # With this draw the detected flat regime (599..1200) starts with
        # one noisy fluctuation: its MF-DFA is flagged numerical, and a
        # q = 2-only DFA pass would still return a number (0.070), GPH one
        # of 3e-31. A flagged regime reports neither Hurst exponent nor
        # d_hat; the noisy regimes still do.
        rng = np.random.default_rng(0)
        r = np.concatenate([rng.normal(0.0, 0.01, 600), np.zeros(600),
                            rng.normal(0.0, 0.01, 600)])
        path = write_price_csv(tmp_path / "flat.csv",
                               100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)])))
        out = tmp_path / "o"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        segments = json.loads((out / "report.json").read_text())["segments"]
        rows = read_csv_rows(out / "segments.csv")
        assert [(s["start"], s["stop"]) for s in segments] == [(0, 599), (599, 1200),
                                                              (1200, 1800)]
        assert segments[1]["skipped_reason"].startswith("numerical:")
        assert segments[1]["hurst_dfa"] is None and rows[1]["hurst_dfa"] == ""
        assert segments[1]["d_hat"] is None and segments[1]["d_stderr"] is None
        assert rows[1]["d_hat"] == ""
        table = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [segments[1]["label"], "599", "1200", "-", "-", "-"] in table
        assert all(segments[i]["d_hat"] is not None for i in (0, 2))
        # [DERIVED] a regime's Hurst exponent is its q = 2 DFA slope
        flucts = to_fluctuations(load_csv(path))
        for i in (0, 2):
            seg = flucts[segments[i]["start"]:segments[i]["stop"]]
            assert segments[i]["hurst_dfa"] == hurst_dfa(seg)
            assert float(rows[i]["hurst_dfa"]) == hurst_dfa(seg)


# ----------------------------------------------------------------- outputs

# per subcommand: arguments after the input path, the JSON documents every
# run writes, and the CSV tables a --format csv run adds
SUBCOMMAND_OUTPUTS = {
    "analyze": (["--surrogates", "10"], {"report.json"},
                {"surfaces.csv", "hurst.csv", "spectra.csv", "changepoints.csv",
                 "segments.csv", "surrogate.csv"}),
    "changepoints": ([], {"changepoints.json"}, {"changepoints.csv"}),
    "mfdfa": ([], {"report.json"}, {"surface.csv", "hurst.csv", "spectrum.csv"}),
    "surrogate": (["--n", "10"], {"surrogate.json"}, {"surrogate.csv"}),
    "forecast": (["--breaks", "none", "--p", "2", "--hidden", "3"], {"report.json"},
                 {"forecast.csv", "fitted.csv"}),
}


class TestOutputs:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OUTPUTS))
    def test_manifest_lists_exactly_the_files_written(self, command, fmt, price_csv, tmp_path):
        # synth, which has no --format, is checked in TestSynth
        extra, docs, tables = SUBCOMMAND_OUTPUTS[command]
        out = tmp_path / "o"
        assert main([command, str(price_csv), *extra, "--format", fmt, "--out", str(out)]) == 0
        expected = docs | tables if fmt == "csv" else docs
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(expected)
        assert manifest["format"] == fmt
        assert {p.name for p in out.iterdir()} == expected | {"manifest.json"}

    def test_regime_hurst_and_spectrum_match_mfdfa(self, price_csv, tmp_path):
        # with no break the one regime is the whole fluctuation series, and
        # analyze reports its hurst and spectrum in mfdfa's shape plus a
        # segment key
        assert main(["analyze", str(price_csv), "--penalty", "1e15", "--format", "json",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["mfdfa", str(price_csv), "--format", "json",
                     "--out", str(tmp_path / "m")]) == 0
        analyzed = json.loads((tmp_path / "a" / "report.json").read_text())
        whole = json.loads((tmp_path / "m" / "report.json").read_text())
        (seg,) = analyzed["structured"]["segments"]
        for key in ("hurst", "spectrum"):
            assert seg[key].pop("segment") == seg["label"]
            assert seg[key] == whole[key]

    def test_forecast_json_rows_equal_csv_rows(self, price_csv, tmp_path):
        # the short first segment gives skipped rows (null/empty cells)
        out = tmp_path / "o"
        assert main(["forecast", str(price_csv), "--breaks", "manual:12,300", "--p", "2",
                     "--hidden", "3", "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert any(r["skipped_reason"] for r in rows)
        as_cells = [{k: "" if v is None else str(v) for k, v in r.items()} for r in rows]
        assert as_cells == read_csv_rows(out / "forecast.csv")


# -------------------------------------------------------------- subcommands


class TestChangepoints:
    def test_finds_planted_step(self, tmp_path):
        # [DERIVED] a 3-sigma mean step at offset 200 is essentially always
        # recovered within a few samples by the exact search.
        synth = tmp_path / "synth"
        assert main(["synth", "step", "--n", "400", "--break-at", "200",
                     "--seed", "5", "--offset", "100", "--out", str(synth)]) == 0
        out = tmp_path / "o"
        assert main(["changepoints", str(synth / "series.csv"),
                     "--transform", "values", "--min-segment", "20",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "changepoints.json").read_text())
        assert len(doc["break_offsets"]) >= 1
        assert any(abs(b - 200) <= 5 for b in doc["break_offsets"])
        rows = read_csv_rows(out / "changepoints.csv")
        assert set(rows[0]) == {"break_number", "first_index_of_new_regime",
                                "offset", "timestamp"}

    def test_fluctuation_breaks_agree_across_subcommands(self, tmp_path):
        # [DERIVED] fluctuation i is the return realized at observation
        # i + 1: analyze and changepoints (default --transform returns) date
        # the same breaks alike, and forecast --breaks auto starts each new
        # regime at value offset f + 1 for fluctuation offset f
        rng = np.random.default_rng(3)
        returns = np.concatenate([rng.normal(0.0, 0.005, 300), rng.normal(0.0, 0.04, 300)])
        path = write_price_csv(tmp_path / "vol.csv", 100.0 * np.exp(np.cumsum(returns)))
        cp_flags = ["--min-segment", "50"]
        outs = {cmd: tmp_path / cmd for cmd in ("analyze", "changepoints", "forecast")}
        assert main(["analyze", str(path), *cp_flags, "--out", str(outs["analyze"])]) == 0
        assert main(["changepoints", str(path), *cp_flags,
                     "--out", str(outs["changepoints"])]) == 0
        assert main(["forecast", str(path), *cp_flags, "--breaks", "auto", "--method", "fd",
                     "--p", "2", "--hidden", "2", "--out", str(outs["forecast"])]) == 0
        csv_bytes = (outs["changepoints"] / "changepoints.csv").read_bytes()
        assert (outs["analyze"] / "changepoints.csv").read_bytes() == csv_bytes
        offsets = json.loads((outs["changepoints"] / "changepoints.json").read_text())[
            "break_offsets"]
        assert offsets  # the planted volatility step is found
        forecast = json.loads((outs["forecast"] / "report.json").read_text())
        assert forecast["config"]["breaks"] == [f + 1 for f in offsets]
        # each break is dated by the observation that realizes its return
        dates = [row["date"] for row in read_csv_rows(path)]
        rows = read_csv_rows(outs["changepoints"] / "changepoints.csv")
        assert [row["timestamp"] for row in rows] == [dates[f + 1] for f in offsets]

    def test_config_file_overrides_defaults(self, tmp_path, price_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_segment": 64}))
        out = tmp_path / "o"
        assert main(["changepoints", str(price_csv), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["min_segment"] == 64

    @pytest.mark.parametrize("extra", [[], ["--penalty", "1"]])
    def test_overflowing_values_are_an_input_error(self, extra, tmp_path, capsys):
        # prices near 1e160 and 2e160 square past the largest float: once an
        # error about a penalty never given, or a null total cost with exit 0
        path = write_price_csv(tmp_path / "huge.csv", np.where(np.arange(200) % 2, 2e160, 1e160))
        out = tmp_path / "o"
        assert main(["changepoints", str(path), "--transform", "values", *extra,
                     "--out", str(out)]) == 2
        assert "input error: values as large as 2e+160 overflow" in capsys.readouterr().err
        assert not out.exists()


class TestMfdfaCommand:
    def test_cascade_is_strongly_multifractal(self, cascade_csv, tmp_path):
        # [DERIVED] the 0.75/0.25 cascade has analytic spectrum width
        # log2(3) ~ 1.585; the estimate on 1024 cells lands well above 1.
        out = tmp_path / "o"
        assert main(["mfdfa", str(cascade_csv), "--transform", "values",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["transform"] == "values"
        assert report["spectrum"]["delta_alpha"] > 1.0
        assert (out / "spectrum.csv").exists()
        assert (out / "surface.csv").exists()
        assert (out / "hurst.csv").exists()


class TestSurrogateCommand:
    def test_shuffle_attribution_on_cascade(self, cascade_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["surrogate", str(cascade_csv), "--transform", "values",
                     "--kind", "shuffle", "--n", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "surrogate.json").read_text())
        assert doc["kind"] == "shuffle"
        assert doc["quantile"] >= 0.9
        assert len(read_csv_rows(out / "surrogate.csv")) == 10
        assert "quantile" in capsys.readouterr().out


class TestForecastCommand:
    @pytest.fixture()
    def arfima_csv(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "arfima", "--d", "0.3", "--n", "700",
                     "--offset", "100", "--seed", "2", "--out", str(out)]) == 0
        return out / "series.csv"

    def test_manual_breaks_both_methods(self, arfima_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["forecast", str(arfima_csv), "--breaks", "manual:350",
                     "--p", "3", "--hidden", "6", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["aggregate"]) == {"FD-NAR", "LFD-NAR"}
        assert report["config"]["breaks"] == [350]
        rows = read_csv_rows(out / "forecast.csv")
        assert len(rows) == 4  # 2 methods x 2 segments
        assert {r["method"] for r in rows} == {"FD-NAR", "LFD-NAR"}
        fitted = read_csv_rows(out / "fitted.csv")
        assert set(fitted[0]) == {"segment", "method", "seed", "index",
                                  "actual", "fitted"}
        assert len(fitted) == sum(int(r["n_eval"]) for r in rows)
        assert "mean MAPE" in capsys.readouterr().out

    def test_breaks_none_single_segment(self, arfima_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["forecast", str(arfima_csv), "--breaks", "none",
                     "--method", "fd", "--p", "3", "--hidden", "6",
                     "--out", str(out)]) == 0
        rows = read_csv_rows(out / "forecast.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "FD-NAR"
        assert rows[0]["segment"].endswith("::seg1")

    def test_flat_regime_local_estimate_is_flagged_not_fatal(self, tmp_path, capsys):
        # 600 noisy returns, 600 zero returns, 600 noisy returns: the prices
        # of the middle regime are constant, so its GPH periodogram vanishes.
        # That once aborted the run with exit 3; the LFD row is flagged
        # instead and the noisy regimes are still scored.
        rng = np.random.default_rng(0)
        r = np.concatenate([rng.normal(0.0, 0.01, 600), np.zeros(600),
                            rng.normal(0.0, 0.01, 600)])
        path = write_price_csv(tmp_path / "flat.csv",
                               100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)])))
        out = tmp_path / "o"
        assert main(["forecast", str(path), "--breaks", "manual:600,1200", "--method", "lfd",
                     "--p", "2", "--hidden", "2", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "forecast.csv")
        assert [(r["start"], r["stop"]) for r in rows] == [("0", "600"), ("600", "1200"),
                                                           ("1200", "1801")]
        assert rows[1]["skipped_reason"] == (
            "local estimate failed: numerical: periodogram vanished at frequency index 1")
        assert rows[1]["mape"] == "" and rows[1]["n_eval"] == "0"
        for row in (rows[0], rows[2]):
            assert row["skipped_reason"] == "" and float(row["mape"]) > 0
        assert "numerical failure" not in capsys.readouterr().err


# ---------------------------------------------------------------- process


class TestProcessEntryPoint:
    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smfdfa.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("smfdfa ")
