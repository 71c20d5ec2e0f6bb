"""End-to-end tests of the command-line interface.

Most tests call main(argv) in-process for speed; one subprocess test
proves the module entry point works. Oracle notes are tagged [TRIVIAL] /
[DERIVED] as in conftest.py.
"""

import csv
import hashlib
import json
import subprocess
import sys
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

    def test_missing_config_file_exits_2(self, price_csv, tmp_path, capsys):
        code = main(["mfdfa", str(price_csv), "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err
        # malformed values and unknown keys are input errors naming their
        # key, not tracebacks or silently ignored settings (there is one
        # change-point cost, so "statistic" is not a key)
        for key, value in (("q_grid", ["a", 1]), ("min_segment", "x"), ("penalty", "high"),
                           ("qgrid", [1, 2, 3]), ("statistic", "mean-only")):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            code = main(["analyze", str(price_csv), "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config key {key!r}" in capsys.readouterr().err

    def test_analyze_rejects_transform_flag(self, price_csv, tmp_path, capsys):
        # analyze always segments the fluctuation series, so a --transform
        # it would ignore is a usage error (mfdfa and surrogate keep it)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(price_csv), "--transform", "values",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --transform values" in capsys.readouterr().err


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

    def test_config_file_overrides_defaults(self, tmp_path, price_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_segment": 64}))
        out = tmp_path / "o"
        assert main(["changepoints", str(price_csv), "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["min_segment"] == 64


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


# ---------------------------------------------------------------- process


class TestProcessEntryPoint:
    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smfdfa.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("smfdfa ")
