import json

import pytest

from ffrd.cli import parse_grid, parse_lambda_grid, parse_source, run


class TestParsers:
    def test_iid_source(self):
        spec = parse_source("iid:0.3")
        assert spec.kind == "iid"
        assert spec.marginal[1] == pytest.approx(0.3)

    def test_markov_source(self):
        spec = parse_source("markov:0.3,0.2")
        assert spec.kind == "markov"
        assert spec.initial[0] == pytest.approx(0.4)

    def test_bad_source(self):
        from ffrd.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_source("gauss:1.0")

    def test_lambda_grid_log(self):
        grid = parse_lambda_grid("log:0.25,32,8")
        assert grid.size == 8
        assert grid[0] == pytest.approx(0.25)
        assert grid[-1] == pytest.approx(32.0)

    def test_lambda_grid_list(self):
        grid = parse_lambda_grid("1,2,4")
        assert list(grid) == [1.0, 2.0, 4.0]

    def test_d_grid(self):
        grid = parse_grid("0:0.15:0.05")
        assert grid.size == 4
        assert grid[-1] == pytest.approx(0.15)


class TestSolveCommand:
    def test_reference_point(self, capsys):
        code = run(["solve", "--source", "iid:0.5", "--dist", "hamming",
                    "--n", "3", "--lambda", "6", "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "D=0.2 " in out
        assert "R=0.278071905" in out

    def test_missing_required_flag(self, capsys):
        assert run(["solve", "--source", "iid:0.5"]) == 1

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_named(self, lam, capsys):
        # it used to take a step and fail on NaN channel rows
        assert run(["solve", "--source", "iid:0.3", "--n", "2", "--lambda", lam]) == 1
        assert "lam must be finite and >= 0" in capsys.readouterr().err

    def test_strict_nonconvergence(self, tmp_path):
        code = run(["solve", "--source", "markov:0.3,0.2", "--n", "3",
                    "--lambda", "9.216", "--max-iters", "2", "--strict",
                    "--output", str(tmp_path / "pt.txt")])
        assert code == 2

    def test_trace_and_certificate_emission(self, tmp_path):
        trace = tmp_path / "trace.csv"
        cert = tmp_path / "cert.json"
        code = run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--trace", str(trace),
                    "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")])
        assert code == 0
        header, *rows = trace.read_text().splitlines()
        assert header == "k,F,K_value,D,lower_bound,upper_bound"
        summary = dict(field.split("=") for field in (tmp_path / "pt.txt").read_text().split())
        assert len(rows) == int(summary["iterations"])
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(1, len(rows) + 1)]
        last = rows[-1].split(",")
        assert (last[4], last[5]) == (summary["lower_bound"], summary["upper_bound"])
        payload = json.loads(cert.read_text())
        assert set(payload) >= {"lam", "gamma", "p_prime_factors", "D", "R"}


class TestSweepCommand:
    def test_csv_schema_and_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["sweep", "--source", "markov:0.3,0.2", "--n", "3",
                    "--lambda-grid", "log:0.25,32,24", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,D,R,iterations,F_final,lower_bound,upper_bound,converged"
        rows = [line.split(",") for line in lines[1:]]
        Ds = [float(r[1]) for r in rows]
        Rs = [float(r[2]) for r in rows]
        # interpolate R at the reference distortion
        import numpy as np
        R = float(np.interp(0.10627, Ds, Rs))
        assert R == pytest.approx(0.35884, abs=2e-3)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--source", "iid:0.5", "--n", "2",
                "--lambda-grid", "1,2,4"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDualCheckCommand:
    def test_round_trip(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        code = run(["dual-check", "--certificate", str(cert),
                    "--source", "markov:0.3,0.2", "--dist", "hamming"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible=1" in out
        assert "dual_objective=" in out


class TestSimulateCommand:
    def test_report_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["simulate", "--source", "iid:0.5", "--n", "2", "--L", "8",
                    "--delta", "0.15", "--trials", "20", "--seed", "5",
                    "--target-D", "0.25", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["trials"] == 20
        assert 0.0 <= rep["mean_distortion"] <= 1.0


class TestAnalyticCommand:
    def test_stock_threshold(self, tmp_path):
        out = tmp_path / "stock.csv"
        code = run(["analytic", "--curve", "stock", "--D-grid", "0:0.15:0.005",
                    "--output", str(out)])
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["0.12"]) == 0.0
        assert float(rows["0"]) == pytest.approx(0.433157, abs=1e-6)


class TestConfigFile:
    def test_flags_fill_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "iid:0.5", "n": 3, "lambda": 6.0}))
        code = run(["solve", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "R=0.278071905" in out

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "iid:0.5", "n": 3, "lambda": 0.0}))
        code = run(["solve", "--config", str(cfg), "--lambda", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "R=0.278071905" in out

    def test_flag_at_its_default_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delay": 2}))
        base = ["solve", "--source", "markov:0.3,0.2", "--n", "3", "--lambda", "4",
                "--config", str(cfg)]
        assert run(base + ["--delay", "1"]) == 0
        assert "R=0.0420731931 " in capsys.readouterr().out
        assert run(base) == 0
        assert "R=0.13419721 " in capsys.readouterr().out

    def test_max_iters_from_file_must_be_whole(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        base = ["solve", "--source", "markov:0.3,0.2", "--n", "2", "--lambda", "4",
                "--config", str(cfg)]
        cfg.write_text(json.dumps({"max-iters": 64.5}))
        assert run(base) == 1
        assert "max_iters must be a whole number" in capsys.readouterr().err
        cfg.write_text(json.dumps({"max-iters": 3.0, "eps": 1e-14}))
        assert run(base) == 0
        assert "iterations=3 converged=0" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sauce": "iid:0.5"}))
        assert run(["solve", "--config", str(cfg)]) == 1
