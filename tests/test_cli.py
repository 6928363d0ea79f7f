import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffrd
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

    def test_infinite_tolerance_named(self, capsys):
        # it exited 0 with converged=1 and a 0.234-bit gap
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "3", "--lambda", "4",
                    "--eps", "inf"]) == 1
        assert "epsilon must be finite and > 0" in capsys.readouterr().err

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
        assert set(payload) >= {"lam", "gamma", "p_prime", "D", "R"}


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

    def test_empty_grid_refused(self, tmp_path, capsys):
        # a zero count wrote the CSV header alone and exited 0
        out = tmp_path / "curve.csv"
        assert run(["sweep", "--source", "iid:0.5", "--n", "2",
                    "--lambda-grid", "log:1,2,0", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: lambda_grid must hold at least one weight" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    def test_nan_p_prime_refused(self, tmp_path, capsys):
        # a NaN p' entry was reported feasible=1 with max_violation=0
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        payload = json.loads(cert.read_text())
        payload["p_prime"][1] = [[[[float("nan")] * 2] * 2] * 2] * 2
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["dual-check", "--certificate", str(cert),
                    "--source", "markov:0.3,0.2", "--dist", "hamming"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: p': kernel factor 2 has non-finite entries" in captured.err
        assert "feasible=" not in captured.out

    def test_missing_key_named(self, tmp_path, capsys):
        # from_json raised a bare KeyError (a TypeError on a list), and the
        # command a traceback
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        payload = json.loads(cert.read_text())
        del payload["gamma"]
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["dual-check", "--certificate", str(cert), "--source", "markov:0.3,0.2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: certificate JSON has no key 'gamma'" in err
        assert "Traceback" not in err
        cert.write_text(json.dumps([payload]))
        assert run(["dual-check", "--certificate", str(cert), "--source", "markov:0.3,0.2"]) == 1
        assert "error: certificate JSON must be an object" in capsys.readouterr().err

    def test_factor_count_named(self, tmp_path, capsys):
        # one factor short died with an IndexError traceback
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        payload = json.loads(cert.read_text())
        payload["p_prime"].pop()
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["dual-check", "--certificate", str(cert), "--source", "markov:0.3,0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: p': kernel needs n=2 factors, got 1" in captured.err
        assert "Traceback" not in captured.err
        assert "feasible=" not in captured.out

    def test_old_factor_key_refused(self, tmp_path, capsys):
        # factors under "p_prime_factors" have the (x^i, x̂^i) axis order,
        # which the shapes cannot tell from the kernel's at |X| = |X̂|
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        payload = json.loads(cert.read_text())
        payload["p_prime_factors"] = payload.pop("p_prime")
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["dual-check", "--certificate", str(cert), "--source", "markov:0.3,0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: certificate JSON has no key 'p_prime'" in captured.err
        assert "feasible=" not in captured.out

    @pytest.mark.parametrize("key, value", [("lam", None), ("n", [2]), ("n", 2.7),
                                            ("p_prime", 5), ("D", None)])
    def test_wrongly_typed_key_named(self, key, value, tmp_path, capsys):
        # each raised a TypeError out of run(), but n = 2.7, which was read as 2
        cert = tmp_path / "cert.json"
        assert run(["solve", "--source", "markov:0.3,0.2", "--n", "2",
                    "--lambda", "4", "--emit-certificate", str(cert),
                    "--output", str(tmp_path / "pt.txt")]) == 0
        payload = json.loads(cert.read_text())
        payload[key] = value
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["dual-check", "--certificate", str(cert), "--source", "markov:0.3,0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: certificate JSON key {key!r} holds a value of the wrong type" \
            in captured.err
        assert "Traceback" not in captured.err
        assert "feasible=" not in captured.out


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

    def test_codebook_over_the_cap_is_an_error_line(self, capsys):
        # the cap's MemoryError used to escape as a traceback
        code = run(["simulate", "--source", "iid:0.5", "--n", "2", "--L", "18",
                    "--delta", "1.5", "--trials", "10", "--target-D", "0.25"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: decision array of ")
        assert "exceeds the cap" in captured.err
        assert captured.out == ""

    def test_solver_flags_rejected(self, tmp_path, capsys):
        # monte_carlo solves at delay 1 with its own tolerance: a solver
        # setting on the command line or in a config file is an error, not
        # a silently ignored value
        base = ["simulate", "--source", "markov:0.3,0.2", "--dist", "stock", "--n", "2",
                "--L", "4", "--trials", "50", "--target-D", "0.2"]
        for extra in (["--delay", "2"], ["--eps", "0.5"], ["--max-iters", "1"], ["--strict"]):
            assert run(base + extra) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delay": 2}))
        assert run(base + ["--config", str(cfg)]) == 1
        assert "unknown config key 'delay'" in capsys.readouterr().err


class TestAnalyticCommand:
    def test_stock_threshold(self, tmp_path):
        out = tmp_path / "stock.csv"
        code = run(["analytic", "--curve", "stock", "--D-grid", "0:0.15:0.005",
                    "--output", str(out)])
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["0.12"]) == 0.0
        assert float(rows["0"]) == pytest.approx(0.433157, abs=1e-6)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_bad_block_length_rejected(self, n, capsys):
        assert run(["analytic", "--curve", "markov", "--n", n]) == 1
        assert "error: block length must be a whole number" in capsys.readouterr().err

    def test_zero_step_grid_named(self, capsys):
        # the grid's count divided by the step: a ZeroDivisionError traceback
        assert run(["analytic", "--curve", "iid", "--D-grid", "0:0.5:0"]) == 1
        err = capsys.readouterr().err
        assert "error: bad grid '0:0.5:0'" in err
        assert "Traceback" not in err

    def test_step_away_from_stop_refused(self, capsys):
        # a negative count made an empty grid: the D,R header alone, exit 0
        assert run(["analytic", "--curve", "iid", "--D-grid", "0:0.5:-0.1"]) == 1
        captured = capsys.readouterr()
        assert "error: bad grid '0:0.5:-0.1'" in captured.err
        assert "Traceback" not in captured.err
        assert "D,R" not in captured.out

    @pytest.mark.parametrize("argv, message", [
        (["--curve", "iid", "--bias", "1.5"], "bias must lie in [0, 1]"),
        (["--curve", "stock", "--q", "1.3"], "q must lie in [0, 1]"),
        (["--curve", "markov", "--p", "0", "--q", "0"], "p + q must be > 0"),
    ])
    def test_parameter_outside_domain_named(self, argv, message, capsys):
        # a bias of 1.5 printed a curve of zeros, and p = q = 0 a traceback
        assert run(["analytic", *argv]) == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "D,R" not in captured.out

    def test_stock_without_active_state_is_zero(self, tmp_path):
        # pi0 = 1 ended in a ZeroDivisionError traceback
        out = tmp_path / "stock.csv"
        assert run(["analytic", "--curve", "stock", "--pi0", "1", "--D-grid", "0:0.1:0.05",
                    "--output", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "D,R" and len(rows) == 4
        assert all(float(line.split(",")[1]) == 0.0 for line in rows[1:])

    def test_module_entry_point_runs_the_command(self):
        # python -m ffrd.cli runs the command, exit code and message included
        src = str(Path(ffrd.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "ffrd.cli", "analytic", "--curve", "markov",
                               "--n", "0"], capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 1
        assert "error: block length" in done.stderr

    def test_strict_rejected(self, tmp_path, capsys):
        # a closed form has nothing to converge, so there is no --strict
        assert run(["analytic", "--curve", "stock", "--strict"]) == 1
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"strict": True}))
        assert run(["analytic", "--curve", "stock", "--config", str(cfg)]) == 1
        assert "unknown config key 'strict'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("key, value", [("n", [2]), ("n", 2.5), ("lambda", [3]),
                                            ("source", 5), ("eps", None)])
    def test_wrongly_typed_value_rejected(self, key, value, tmp_path, capsys):
        # each ended in a TypeError or AttributeError traceback
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "iid:0.5", "n": 3, "lambda": 6.0, key: value}))
        assert run(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: config key {key!r}: " in err
        assert "Traceback" not in err

    def test_strings_and_whole_floats_accepted(self, tmp_path, capsys):
        # a string goes through the flag's parser; "n": 3.0 was a TypeError
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "iid:0.5", "n": 3.0, "lambda": "6"}))
        assert run(["solve", "--config", str(cfg)]) == 0
        assert "R=0.278071905" in capsys.readouterr().out

    def test_non_object_rejected(self, tmp_path, capsys):
        # a JSON list had no .items(): an AttributeError traceback
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(["source", "iid:0.5"]))
        assert run(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: config '{cfg}' must be a JSON object" in err
        assert "Traceback" not in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sauce": "iid:0.5"}))
        assert run(["solve", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("args", [["-c", "import ffrd"], ["-m", "ffrd.cli", "--help"]],
                         ids=["import", "cli-help"])
def test_start_loads_no_scipy(args):
    # scipy's import was most of every cold start; the package needs only numpy
    src = str(Path(ffrd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {line.rpartition("|")[2].strip().partition(".")[0]
              for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "numpy" in loaded
    assert "scipy" not in loaded
