"""The demos run as scripts, with the package on PYTHONPATH."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from ffrd import DistortionSpec, SourceSpec, monte_carlo

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dual_certificate_demo_reconstructs_the_channel():
    out = run_demo("03_dual_certificate.py")
    assert "certificate feasible: True" in out
    err = float(re.search(r"matches the solver's to (\S+)", out).group(1))
    assert err <= 1e-6


def test_code_tree_simulation_demo_prints_the_report():
    printed = json.loads(run_demo("04_code_tree_simulation.py").split("\n\n", 1)[0])
    report = monte_carlo(source_spec=SourceSpec.iid(0.5), distortion_spec=DistortionSpec.hamming(),
                         n=2, L=8, delta=0.15, trials=2000, seed=7, target_D=0.25)
    assert printed == json.loads(report.to_json())
