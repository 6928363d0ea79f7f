"""Fast checks of the benchmark harness on tiny inputs (n <= 3, short
simulations).  Run from the repository root:

    python -m pytest -q benchmarks/test_bench.py
"""

import dataclasses
import json

import pytest

import run  # puts src/ on the path and pins BLAS threads before numpy loads
import ffrd
import workloads

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _execute(name, tmp_path, trace=False, **kwargs):
    workload = kwargs.pop("workload", None) or workloads.BUILDERS[name](tiny=True)
    return run.execute(workload, seed=3, seconds=0, trace=trace, setup_probes=1,
                       out_dir=tmp_path, **kwargs)


def _printed(capsys):
    """{metric: (value, unit)} from the 'name value unit' lines, and the last line."""
    lines = capsys.readouterr().out.splitlines()
    metrics = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            metrics[parts[0]] = (float(parts[1]), parts[2])
    return metrics, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = _execute(name, tmp_path, trace=trace)
    printed, last = _printed(capsys)
    assert last == result
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for count in ("ops", "ops_failed"):
        assert printed[count][1] == "count"
    if not trace:
        assert printed["wall_s"][1] == "s" and printed["wall_s"][0] > 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == printed["ops"][0] >= 1
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_reference_is_counted_as_failed(name, tmp_path, capsys):
    wrong = workloads.References(
        markov_rn=lambda p, q, n, D: ffrd.markov_rn(p, q, n, D) + 1e-3,
        iid_binary_rd=lambda p, D: ffrd.iid_binary_rd(p, D) + 1e-3)
    result = _execute(name, tmp_path, refs=wrong)
    printed, _ = _printed(capsys)
    assert result["failed"] == printed["ops_failed"][0] > 0
    assert not result["correct"]


def test_known_defects_are_reported_but_not_failed(tmp_path, capsys):
    wrong = workloads.References(markov_rn=lambda p, q, n, D: 1.0)
    tiny = workloads.certify_workload(tiny=True)
    failing = _execute("certify", tmp_path, refs=wrong, workload=tiny)
    printed, _ = _printed(capsys)
    record = json.loads((tmp_path / "certify.json").read_text())
    keys = [key for key, op in record["ops"].items() if op["failures"]]
    assert len(keys) == failing["failed"] > 0

    known = dataclasses.replace(tiny, known_defects={key: "listed" for key in keys})
    result = _execute("certify", tmp_path, refs=wrong, workload=known)
    printed, _ = _printed(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == printed["ops"][0] - len(keys)
    assert printed["ops_failed"][0] == printed["known_defects"][0] == len(keys)


def test_rate_moved_since_record_is_a_failure(tmp_path, monkeypatch, capsys):
    _execute("sweep", tmp_path)
    record = json.loads((tmp_path / "sweep.json").read_text())
    key = next(iter(record["ops"]))
    record["ops"][key]["R"] += 2 * record["ops"][key]["rate_tol"]
    records = tmp_path / "records"
    records.mkdir()
    (records / "sweep.json").write_text(json.dumps(record))
    monkeypatch.setattr(run, "RECORDS", records)
    result = _execute("sweep", tmp_path)
    assert result["failed"] == 1
    assert "rate moved" in capsys.readouterr().out
