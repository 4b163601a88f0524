"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench/tests

Each workload runs once recorded (its smoke reference goes to a temporary
directory) and once traced against that reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp, *args):
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
           "--out", str(tmp / "out"), "--refdir", str(tmp / "ref"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, json.loads(last) if last.startswith("{") else None


def _perturb_csv(path, column, change):
    """Replace one cell of the first data row of a reference CSV."""
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _result(tmp, workload, seed, trace):
    path = tmp / "out" / f"result-{workload}-s{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    code, _ = _run(tmp, "--workload", request.param, "--seed", "3",
                   "--record")
    assert code == 0
    code, summary = _run(tmp, "--workload", request.param, "--seed", "3",
                         "--trace", "1")
    return tmp, request.param, code, summary


def test_every_metric_present_with_its_unit(traced_run):
    tmp, name, code, summary = traced_run
    assert code == 0 and summary["correct"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    for m in SPEC["per_layer"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    res = _result(tmp, name, 3, 1)
    for m in SPEC["end_to_end"]:
        assert res["end_to_end"][m["name"]]["unit"] == m["unit"]
        assert res["end_to_end"][m["name"]]["samples"] >= 1
    assert res["end_to_end"]["mismatch_frac"]["value"] == 0
    assert res["end_to_end"]["failed_frac"]["value"] == 0
    assert not res["missing_sites"]


def test_spans_nest_and_self_times_add_up(traced_run):
    tmp, name, _, _ = traced_run
    res = _result(tmp, name, 3, 1)
    assert res["nesting_errors"] == 0
    traced = sum(res["traced_task_s"]) / len(res["traced_task_s"])
    assert res["trace_self_sum_s"] == pytest.approx(traced, rel=1e-9)
    spans = np.load(tmp / "out" / f"{name}-s3" / "spans-trace1.npz")
    cols = {k: spans[k] for k in ("name", "parent", "task", "start", "end",
                                  "count")}
    assert tracing.nesting_errors(cols) == []
    _, own = tracing.self_times(cols)
    assert (own >= -1e-9).all()
    names = json.loads(str(spans["names"]))
    assert "models.rhs" in names


def test_trace_zero_prints_every_end_to_end_metric(tmp_path):
    code, _ = _run(tmp_path, "--workload", "sweep-rk45", "--record")
    assert code == 0
    code, summary = _run(tmp_path, "--workload", "sweep-rk45")
    assert code == 0 and summary["correct"]
    assert set(summary["metrics"]) == {m["name"]
                                       for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary["metrics"][m["name"]]["value"] > 0


def test_gate_rejects_perturbed_reference(tmp_path):
    code, _ = _run(tmp_path, "--workload", "heatmap-reduced", "--record")
    assert code == 0
    ref = tmp_path / "ref" / "heatmap-reduced" / "heatmap" / "heatmap.csv"
    _perturb_csv(ref, 1, lambda v: v + 0.5)
    code, summary = _run(tmp_path, "--workload", "heatmap-reduced")
    assert code != 0 and summary["correct"] is False
    res = _result(tmp_path, "heatmap-reduced", 0, 0)
    assert res["end_to_end"]["mismatch_frac"]["value"] == 1.0


def test_gate_rejects_rk45_drift(tmp_path):
    code, _ = _run(tmp_path, "--workload", "sweep-rk45", "--record")
    assert code == 0
    ref = tmp_path / "ref" / "sweep-rk45" / "sweep" / "sweep.csv"
    _perturb_csv(ref, 2, lambda v: v + 1e-9)
    code, summary = _run(tmp_path, "--workload", "sweep-rk45")
    assert code != 0 and summary["correct"] is False


def test_gate_counts_a_task_that_raises(tmp_path, monkeypatch):
    from kuracomp import cli

    code, _ = _run(tmp_path, "--workload", "sweep-rk45", "--record")
    assert code == 0

    def broken(config, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "run_config", broken)
    result = tmp_path / "result.json"
    worker.main(["--workload", "sweep-rk45", "--seed", "0", "--seconds", "0",
                 "--smoke", "--out", str(tmp_path / "out"),
                 "--refdir", str(tmp_path / "ref" / "sweep-rk45"),
                 "--result", str(result)])
    res = json.loads(result.read_text())
    assert res["mismatches"] and "injected failure" in \
        res["mismatches"][0]["problems"][0]
    assert res["failed"] == res["attempted"] == WORKLOADS["sweep-rk45"].members
    assert res["task_s"] == []
