import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuracomp import basin, cli, doe, models, solver
from kuracomp.presets import get_preset, preset_names


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "kuracomp.cli", *args],
                          capture_output=True, text=True)


def test_presets_shipped_and_valid():
    names = preset_names()
    assert len(names) >= 5
    for name in names:
        config = get_preset(name)
        cli.validate_config(config)     # schema-valid
        cli._build(config)              # and accepted for its own task


def test_case_study_preset_values():
    config = get_preset("simple-cs")
    p = config["params"]
    assert p["gamma1"] == 1.0 and p["gamma2"] == 1.0
    assert p["psi"] == 0.0 and p["beta2"] == 2.0
    assert p["r1"] == 3.0 and p["r2"] == 2.5


def test_presets_command_lists_names():
    proc = _run_cli(["presets"])
    assert proc.returncode == 0
    listed = proc.stdout.split()
    assert set(preset_names()) <= set(listed)


def test_malformed_config_exits_2_without_artifacts(tmp_path):
    # not JSON, not a JSON object, a task that is not one, and a directory
    for text in ("{not json", "[1,2]", '{"model": "simple-reduced", "task": 3}',
                 None):
        bad = tmp_path / "bad.json"
        if text is None:
            bad.unlink()
            bad.mkdir()
        else:
            bad.write_text(text)
        out = tmp_path / "out"
        proc = _run_cli(["simulate", "-c", str(bad), "--out", str(out)])
        assert proc.returncode == 2, text
        assert proc.stderr.startswith("error: "), proc.stderr
        assert not out.exists()


def test_unknown_keys_rejected(tmp_path):
    cfg = {"model": "simple-reduced", "bogus": 1,
           "task": {"type": "simulate"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = _run_cli(["simulate", "-c", str(path)])
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_unknown_param_rejected(tmp_path):
    cfg = {"model": "simple-reduced", "params": {"nosuch": 1.0},
           "task": {"type": "simulate"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = _run_cli(["simulate", "-c", str(path)])
    assert proc.returncode == 2


def test_simulate_preset_and_artifacts(tmp_path):
    out = tmp_path / "run"
    summary = cli.run("simple-cs", overrides=["task.type=simulate",
                                              "beta1=4.0",
                                              "solver.t_end=100"],
                      out_dir=out, seed=3)
    assert summary["winner"] == "blue"
    assert (out / "trajectory.csv").exists()
    assert (out / "resolved_config.json").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["task"] == "simulate" and "config_hash" in meta
    assert meta["artifacts"] == ["metadata.json", "outcome.json",
                                 "resolved_config.json", "trajectory.csv"]
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,P1,P2,Delta1"


def test_basin_task_with_zero_beta1(tmp_path):
    out = tmp_path / "basin"
    summary = cli.run("simple-cs",
                      overrides=["task.type=basin", "beta1=0.0",
                                 "task.grid=[5,5]", "solver.t_end=80",
                                 "solver.method=rk4"],
                      out_dir=out, seed=0)
    assert summary["basin"] == 0.0
    payload = json.loads((out / "basin.json").read_text())
    assert payload["value"] == 0.0


def test_override_parsing():
    config = {"model": "simple-reduced", "task": {"type": "simulate"}}
    cli.apply_overrides(config, ["params.beta1=3.5", "seed=7",
                                 "task.grid=[3,3]"])
    assert config["params"]["beta1"] == 3.5
    assert config["seed"] == 7
    assert config["task"]["grid"] == [3, 3]
    with pytest.raises(cli.ValidationFailure):
        cli.apply_overrides(config, ["no_equals_sign"])


# wrong type; unknown enum value; both at once (best_match picks one)
_INVALID_CONFIGS = [
    {"model": "simple-reduced", "seed": "seven", "task": {"type": "simulate"}},
    {"model": "simple-reduced", "task": {"type": "simulate"},
     "solver": {"method": "euler"}},
    {"model": "nosuch", "seed": "seven", "task": {"type": "simulate"}},
]


def test_config_schema_is_valid():
    import jsonschema

    # validate_config builds its validator without checking the schema
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


@pytest.mark.parametrize("config", _INVALID_CONFIGS)
def test_validation_message_equals_jsonschema_validate(config):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(config, cli.CONFIG_SCHEMA)
    with pytest.raises(cli.ValidationFailure) as got:
        cli.validate_config(config)
    assert str(got.value) == f"config invalid: {want.value.message}"


_NO_SCIPY_UNTIL_DOE = """
import sys, tempfile
from kuracomp import cli

out = tempfile.mkdtemp()
cli.run("simple-cs", overrides=["task.type=simulate", "solver.t_end=5"],
        out_dir=out + "/sim", seed=0)
cli.run("simple-cs", overrides=["task.type=sweep", "task.param=beta1",
                                "task.range=[1.8,3.0]", "task.n_points=3",
                                "solver.t_end=5"], out_dir=out + "/sweep", seed=0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
summary = cli.run(
    "simple-cs",
    overrides=["task.type=doe",
               'task.factors=[{"name":"beta1","lo":1.0,"hi":5.0},'
               '{"name":"phi","lo":-0.5,"hi":0.5}]',
               "task.k_init=3", "task.n_total=4", "task.grid=[2,2]",
               "solver.t_end=5", "solver.dt_init=0.05"],
    out_dir=out + "/doe", seed=1)
assert summary["n_records"] == 4, summary
# the GP fit needs scipy.optimize; the Sobol starts are numpy's own
assert "scipy.optimize" in sys.modules and "scipy.stats" not in sys.modules
"""


def test_scipy_is_loaded_only_by_the_tasks_that_use_it():
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_UNTIL_DOE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_config_hash_stable():
    a = {"model": "simple-reduced", "params": {"beta1": 2.0}}
    b = {"params": {"beta1": 2.0}, "model": "simple-reduced"}
    assert cli.config_hash(a) == cli.config_hash(b)


def test_fixed_points_artifact(tmp_path):
    out = tmp_path / "fps"
    summary = cli.run("eco2-supp", out_dir=out, seed=0)
    assert summary["n_fixed_points"] >= 2
    lines = (out / "fixed_points.csv").read_text().splitlines()
    assert lines[0].startswith("label,P1,P2,Delta1")


def test_sweep_task(tmp_path):
    out = tmp_path / "sweep"
    summary = cli.run("simple-cs",
                      overrides=["task.type=sweep", "task.param=beta1",
                                 "task.range=[1.8,3.0]", "task.n_points=4",
                                 "solver.t_end=60"],
                      out_dir=out, seed=0)
    assert summary["n_rows"] > 0
    assert (out / "sweep.csv").exists()


def test_heatmap_task_with_svg(tmp_path):
    out = tmp_path / "hm"
    summary = cli.run(
        "simple-cs",
        overrides=["task.type=heatmap", "task.x_param=beta1",
                   "task.x_range=[1.5,4.0]", "task.x_points=3",
                   "task.y_param=phi", "task.y_range=[-0.3,0.3]",
                   "task.y_points=3", "task.grid=[5,5]",
                   "solver.t_end=100", "solver.dt_init=0.02"],
        out_dir=out, seed=0, svg=True)
    assert 0.0 <= summary["min"] <= summary["max"] <= 1.0
    assert (out / "heatmap.csv").exists()
    assert (out / "heatmap.svg").exists()
    lines = (out / "heatmap.csv").read_text().splitlines()
    assert lines[0].startswith(",1.5")


def test_doe_and_glm_tasks(tmp_path):
    out = tmp_path / "doe"
    summary = cli.run(
        "simple-cs",
        overrides=["task.type=doe",
                   'task.factors=[{"name":"beta1","lo":1.0,"hi":5.0},'
                   '{"name":"phi","lo":-0.5,"hi":0.5}]',
                   "task.k_init=6", "task.n_total=8", "task.grid=[3,3]",
                   "solver.t_end=60", "solver.dt_init=0.02"],
        out_dir=out, seed=1)
    assert summary["n_records"] == 8
    log = out / "doe_log.csv"
    header = log.read_text().splitlines()[0]
    assert header == "iter,source,beta1,phi,basin,objective"

    out2 = tmp_path / "glm"
    summary2 = cli.run("simple-cs",
                       overrides=["task.type=glm",
                                  f"task.input={log}"],
                       out_dir=out2, seed=1)
    assert (out2 / "glm_coefficients.csv").exists()
    assert (out2 / "permutation_importance.json").exists()


def test_missing_factor_range_rejected(tmp_path):
    with pytest.raises(cli.ValidationFailure):
        cli.run("simple-cs",
                overrides=["task.type=doe",
                           'task.factors=[{"name":"beta1","lo":1.0,"hi":1.0}]',
                           "task.k_init=3", "task.n_total=3"],
                out_dir=tmp_path / "x", seed=0)


def test_doe_without_factors_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["doe", "-c", "simple-cs", "-o", "task.factors=[]",
                     "-o", "task.k_init=2", "-o", "task.n_total=2",
                     "--out", str(out)]) == 2
    assert "should be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_doe_with_a_repeated_factor_exits_2(tmp_path, capsys):
    # the last column would silently win, under a doubled log header
    out = tmp_path / "out"
    assert cli.main(["doe", "-c", "simple-cs", "-o",
                     'task.factors=[{"name":"beta1","lo":1.0,"hi":2.0},'
                     '{"name":"phi","lo":-0.5,"hi":0.5},'
                     '{"name":"beta1","lo":3.0,"hi":4.0}]',
                     "-o", "task.k_init=2", "-o", "task.n_total=2",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factor 'beta1' is named more than once")
    assert not out.exists()


def test_glm_with_a_missing_input_exits_2(tmp_path, capsys):
    log, out = tmp_path / "nosuch.csv", tmp_path / "out"
    assert cli.main(["glm", "-c", "simple-cs", "-o", f"task.input={log}",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: task.input: cannot read ") and str(log) in err
    assert not out.exists()


def test_glm_with_an_empty_log_exits_2(tmp_path, capsys):
    log = tmp_path / "doe_log.csv"
    out = tmp_path / "out"
    header = "iter,source,beta1,mu,basin,objective\n"
    # the header only, no header at all, and a row shorter than the header
    for text, reason in [(header, "holds no scored DOE record"),
                         ("", "line 1: no DOE log header"),
                         (header + "0,initial,1.0,0.5\n",
                          "line 2: 4 cell(s) where the header has 6")]:
        log.write_text(text)
        assert cli.main(["glm", "-c", "simple-cs", "-o", f"task.input={log}",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: task.input: ") and str(log) in err
        assert reason in err
        assert not out.exists()


def test_fig3b_preset_blue_win_trajectory(tmp_path):
    out = tmp_path / "fig3b"
    summary = cli.run("fig3b", overrides=["solver.t_end=60",
                                          "solver.recon_T=20"],
                      out_dir=out, seed=42)
    assert summary["winner"] == "blue"
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,P1,P2,P3,theta_0")


_DOE = ('task.factors=[{"name":"beta1","lo":1.0,"hi":5.0}]')


def _net(pop0=None, pop1=None, **changes):
    """A short paper-2pop simulate on an explicit two-population network
    section, with ``changes`` set (a value of None drops the key)."""
    section = {"populations": [
        pop0 or {"kind": "erdos-renyi", "n": 8, "p": 0.5},
        pop1 or {"kind": "kary-tree", "branching": 2, "layers": 2}],
        "sigma": [1, 1], "interlinks": {"0-1": [[0, 0]]}, "mu": 0.2}
    section.update(changes)
    section = {k: v for k, v in section.items() if v is not None}
    return ["simulate", "-c", "paper-2pop", "-o",
            'task.initial={"P":[0.5,0.5]}', "-o", "solver.t_end=2", "-o",
            f"network={json.dumps(section)}"]


@pytest.mark.parametrize("args", [
    ["fixed-points", "-c", "simple-cs", "-o", "K1=-1"],
    ["fixed-points", "-c", "fig3b"],
    ["basin", "-c", "simple-cs", "-o", "task.phase_policy=ensemble"],
    ["simulate", "-c", "fig3a", "-o", "network.preset=nope"],
    ["simulate", "-c", "fig3a", "-o", "mu=0.3"],
    ["simulate", "-c", "fig3a", "-o", "network.phi=0.3"],
    ["simulate", "-c", "fig3a", "-o", "network.omega=[[0.0]]"],
    ["simulate", "-c", "paper-2pop", "-o", "network.nu=0.1"],
    ["simulate", "-c", "simple-cs", "-o", "network.preset=paper-2pop",
     "-o", "network.mu=0.2"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,2]", "-o", "task.y_param=beta1",
     "-o", "task.y_range=[1,2]"],
    ["doe", "-c", "simple-cs", "-o", _DOE, "-o", "task.k_init=5",
     "-o", "task.n_total=3"],
    ["sweep", "-c", "simple-cs", "-o", "task.range=[1,2]"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,2]", "-o", "task.y_range=[1,2]"],
    ["doe", "-c", "simple-cs", "-o", "task.k_init=2", "-o", "task.n_total=2"],
    ["sweep", "-c", "simple-cs", "-o", "task.param=beta1",
     "-o", "task.range=[1]"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,2,3]", "-o", "task.y_param=phi",
     "-o", "task.y_range=[0,1]"],
    ["doe", "-c", "simple-cs", "-o",
     'task.factors=[{"name":"beta1","lo":5.0,"hi":1.0}]',
     "-o", "task.k_init=2", "-o", "task.n_total=2"],
    ["basin", "-c", "simple-cs", "-o", "task.grid=[2]"],
    ["basin", "-c", "simple-cs", "-o", "task.grid=[2,2,2]"],
    ["basin", "-c", "simple-cs", "-o", 'task.grid=["a","b"]'],
    ["basin", "-c", "simple-cs", "-o", "task.grid=[2.5,3]"],
    ["basin", "-c", "simple-cs", "-o", "task.grid=[0,3]"],
    ["simulate", "-c", "simple-cs", "-o", "task.n_sim=5"],
    ["basin", "-c", "simple-cs", "-o", "task.n_sim=5", "-o", "task.grid=[2,2]",
     "-o", "solver.t_end=5"],
    ["basin", "-c", "simple-cs", "-o", "task.delta_resolution=3",
     "-o", "task.grid=[2,2]", "-o", "solver.t_end=5"],
    ["basin", "-c", "fig3b", "-o", "task.delta_resolution=3",
     "-o", "task.grid=[2,2]", "-o", "solver.t_end=5"],
    # task.initial entries of the wrong length, or ones the run ignores
    ["simulate", "-c", "simple-cs", "-o", 'task.initial={"P":[0.5]}'],
    ["simulate", "-c", "simple-cs", "-o", 'task.initial={"delta":[0.1,0.2]}'],
    ["simulate", "-c", "fig3a", "-o", 'task.initial={"theta":[0.1]}'],
    ["simulate", "-c", "fig3a", "-o", 'task.initial={"P":[5.0,5.0]}'],
    ["simulate", "-c", "fig3a", "-o", "task.n_sim=2",
     "-o", 'task.initial={"P":[5.0,5.0,5.0,5.0]}'],
    ["simulate", "-c", "fig3a", "-o", "task.n_sim=2",
     "-o", 'task.initial={"delta":0.1}'],
    ["simulate", "-c", "simple-cs", "-o", 'task.initial={"theta":[0.1]}'],
    ["simulate", "-c", "paper-2pop", "-o",
     'task.initial={"delta":0.1,"theta":[0.0,0.0]}'],
    ["simulate", "-c", "paper-2pop", "-o", 'task.initial={"Q":[0.5,0.5]}'],
    # swept values meet the same checks as scalar params
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[-3,-1]", "-o", "task.x_points=2",
     "-o", "task.y_param=P_D", "-o", "task.y_range=[-0.5,0.5]",
     "-o", "task.y_points=2", "-o", "task.grid=[2,2]", "-o", "solver.t_end=4"],
    ["doe", "-c", "simple-cs", "-o",
     'task.factors=[{"name":"P_D","lo":0.05,"hi":0.5},'
     '{"name":"r1","lo":-1,"hi":1}]', "-o", "task.k_init=4",
     "-o", "task.n_total=5", "-o", "task.grid=[2,2]", "-o", "solver.t_end=4"],
    ["sweep", "-c", "eco2-supp", "-o", "task.param=beta1",
     "-o", "task.range=[-2,2]", "-o", "task.n_points=3",
     "-o", "solver.t_end=5"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,3]", "-o", "task.y_param=P_D",
     "-o", "task.y_range=[1e-4,0.5]"],
    ["heatmap", "-c", "paper-2pop", "-o", "task.x_param=p_exponent",
     "-o", "task.x_range=[1,2]", "-o", "task.x_points=3",
     "-o", "task.y_param=phi", "-o", "task.y_range=[0,1]"],
    ["doe", "-c", "paper-2pop", "-o",
     'task.factors=[{"name":"p_exponent","lo":1,"hi":2}]',
     "-o", "task.k_init=2", "-o", "task.n_total=2"],
    # task.p3_init where no run reads it, or below zero
    ["basin", "-c", "simple-cs", "-o", "task.p3_init=3",
     "-o", "task.grid=[2,2]", "-o", "solver.t_end=2"],
    ["simulate", "-c", "fig3b", "-o", "task.p3_init=3"],
    ["basin", "-c", "fig3b", "-o", "task.p3_init=-1"],
    # --jobs below one
    ["heatmap", "-c", "simple-cs", "--jobs", "0", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,2]", "-o", "task.y_param=phi",
     "-o", "task.y_range=[0,1]"],
    # non-finite values: a rate, a frequency, a frustration, a coupling, a
    # swept axis and a doe factor end, then the solver section (a NaN
    # dt_init would step forever)
    ["simulate", "-c", "simple-cs", "-o", "r1=NaN", "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "mu=Infinity",
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "phi=-Infinity",
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "gamma1=NaN",
     "-o", "solver.t_end=2"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,Infinity]", "-o", "task.y_param=phi",
     "-o", "task.y_range=[0,1]", "-o", "solver.t_end=2"],
    ["doe", "-c", "simple-cs", "-o",
     'task.factors=[{"name":"beta1","lo":NaN,"hi":2}]', "-o", "task.k_init=2",
     "-o", "task.n_total=2", "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "solver.dt_init=NaN",
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "solver.rtol=NaN",
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "simple-cs", "-o", "solver.t_end=Infinity"],
    ["simulate", "-c", "fig3b", "-o", "solver.recon_T=NaN",
     "-o", "solver.t_end=2"],
    # non-finite task values: each task.initial entry and task.p3_init
    ["simulate", "-c", "simple-cs", "-o", 'task.initial={"P":[NaN,0.5]}',
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "paper-2pop", "-o", 'task.initial={"delta":Infinity}',
     "-o", "solver.t_end=2"],
    ["simulate", "-c", "paper-2pop", "-o", "task.initial={\"theta\":["
     + ",".join(["0"] * 41 + ["-Infinity"]) + "]}", "-o", "solver.t_end=2"],
    ["basin", "-c", "simple-cs", "-o", "model=eco3-reduced",
     "-o", "task.grid=[2,2]", "-o", "solver.t_end=5", "-o", "task.p3_init=NaN"],
    # rk4 would ignore an error tolerance in a single run, as in a batch
    ["simulate", "-c", "fig3b", "-o", "solver.method=rk4",
     "-o", "solver.rtol=1e-6"],
    # network sections that a graph kind, a link or a split cannot read
    _net(pop0={"kind": "erdos-renyi", "n": 8, "p": 0.5, "seed": 3}),
    _net(pop1={"kind": "kary-tree", "branching": 2, "layers": 2, "n": 99}),
    _net(xi={"0-1": 1, "1-0": 1, "0-0": 5}),
    _net(interlinks={"0-1": []}, xi={"0-1": 1, "1-0": 1}),
    _net(pop0={"kind": "erdos-renyi", "n": 8}),
    _net(interlinks={"0-1": [[0, 0]], "0-2": [[0, 0]]}),
    _net(strategic=[[0, 1]]),
    _net(xi="other"),
    _net(sigma=None),
    _net(pop0=1),
    _net(strategic=[5, [0]]),
    # a DOE factor key that no run reads
    ["doe", "-c", "simple-cs", "-o",
     'task.factors=[{"name":"beta1","lo":0.5,"hi":5,"scale":"log"}]',
     "-o", "task.k_init=2", "-o", "task.n_total=2", "-o", "task.grid=[2,2]",
     "-o", "solver.t_end=2"],
    # task.n_sim on a reduced variant, whatever the task
    ["fixed-points", "-c", "simple-cs", "-o", "task.n_sim=5"],
    # population counts that are not integers >= 1 and probabilities that
    # are not numbers in [0, 1]
    _net(pop0={"kind": "erdos-renyi", "n": 2.5, "p": 0.5}),
    _net(pop0={"kind": "erdos-renyi", "n": True, "p": 0.5}),
    _net(pop1={"kind": "kary-tree", "branching": "2", "layers": 2}),
    _net(pop1={"kind": "kary-tree", "branching": 2, "layers": 0}),
    _net(pop0={"kind": "watts-strogatz", "n": 8, "k": 2.0000001,
               "p_rewire": 0.1}),
    _net(pop0={"kind": "explicit", "n": None, "edges": []}),
    _net(pop0={"kind": "erdos-renyi", "n": 8, "p": 1.5}),
    _net(pop0={"kind": "erdos-renyi", "n": 8, "p": True}),
    _net(pop0={"kind": "watts-strogatz", "n": 8, "k": 2, "p_rewire": "0.1"}),
    # a config path that cannot be read, a task that is not an object, and
    # an rtol below 100 eps, where RK45's error estimate vanishes
    ["simulate", "-c", str(Path(__file__).parent)],
    ["simulate", "-c", "simple-cs", "-o", "task=3"],
    ["simulate", "-c", "simple-cs", "-o", "solver.rtol=1e-30",
     "-o", "solver.t_end=2"],
])
def test_config_rejected_by_library_exits_2(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_the_network_cases_change_a_valid_section(tmp_path):
    # each _net case above fails by its change, not by its base section
    assert cli.main(_net() + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("args", [
    ["basin", "-c", "simple-cs", "--svg", "-j", "2", "-o", "task.grid=[2,2]",
     "-o", "solver.t_end=5"],
    ["fixed-points", "-c", "eco2-supp", "--svg"],
])
def test_heatmap_only_flags_exit_2(args, tmp_path, capsys):
    # only heatmap reads --svg and --jobs; any other task would ignore them
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task", [
    {"type": "basin"},
    {"type": "heatmap", "x_param": "beta1", "x_range": [1, 2],
     "y_param": "phi", "y_range": [0, 1]},
    {"type": "doe", "factors": [{"name": "beta1", "lo": 1, "hi": 2}],
     "k_init": 2, "n_total": 2}])
def test_p3_init_is_accepted_where_a_basin_reads_it(task):
    config = {**get_preset("fig3b"), "task": {**task, "p3_init": 3.0}}
    system = cli._build(cli.validate_config(config))["system"]
    assert system.n_pops == 3


@pytest.mark.parametrize("task_type, extra", [
    ("simulate", {}), ("fixed-points", {}), ("glm", {"input": "log.csv"})])
def test_jobs_and_svg_are_rejected_outside_heatmaps(task_type, extra,
                                                    tmp_path):
    # run/run_config would drop them for any other task
    config = {**get_preset("simple-cs"),
              "task": {"type": task_type, **extra}}
    for kwargs in ({"jobs": 4}, {"svg": True}, {"jobs": 0}):
        with pytest.raises(cli.ValidationFailure, match="jobs"):
            cli.run_config(json.loads(json.dumps(config)),
                           out_dir=tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()
    with pytest.raises(cli.ValidationFailure, match="jobs must be >= 1"):
        cli.run("simple-cs", overrides=["task.type=heatmap"], jobs=0,
                out_dir=tmp_path / "out")
    with pytest.raises(cli.ValidationFailure, match="heatmap tasks only"):
        cli.run("simple-cs", overrides=["task.type=simulate",
                                        "solver.t_end=2"],
                jobs=4, svg=True, out_dir=tmp_path / "out")


def test_sweep_step_underflow_exits_3(tmp_path, monkeypatch, capsys):
    # a right-hand side that blows up at t = 2 from the sweep's P = 0.5
    monkeypatch.setitem(models._REDUCED, "simple-reduced",
                        (lambda y, *params: y ** 2, 2, 1))
    assert cli.main(["sweep", "-c", "simple-cs", "-o", "task.param=beta1",
                     "-o", "task.range=[1,2]", "-o", "task.n_points=3",
                     "--out", str(tmp_path / "out")]) == 3
    assert "step size underflow" in capsys.readouterr().err


@pytest.mark.parametrize("method, message", [
    ("rk45", "step size underflow"), ("rk4", "non-finite dy/dt")])
def test_non_finite_simulation_exits_3(method, message, tmp_path, monkeypatch,
                                       capsys):
    # a right-hand side that turns NaN once P1 grows past 0.6 (t ~ 0.18)
    monkeypatch.setitem(models._REDUCED, "simple-reduced",
                        (lambda y, *params: np.where(y > 0.6, np.nan, y),
                         2, 1))
    assert cli.main(["simulate", "-c", "simple-cs", "-o",
                     f"solver.method={method}",
                     "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err


def test_failed_reconnaissance_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(models.ModelSystem, "phase_rhs", lambda self: (
        lambda theta: np.full(theta.shape, np.nan)))
    assert cli.main(["simulate", "-c", "fig3b", "-o", "solver.t_end=1",
                     "-o", "solver.recon_T=1",
                     "--out", str(tmp_path / "out")]) == 3
    assert "reconnaissance failed" in capsys.readouterr().err


def test_basin_grid_of_integral_floats(tmp_path):
    # JSON Schema counts 2.0 as an integer; the grid takes it as 2
    out = tmp_path / "basin"
    cli.run("simple-cs", overrides=["task.type=basin", "task.grid=[2.0,3]",
                                    "solver.t_end=20"], out_dir=out, seed=0)
    assert json.loads((out / "basin.json").read_text())["n_evaluated"] == 6


def test_linalg_error_while_building_exits_3(tmp_path, monkeypatch):
    def fail(section, seed):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli, "build_network", fail)
    assert cli.main(["simulate", "-c", "fig3a",
                     "--out", str(tmp_path / "out")]) == 3


_BATCH_TASKS = [
    ["simulate", "-c", "fig3b", "-o", "task.n_sim=2",
     "-o", "solver.recon_T=1"],
    ["basin", "-c", "simple-cs", "-o", "task.grid=[2,2]"],
    ["heatmap", "-c", "simple-cs", "-o", "task.x_param=beta1",
     "-o", "task.x_range=[1,2]", "-o", "task.y_param=phi",
     "-o", "task.y_range=[0,1]", "-o", "task.x_points=2",
     "-o", "task.y_points=2", "-o", "task.grid=[2,2]"],
    ["doe", "-c", "simple-cs", "-o", _DOE, "-o", "task.k_init=2",
     "-o", "task.n_total=2", "-o", "task.grid=[2,2]"],
    ["basin", "-c", "simple-cs", "-o", "model=eco3-reduced",
     "-o", "task.grid=[2,2]"],
]


@pytest.mark.parametrize("args", _BATCH_TASKS)
@pytest.mark.parametrize("setting", ["solver.rtol=1e-6", "solver.atol=1e-9"])
def test_batch_tasks_reject_adaptive_solver_settings(args, setting, tmp_path,
                                                     capsys):
    # RK4 steps at dt_init and would ignore the error tolerances
    out = tmp_path / "out"
    assert cli.main(args + ["-o", "solver.method=rk4", "-o", setting,
                            "--out", str(out)]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", _BATCH_TASKS)
@pytest.mark.parametrize("setting", ["solver.method=rk45", "solver.rtol=1e-6",
                                     "solver.atol=1e-9", "solver.dt_max=0.5",
                                     "solver.method=rk4"])
def test_batch_tasks_read_adaptive_solver_settings(args, setting, tmp_path,
                                                   monkeypatch):
    # every integration of a batch task runs with the configured value;
    # the sizes are cut so that each task takes a fraction of a second
    key, value = setting.split("=")
    seen, drive = [], solver._drive

    def spy(rhs, y0, settings, *rest, **kw):
        seen.append(getattr(settings, key.split(".")[1]))
        return drive(rhs, y0, settings, *rest, **kw)

    monkeypatch.setattr(solver, "_drive", spy)
    assert cli.main(args + ["-o", "solver.t_end=2", "-o", setting,
                            "--out", str(tmp_path)]) == 0
    assert seen and set(seen) == {value if key == "solver.method"
                                  else json.loads(value)}


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_basin_task_equals_the_library_run(method, tmp_path):
    """The CLI basin on simple-cs runs estimate_basin at its settings: the
    per-cell fractions are the library run's, for either method."""
    out = tmp_path / "out"
    assert cli.main(["basin", "-c", "simple-cs", "-o", "task.grid=[3,3]",
                     "-o", f"solver.method={method}", "-o", "solver.t_end=60",
                     "--out", str(out)]) == 0
    config = get_preset("simple-cs")
    spec = basin.BasinSpec(grid=(3, 3), settings=solver.IntegratorSettings(
        **{**config["solver"], "method": method, "t_end": 60.0}))
    want = basin.estimate_basin(config["model"], models.ModelConfig(
        **config["params"]), spec)
    np.savetxt(tmp_path / "want.csv", want.per_cell, delimiter=",",
               fmt="%.12g")
    assert (out / "basin_cells.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()
    assert json.loads((out / "basin.json").read_text())["value"] == want.value


@pytest.mark.parametrize("args", [
    ["simulate", "-o", "solver.t_end=5"],
    ["basin", "-o", "solver.t_end=5", "-o", "task.grid=[2,2]",
     "-o", "solver.method=rk4"],
    ["fixed-points"],
])
def test_reduced_variants_reject_recon_T(args, tmp_path, capsys):
    # a reduced variant has no reconnaissance and would ignore the key
    out = tmp_path / "out"
    assert cli.main(args + ["-c", "simple-cs", "-o", "solver.recon_T=5",
                            "--out", str(out)]) == 2
    assert "solver.recon_T" in capsys.readouterr().err
    assert not out.exists()


_FACTOR_SPANS = {"beta1": (0.5, 6.0), "mu": (-0.8, 0.8), "phi": (-1.0, 1.0),
                 "psi": (-1.0, 1.0), "gamma2": (0.2, 2.0),
                 "alpha": (1.0, 10.0), "x1": (0.0, 0.5)}


@st.composite
def _doe_task(draw, model):
    names = draw(st.lists(
        st.sampled_from(sorted(set(_FACTOR_SPANS)
                               & set(models.model_params(model)))),
        min_size=2, max_size=2, unique=True))
    factors = []
    for name in names:
        lo, hi = _FACTOR_SPANS[name]
        a = draw(st.floats(0.0, 0.8))
        b = draw(st.floats(a + 0.1, 1.0))
        factors.append({"name": name, "lo": lo + a * (hi - lo),
                        "hi": lo + b * (hi - lo)})
    k_init = draw(st.integers(5, 6))   # below 5 the design anneals for seconds
    return {"type": "doe", "factors": factors, "k_init": k_init,
            "n_total": k_init + draw(st.integers(0, 2)),
            "grid": draw(st.sampled_from([[1, 1], [2, 2], [2, 3]]))}


@pytest.mark.parametrize("model", ["simple-reduced", "eco2-reduced"])
@settings(max_examples=5)
@given(data=st.data())
def test_doe_records_equal_per_point_estimate_basin(model, data):
    # the batched design and the acquisitions score each record exactly as
    # estimate_basin does at that record's point
    config = {"model": model, "params": {"beta2": 2.0, "r2": 2.5, "mu": 0.2},
              "seed": 3, "solver": {"dt_init": 0.05, "t_end": 30.0},
              "task": data.draw(_doe_task(model))}
    with tempfile.TemporaryDirectory() as out:
        cli.run_config(config, out_dir=out)
        records, names = doe.read_doe_log(Path(out) / "doe_log.csv")
    inputs = cli._build(config)
    cfg, net = inputs["system"].cfg, inputs["system"].net
    spec = cli._basin_spec(config["task"], inputs["settings"], inputs["seed"])
    assert len(records) == config["task"]["n_total"]
    for rec in records:
        point = dict(zip(names, map(float, rec.x)))
        want = basin.estimate_basin(model, replace(cfg, **point), spec,
                                    net=net).value
        assert np.array_equal(rec.y, want, equal_nan=True)


# ---------------------------------------------------------------------------
# reruns into one output directory
# ---------------------------------------------------------------------------

_GLM_LOG = "iter,source,beta1,phi,basin,objective\n" + "".join(
    f"{i},initial,{1 + 0.5 * i},{0.1 * (3 * i % 8) - 0.35},"
    f"{0.1 + 0.1 * i},0\n" for i in range(8))

_SMOKE = ["solver.method=rk4", "solver.dt_init=0.05", "solver.t_end=4"]

# one smoke-size run per task, each writing every artifact it can
_EVERY_TASK = {
    "simulate": ("simple-cs", ["task.type=simulate"], {}),
    "ensemble": ("fig3b", ["task.n_sim=2", "solver.recon_T=1"], {}),
    "fixed-points": ("simple-cs", ["beta1=10"], {}),      # diagnostics.json
    "sweep": ("simple-cs", ["task.type=sweep", "task.param=beta1",
                            "task.range=[1.8,3.0]", "task.n_points=3"], {}),
    "basin": ("simple-cs", ["task.type=basin", "task.grid=[2,2]"], {}),
    "heatmap": ("simple-cs", ["task.type=heatmap", "task.x_param=beta1",
                              "task.x_range=[1,2]", "task.x_points=2",
                              "task.y_param=phi", "task.y_range=[0,1]",
                              "task.y_points=2", "task.grid=[2,2]"],
                {"svg": True}),
    "doe": ("simple-cs", ["task.type=doe", _DOE, "task.k_init=5",
                          "task.n_total=5", "task.grid=[2,2]"], {}),
    "glm": ("simple-cs", ["task.type=glm", "task.input={log}"], {}),
}


def _run_smoke(run, out, seed, tmp_path):
    preset, overrides, kwargs = run
    log = tmp_path / "doe_log.csv"
    log.write_text(_GLM_LOG)
    overrides = [o.replace("{log}", str(log)) for o in overrides]
    cli.run(preset, overrides=overrides + _SMOKE, out_dir=out, seed=seed,
            **kwargs)


@pytest.mark.parametrize("case", list(_EVERY_TASK))
def test_rerun_writes_new_files_named_in_the_task_table(case, tmp_path):
    out = tmp_path / "out"
    _run_smoke(_EVERY_TASK[case], out, 0, tmp_path)
    task = json.loads((out / "metadata.json").read_text())["task"]
    table = {"resolved_config.json", "metadata.json",
             *cli._TASKS[task].artifacts}
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) <= table
    listed = json.loads(first["metadata.json"])["artifacts"]
    assert listed == sorted(first)

    links = tmp_path / "links"
    links.mkdir()
    for name in first:
        os.link(out / name, links / name)
    _run_smoke(_EVERY_TASK[case], out, 1, tmp_path)
    rerun = {p.name: p.read_bytes() for p in out.iterdir()}
    for name, data in first.items():
        assert (links / name).read_bytes() == data, name   # not written to
        assert (links / name).stat().st_ino != (out / name).stat().st_ino

    shutil.rmtree(out)
    _run_smoke(_EVERY_TASK[case], out, 1, tmp_path)
    fresh = {p.name: p.read_bytes() for p in out.iterdir()}
    assert rerun.keys() == fresh.keys()
    for name in fresh.keys() - {"metadata.json"}:
        assert rerun[name] == fresh[name], name


def test_the_task_table_is_the_single_source(capsys):
    # the schema's task types and the CLI's subcommands are the table's keys
    schema = cli.CONFIG_SCHEMA["properties"]["task"]["properties"]["type"]
    assert schema["enum"] == list(cli._TASKS)
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    commands = re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == [*cli._TASKS, "presets"]


# the inputs _build makes besides the swept values, which every task makes
_BUILT = {"simulate": ["_initial_state"], "ensemble": ["_initial_state"],
          "basin": ["_basin_spec"], "heatmap": ["_basin_spec"],
          "doe": ["_basin_spec"], "glm": ["read_doe_log"]}


@pytest.mark.parametrize("case", list(_EVERY_TASK))
def test_each_task_input_is_built_once(case, tmp_path, monkeypatch):
    # the runners take what _build made: a glm run reads its log once
    calls = []
    for owner, name in [(cli, "_initial_state"), (cli, "_basin_spec"),
                        (cli, "_swept"), (doe, "read_doe_log")]:
        def spy(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    _run_smoke(_EVERY_TASK[case], tmp_path / "out", 0, tmp_path)
    assert sorted(calls) == sorted(["_swept", *_BUILT.get(case, [])])


@pytest.mark.parametrize("first, second, stale", [
    ("fixed-points", ("simple-cs", [], {}), {"diagnostics.json"}),
    ("heatmap", (*_EVERY_TASK["heatmap"][:2], {}), {"heatmap.svg"}),
    ("simulate", _EVERY_TASK["ensemble"], {"trajectory.csv", "outcome.json"}),
    ("ensemble", _EVERY_TASK["simulate"], {"ensemble.json"})])
def test_rerun_leaves_no_artifact_it_does_not_write(first, second, stale,
                                                    tmp_path):
    out = tmp_path / "out"
    _run_smoke(_EVERY_TASK[first], out, 0, tmp_path)
    assert stale <= {p.name for p in out.iterdir()}
    _run_smoke(second, out, 0, tmp_path)
    written = {p.name for p in out.iterdir()}
    assert not written & stale
    listed = json.loads((out / "metadata.json").read_text())["artifacts"]
    assert listed == sorted(written)


def test_failed_rerun_leaves_no_artifact_of_the_last_run(tmp_path,
                                                         monkeypatch):
    out = tmp_path / "out"
    args = ["simulate", "-c", "simple-cs", "-o", "solver.t_end=2",
            "--out", str(out)]
    assert cli.main(args) == 0
    assert (out / "trajectory.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "ok" and "error" not in meta
    # a right-hand side that turns NaN once P1 grows past 0.6
    monkeypatch.setitem(models._REDUCED, "simple-reduced",
                        (lambda y, *params: np.where(y > 0.6, np.nan, y),
                         2, 1))
    assert cli.main(args) == 3
    # the failed run leaves its config and a metadata.json that says why
    assert {p.name for p in out.iterdir()} == {"resolved_config.json",
                                               "metadata.json"}
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "failed" and meta["task"] == "simulate"
    assert meta["error"].startswith("StiffnessError: ")
    assert meta["artifacts"] == ["metadata.json", "resolved_config.json"]


def test_rejected_rerun_touches_nothing(tmp_path):
    out = tmp_path / "out"
    args = ["simulate", "-c", "simple-cs", "-o", "solver.t_end=2",
            "--out", str(out)]
    assert cli.main(args) == 0

    def listing():
        return {p.name: (p.stat().st_ino, p.read_bytes())
                for p in out.iterdir()}

    before = listing()
    assert cli.main(args + ["-o", "r1=NaN"]) == 2
    assert listing() == before


def test_rerun_does_not_write_through_a_symlink(tmp_path):
    out = tmp_path / "fps"
    out.mkdir()
    target = tmp_path / "elsewhere.csv"
    target.write_text("kept\n")
    (out / "fixed_points.csv").symlink_to(target)
    cli.run("simple-cs", out_dir=out, seed=0)
    assert target.read_text() == "kept\n"
    assert not (out / "fixed_points.csv").is_symlink()
    assert (out / "fixed_points.csv").read_text().startswith("label,")


@pytest.mark.parametrize("blocked", ["artifact", "out"])
def test_unusable_output_path_exits_2_touching_nothing(blocked, tmp_path,
                                                       capsys):
    """A directory at an artifact's name, or --out naming a file, exits 2
    with an error line before the run removes or writes anything."""
    d = tmp_path / "d"
    if blocked == "artifact":
        (d / "fixed_points.csv" / "x").mkdir(parents=True)
        (d / "diagnostics.json").write_text("last run\n")
    else:
        d.write_text("a file\n")

    def listing():
        return sorted((str(p.relative_to(tmp_path)),
                       p.is_file() and p.read_bytes())
                      for p in tmp_path.rglob("*"))

    before = listing()
    assert cli.main(["fixed-points", "-c", "simple-cs", "--out", str(d)]) == 2
    assert capsys.readouterr().err.startswith("error: output: ")
    assert listing() == before
