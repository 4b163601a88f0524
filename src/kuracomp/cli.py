"""Command-line driver: JSON configs in, CSV/JSON artifacts out.

Commands: one per task in ``_TASKS``, which holds each task's contract, and
presets.  Every run echoes its resolved config (with hash) into the output
directory so any artifact can be reproduced exactly from the echo plus the
master seed.  A run first removes every artifact its task may write, so each
file it writes is new and none is left from an earlier run into the same
directory.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, basin, doe, stats
from .models import (_REDUCED, MODEL_VARIANTS, ModelConfig, build_system,
                     model_params, resource_scale)
from .presets import build_network, get_preset, preset_names
from .solver import IntegratorSettings, StiffnessError, ensemble, run_scenario

_PARAM_FIELDS = [f.name for f in fields(ModelConfig)]


class ValidationFailure(ValueError):
    pass


def load_config(path_or_name: str) -> dict:
    """Load a config from a JSON file path or a shipped preset name."""
    name = path_or_name[:-5] if path_or_name.endswith(".json") else path_or_name
    path = Path(path_or_name)
    if path.exists():
        try:
            with open(path) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ValidationFailure(f"cannot read {path}: "
                                    f"{exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(config, dict) or not isinstance(
                config.get("task", {}), dict):
            raise ValidationFailure(f"config invalid: {path} and its task "
                                    "must be JSON objects")
        return config
    if name in preset_names():
        return get_preset(name)
    raise ValidationFailure(f"no such config file or preset: {path_or_name}")


def validate_config(config: dict) -> dict:
    import jsonschema

    # CONFIG_SCHEMA is a constant, so it is not re-checked against the
    # meta-schema here (a test does that once); best_match picks the same
    # error that jsonschema.validate would raise
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        raise ValidationFailure(f"config invalid: {error.message}") from error
    return config


def apply_overrides(config: dict, overrides) -> dict:
    """Apply dotted-path key=value overrides (values parsed as JSON)."""
    for item in overrides or ():
        if "=" not in item:
            raise ValidationFailure(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        if len(parts) == 1 and parts[0] in _PARAM_FIELDS:
            parts = ["params", parts[0]]       # bare model parameter names
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationFailure(f"override path {key!r} not an object")
        node[parts[-1]] = value
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build(config: dict) -> dict:
    """The runner's inputs, each built and checked once: system, settings,
    seed, swept, and start, spec or log where the task reads task.initial,
    task.grid or task.input.  ValidationFailure (or ValueError) if not."""
    model, task, kind = config["model"], config["task"], config["task"]["type"]
    entry = _TASKS[kind]
    if model not in entry.variants:
        raise ValidationFailure(f"{kind} supports the "
                                f"{' and '.join(entry.variants)} variants")
    params = dict(config.get("params", {}))
    cfg = ModelConfig(**params).validate()
    seed = int(config.get("seed", 0))
    net = None
    if "network" in config:
        net = build_network(config["network"], seed)
        drawn = {"mu", "nu"} if net.n_pops == 3 else {"mu"}
        if ({"mu", "nu", "omega"} & config["network"].keys()
                not in ([set()] if model in _REDUCED else [{"omega"}, drawn])):
            raise ValidationFailure(
                "a full variant's network frequencies are network.omega or "
                f"drawn at network.{'/'.join(sorted(drawn))}; a reduced "
                "variant reads none from its network")
    needed = [key for axis in entry.axes for key in axis[:2]] + [*entry.needs]
    missing = [k for k in needed if k not in task]
    if missing:
        raise ValidationFailure(f"{kind} needs task." + ", task.".join(missing))
    if not np.isfinite([task[span] for _, span, _ in entry.axes]).all():
        raise ValidationFailure("task ranges must be finite")
    varied = [task[name] for name, _, _ in entry.axes]
    if len(set(varied)) < len(varied):
        raise ValidationFailure(f"{kind} needs two distinct parameter names")
    if "factors" in entry.needs:
        varied += [f["name"] for f in task["factors"]]
        if task["n_total"] < task["k_init"]:
            raise ValidationFailure(f"{kind} needs task.n_total >= task.k_init")
        repeated = [name for name in varied if varied.count(name) > 1]
        if repeated:
            raise ValidationFailure(f"factor {repeated[0]!r} is named more "
                                    "than once in task.factors")
        for f in task["factors"]:     # non-finite ends fail validate below
            if f["lo"] >= f["hi"]:
                raise ValidationFailure(f"factor {f['name']!r} needs lo < hi")
        if "p_exponent" in varied:
            raise ValidationFailure(f"p_exponent cannot be a {kind} factor: "
                                    "it takes the values 1 and 2 only")
    if "n_sim" in task and model in _REDUCED:
        raise ValidationFailure("task.n_sim: reduced variants have no phases")
    model_params(model, list(params) + varied, net=net)
    # every check is an interval, so a doe factor's endpoints suffice
    swept = _swept(task)
    try:
        replace(cfg, **swept).validate()
    except ValueError as exc:
        raise ValidationFailure(f"swept values: {exc}") from exc
    sv = config.get("solver", {})
    if "recon_T" in sv and model in _REDUCED:
        raise ValidationFailure("solver.recon_T: reduced variants have no "
                                "reconnaissance")
    ignored = [f"solver.{k}" for k in ("rtol", "atol") if k in sv]
    if sv.get("method") == "rk4" and ignored:
        raise ValidationFailure("solver.method=rk4 steps at solver.dt_init "
                                f"and would ignore {', '.join(ignored)}")
    settings = IntegratorSettings(**sv)
    system = build_system(model, cfg, net=net)
    inputs = {"system": system, "settings": settings, "seed": seed,
              "swept": swept}
    if "initial" in entry.reads:
        inputs["start"] = _initial_state(system, task)
    if "input" in entry.needs:
        inputs["log"] = _scored_records(task["input"])
    if "p3_init" in task and not ("p3_init" in entry.reads
                                  and system.n_pops == 3):
        *rest, last = [k for k, t in _TASKS.items() if "p3_init" in t.reads]
        raise ValidationFailure(f"task.p3_init is read only by "
                                f"{', '.join(rest)} and {last} tasks on a "
                                "three-population variant")
    if "grid" in entry.reads:
        inputs["spec"] = _basin_spec(task, settings, seed)  # checks p3_init
    return inputs


def _swept(task) -> dict:
    """{parameter: values} a task varies: the grid of each swept axis, or
    both endpoints of each doe factor."""
    entry = _TASKS[task["type"]]
    if "factors" in entry.needs:
        return {f["name"]: np.array([f["lo"], f["hi"]], dtype=float)
                for f in task["factors"]}
    return {task[name]: np.linspace(*task[span], task.get(points, 21))
            for name, span, points in entry.axes}


def _initial_state(system, task):
    """The start state that task.initial gives.  ValidationFailure unless each
    task.initial entry is one the run reads, with one value per population
    (P), centroid difference (delta; a full variant places one) or node
    (theta): a full variant reads delta if given, else theta, and an
    ensemble (task.n_sim) neither."""
    init, m = task.get("initial", {}), system.n_pops
    sizes = ({"P": m, "delta": system.dim - m} if system.reduced else {"P": m}
             if "n_sim" in task else {"P": m, "delta": 1} if "delta" in init
             else {"P": m, "theta": system.net.n_total})
    for key, value in init.items():
        if key not in sizes:
            raise ValidationFailure(f"task.initial.{key} is not read by this "
                                    f"{system.name} simulation")
        if np.size(value) != sizes[key]:
            raise ValidationFailure(f"task.initial.{key} needs {sizes[key]} "
                                    f"value(s), got {np.size(value)}")
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ValidationFailure(f"task.initial.{key} must be finite")
    P = np.asarray(init["P"], dtype=float) if "P" in init \
        else 0.5 * np.asarray(resource_scale(system))
    if system.reduced:
        delta = init.get("delta", np.zeros(system.dim - m))
        return np.concatenate([P, np.atleast_1d(np.asarray(delta, float))])
    theta = np.zeros(system.net.n_total)
    if "delta" in init:
        theta[system.net.nodes_of(1)] = -float(np.atleast_1d(init["delta"])[0])
    elif "theta" in init:
        theta = np.asarray(init["theta"], dtype=float)
    return np.concatenate([P, theta])


# ---------------------------------------------------------------------------
# task runners: each takes the config, its output directory, the run flags
# and the inputs _build made, by name, and writes its artifacts
# ---------------------------------------------------------------------------

def _task_simulate(config, outdir, system, settings, seed, start, **_):
    task = config["task"]
    if "n_sim" in task:
        res = ensemble(system, start[:system.n_pops], task["n_sim"], seed,
                       settings)
        _write_json(outdir / "ensemble.json",
                    {"fractions": res.fractions, "counts": res.counts,
                     "n_sim": res.n_sim})
        return {"fractions": res.fractions}
    outcome = run_scenario(system, start, settings)
    outcome.trajectory.to_csv(outdir / "trajectory.csv", system.labels)
    summary = {"winner": outcome.winner, "t_event": outcome.t_event}
    _write_json(outdir / "outcome.json", summary)
    return summary


def _task_fixed_points(config, outdir, system, **_):
    diags = []
    fixed_points = (analysis.eco2_fixed_points if config["model"] ==
                    "eco2-reduced" else analysis.simple_fixed_points)
    records = fixed_points(system.cfg, system.coupling, diagnostics=diags)
    rows = ["label,P1,P2,Delta1,max_real_eig,class,residual,status"]
    for rec in records:
        rows.append(",".join(
            [rec.label] + [f"{v:.12g}" for v in rec.state]
            + [f"{rec.max_real_eig:.12g}", rec.classification,
               f"{rec.residual:.3g}", rec.status]))
    (outdir / "fixed_points.csv").write_text("\n".join(rows) + "\n")
    if diags:
        _write_json(outdir / "diagnostics.json", {"notes": diags})
    return {"n_fixed_points": len(records)}


def _task_sweep(config, outdir, system, settings, swept, **_):
    ((param, values),) = swept.items()
    coupling = system.coupling if system.net is not None else None
    rows = analysis.sweep_bifurcation(config["model"], system.cfg, param,
                                      values, coupling=coupling,
                                      settings=settings)
    analysis.sweep_to_csv(rows, outdir / "sweep.csv")
    return {"n_rows": len(rows)}


def _basin_spec(task, settings, seed):
    given = {k: task[k] for k in _SPEC if k in task}       # else BasinSpec's
    if "grid" in task:
        given["grid"] = tuple(int(r) for r in task["grid"])   # 2.0 passes
    return basin.BasinSpec(seed=seed, settings=settings, **given)


def _task_basin(config, outdir, system, spec, **_):
    result = basin.estimate_basin(system.name, system.cfg, spec,
                                  net=system.net)
    np.savetxt(outdir / "basin_cells.csv", result.per_cell, delimiter=",",
               fmt="%.12g")
    _write_json(outdir / "basin.json",
                {"value": result.value, "n_evaluated": result.n_evaluated,
                 "n_failed": result.n_failed})
    return {"basin": result.value}


def _task_heatmap(config, outdir, system, seed, swept, spec, jobs, svg, **_):
    (x_param, xs), (y_param, ys) = swept.items()
    matrix, xv, yv = basin.basin_heatmap(
        system.name, system.cfg, x_param, xs, y_param, ys, spec,
        net=system.net, jobs=jobs)
    meta = {"model": config["model"], "config_hash": config_hash(config),
            "seed": seed, "x_param": x_param, "y_param": y_param,
            "resolutions": [int(xs.size), int(ys.size), list(spec.grid)]}
    basin.heatmap_to_csv(matrix, xv, yv, outdir / "heatmap.csv", meta=meta)
    if svg:
        _write_svg_heatmap(matrix, outdir / "heatmap.svg")
    return {"min": float(matrix.min()), "max": float(matrix.max())}


def _task_doe(config, outdir, system, seed, swept, spec, **_):
    task = config["task"]                 # swept holds each factor's (lo, hi)

    def g(X):
        c = replace(system.cfg, **dict(zip(swept, X.T)))
        return [r.value for r in basin.estimate_basins(
            system.name, c, spec, len(X), net=system.net)]

    records = doe.run_doe(g, list(swept.values()), task["k_init"],
                          task["n_total"], seed)
    doe.write_doe_log(records, outdir / "doe_log.csv", list(swept))
    return {"n_records": len(records)}


def _task_glm(config, outdir, seed, log, **_):
    X, y, names = log
    fit = stats.fit_quasibinomial(X, y, feature_names=names)
    table = stats.deviance_anova(X, y, term_order=names)
    stats.write_coefficient_table(fit, table, outdir / "glm_coefficients.csv")
    imp = stats.permutation_importance(
        fit, X, y, n_repeats=config["task"].get("n_repeats", 10), seed=seed)
    _write_json(outdir / "permutation_importance.json", imp)
    return {"converged": fit.converged,
            "dispersion": float(fit.dispersion)}


def _scored_records(path):
    """(factor values X, responses y, factor names) of the DOE log records at
    path with a finite response; ValidationFailure unless it can be read and
    holds such a record."""
    try:
        records, names = doe.read_doe_log(path)
    except OSError as exc:
        raise ValidationFailure(f"task.input: cannot read {path}: "
                                f"{exc.strerror}") from exc
    except ValueError as exc:                        # a malformed log
        raise ValidationFailure(f"task.input: {exc}") from exc
    good = [r for r in records if not r.failed]
    if not good:
        raise ValidationFailure(f"task.input: {path} holds no scored "
                                "DOE record")
    return np.array([r.x for r in good]), np.array([r.y for r in good]), names


@dataclass(frozen=True)
class _Task:
    """A task's contract with the CLI."""

    run: Callable             # runner(config, outdir, jobs, svg, **inputs)
    artifacts: tuple          # files it may write, which run_config removes
    reads: tuple = ()         # task keys read with a default, beyond axes
    needs: tuple = ()         # task keys read without a default, beyond axes
    axes: tuple = ()          # (param, range, points) of each swept axis
    variants: tuple = MODEL_VARIANTS
    flags: tuple = ()         # run_config keywords, also command-line options


_SPEC = ("grid", "n_sim", "p3_init")            # the keys _basin_spec reads

_TASKS = {
    "simulate": _Task(_task_simulate, ("ensemble.json", "trajectory.csv",
                                       "outcome.json"),
                      reads=("initial", "n_sim")),
    "fixed-points": _Task(_task_fixed_points, ("fixed_points.csv",
                                               "diagnostics.json"),
                          variants=("simple-reduced", "eco2-reduced")),
    "sweep": _Task(_task_sweep, ("sweep.csv",),
                   axes=(("param", "range", "n_points"),),
                   variants=("simple-reduced", "eco2-reduced")),
    "basin": _Task(_task_basin, ("basin_cells.csv", "basin.json"),
                   reads=_SPEC),
    "heatmap": _Task(_task_heatmap, ("heatmap.csv", "heatmap.csv.json",
                                     "heatmap.svg"), reads=_SPEC,
                     axes=(("x_param", "x_range", "x_points"),
                           ("y_param", "y_range", "y_points")),
                     flags=("jobs", "svg")),
    "doe": _Task(_task_doe, ("doe_log.csv",), reads=_SPEC,
                 needs=("factors", "k_init", "n_total")),
    "glm": _Task(_task_glm, ("glm_coefficients.csv",
                             "permutation_importance.json"),
                 reads=("n_repeats",), needs=("input",)),
}


_PAIR = {"type": "array", "items": {"type": "number"},      # (lo, hi)
         "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["model"],
    "properties": {
        "model": {"enum": list(MODEL_VARIANTS)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {name: {"type": ["number", "integer"]}
                           for name in _PARAM_FIELDS},
        },
        "network": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"type": "string"},
                "populations": {"type": "array", "items": {"type": "object"}},
                "interlinks": {"type": "object"},
                "sigma": {"type": "array", "items": {"type": "number"}},
                "xi": {"anyOf": [{"type": "object"}, {"const": "paper"}]},
                "mu": {"type": "number"},
                "nu": {"type": "number"},
                "strategic": {"type": "array", "items": {
                    "type": "array", "items": {"type": "integer"}}},
                "omega": {"type": "array"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["rk45", "rk4"]},
                "rtol": {"type": "number", "exclusiveMinimum": 0},
                "atol": {"type": "number", "exclusiveMinimum": 0},
                "dt_init": {"type": "number", "exclusiveMinimum": 0},
                "dt_max": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "recon_T": {"type": "number", "minimum": 0},
            },
        },
        "task": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": list(_TASKS)},
                "initial": {"type": "object"},
                "n_sim": {"type": "integer", "minimum": 1},
                "param": {"type": "string"},
                "range": _PAIR,
                "n_points": {"type": "integer", "minimum": 1},
                "x_param": {"type": "string"},
                "x_range": _PAIR,
                "x_points": {"type": "integer", "minimum": 2},
                "y_param": {"type": "string"},
                "y_range": _PAIR,
                "y_points": {"type": "integer", "minimum": 2},
                "grid": {**_PAIR, "items": {"type": "integer", "minimum": 1}},
                "factors": {"type": "array", "minItems": 1, "items": {
                    "type": "object", "required": ["name", "lo", "hi"],
                    "additionalProperties": False,
                    "properties": {"name": {"type": "string"},
                                   "lo": {"type": "number"},
                                   "hi": {"type": "number"}}}},
                "k_init": {"type": "integer", "minimum": 1},
                "n_total": {"type": "integer", "minimum": 1},
                "input": {"type": "string"},
                "n_repeats": {"type": "integer", "minimum": 1},
                "p3_init": {"type": "number", "minimum": 0},
            },
        },
    },
}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)


_SVG_STOPS = np.array([[68, 1, 84], [59, 82, 139], [33, 145, 140],
                       [94, 201, 98], [253, 231, 37]], dtype=float)
_SVG_CELL = 14           # pixels per heatmap entry


def _write_svg_heatmap(matrix, path):
    ny, nx = matrix.shape
    cell = _SVG_CELL
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{nx * cell}" height="{ny * cell}">']
    for i in range(ny):
        for j in range(nx):
            v = float(np.clip(matrix[i, j], 0.0, 1.0))
            pos = v * (len(_SVG_STOPS) - 1)
            k = min(int(pos), len(_SVG_STOPS) - 2)
            frac = pos - k
            rgb = (1 - frac) * _SVG_STOPS[k] + frac * _SVG_STOPS[k + 1]
            colour = "#%02x%02x%02x" % tuple(int(c) for c in rgb)
            lines.append(f'<rect x="{j * cell}" y="{(ny - 1 - i) * cell}" '
                         f'width="{cell}" height="{cell}" fill="{colour}"/>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines))


def run(config_path: str, overrides=(), out_dir=None, seed=None, jobs: int = 1,
        svg: bool = False) -> dict:
    """Validate, execute, and write artifacts; returns a result summary."""
    config = apply_overrides(load_config(config_path), overrides)
    return run_config(config, out_dir=out_dir, seed=seed, jobs=jobs, svg=svg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kuracomp",
        description="coupled decision/competition dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _TASKS.items():
        p = sub.add_parser(name, help=f"run a {name} task")
        p.add_argument("--config", "-c", required=True,
                       help="config JSON path or preset name")
        p.add_argument("--override", "-o", action="append", default=[],
                       metavar="K=V", help="dotted-path config override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        if entry.flags:
            p.add_argument("--jobs", "-j", type=int,
                           default=os.cpu_count() or 1,
                           help="worker processes for full-variant heatmaps "
                                "(default: logical cores)")
            p.add_argument("--svg", action="store_true",
                           help="emit a minimal SVG heatmap rendering")
    sub.add_parser("presets", help="list shipped configuration presets")

    args = parser.parse_args(argv)
    if args.command == "presets":
        for name in preset_names():
            print(name)
        return 0
    try:
        # the command is the task type, set as the last override
        summary = run(args.config, [*args.override,
                                    f"task.type={args.command}"],
                      out_dir=args.out, seed=args.seed,
                      **{flag: getattr(args, flag)
                         for flag in _TASKS[args.command].flags})
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, analysis.NumericalError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary, default=float))
    return 0


def run_config(config: dict, out_dir=None, seed=None, jobs: int = 1,
               svg: bool = False) -> dict:
    """Like run(), but starting from an in-memory config dict."""
    if seed is not None:
        config["seed"] = int(seed)
    if out_dir is not None:
        config["output"] = str(out_dir)
    config = validate_config(config)
    if "task" not in config:              # the schema requires its type
        raise ValidationFailure("config needs task.type")
    task_type = config["task"]["type"]
    entry = _TASKS[task_type]
    if jobs < 1:
        raise ValidationFailure(f"jobs must be >= 1, got {jobs}")
    if not entry.flags and (jobs != 1 or svg):
        (taker,) = [name for name, t in _TASKS.items() if t.flags]
        raise ValidationFailure(f"jobs and svg apply to {taker} tasks only")
    started = time.time()
    try:
        inputs = _build(config)
    except ValueError as exc:       # the library rejects the config
        if isinstance(exc, np.linalg.LinAlgError):
            raise
        raise ValidationFailure(str(exc)) from exc
    outdir = Path(config.get("output", "out"))
    names = ("resolved_config.json", "metadata.json", *entry.artifacts)
    for path in (outdir, *outdir.parents):
        if path.exists() and not path.is_dir():
            raise ValidationFailure(f"output: {path} is not a directory")
    for path in (outdir / name for name in names):
        if path.is_dir() and not path.is_symlink():
            raise ValidationFailure(f"output: {path} is a directory")
    # a rerun writes new files: truncating the last run's in place is slow
    # on some file systems, writes through links, and leaves behind the
    # artifacts that this run does not write
    for name in names:
        (outdir / name).unlink(missing_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "resolved_config.json", config)

    def write_metadata(**status):
        _write_json(outdir / "metadata.json", {
            "config_hash": config_hash(config),
            "seed": inputs["seed"],
            "task": task_type,
            "artifacts": sorted(name for name in names
                                if name == "metadata.json"
                                or (outdir / name).exists()),
            "versions": {"kuracomp": __version__, "numpy": np.__version__},
            "wall_time_s": time.time() - started,
            **status,
        })

    # a failed run still says what it was and why it failed
    try:
        summary = entry.run(config, outdir, jobs=jobs, svg=svg, **inputs)
    except Exception as exc:
        write_metadata(status="failed", error=f"{type(exc).__name__}: {exc}")
        raise
    write_metadata(status="ok")
    return summary


if __name__ == "__main__":
    sys.exit(main())
