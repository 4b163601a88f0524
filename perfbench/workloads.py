"""The four benchmark workloads: configs, stated sizes and output checks.

Each workload is a task made of one or more ``kuracomp.cli.run_config``
calls, each on a config dict built from a shipped preset plus overrides.
The seed sets ``config["seed"]`` and the output directory; the program
receives nothing else.  Where a seed decides how much work a task does
(the eco3 networks, the DOE design) it is pinned, so that runs on different
seeds measure the same work.

Checks compare a task's artifacts with ``reference/<workload>/`` (recorded
at seed 0, see its ``reference.json``) under the README determinism
contract: bytes for the RK4 paths, 1e-12 for RK45.  Artifacts that do not
depend on the seed (the reduced heatmap, the DOE campaign, the sweep) are
compared on every seed, the eco3 ensembles only on seed 0; every seed is
also checked against the seed-independent invariants of acceptance
criteria 3 and 7.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

_DOE_FACTORS = ('task.factors=[{"name":"beta1","lo":0.5,"hi":5},'
                '{"name":"mu","lo":-0.8,"hi":0.8}]')


@dataclass
class Workload:
    name: str
    why: str
    # (label, preset, overrides) per run_config call of one task
    calls: list
    # stated size of one task
    size: dict
    # overrides that shrink each call to smoke size
    smoke: list
    # artifacts compared with the reference: {label: [(file, kind)]}
    artifacts: dict
    seed_dependent: bool
    # seeds that decide the task's work are pinned (see README): the
    # networks are generated at network_seed, and config_seed replaces the
    # run's seed in the config
    network_seed: int = None
    config_seed: int = None
    # iteration span and its container (see tracing.iteration_times)
    iteration: tuple = ("cli.run_config", None)
    invariants: callable = field(default=None, repr=False)

    @property
    def members(self) -> int:
        return self.size["members"]

    def configs(self, seed: int, outdir: Path, smoke: bool = False):
        """[(label, config dict)] for one task, in call order."""
        from kuracomp.cli import apply_overrides
        from kuracomp.presets import build_network, get_preset, \
            network_to_config

        out = []
        for label, preset, overrides in self.calls:
            cfg = get_preset(preset)
            extra = [o.replace("{out}", str(outdir)) for o in overrides]
            apply_overrides(cfg, extra + (self.smoke if smoke else []))
            if self.network_seed is not None and "network" in cfg:
                net = build_network(cfg["network"], self.network_seed)
                cfg["network"] = network_to_config(net)
            cfg["seed"] = int(seed if self.config_seed is None
                              else self.config_seed)
            cfg["output"] = str(outdir / label)
            out.append((label, cfg))
        return out


def _eco3_invariants(outdir):
    errors = []
    for label, want in (("fig3a", "red"), ("fig3b", "blue")):
        res = json.loads((outdir / label / "ensemble.json").read_text())
        if res["fractions"][want] < 0.8:
            errors.append(f"{label}: {want} fraction {res['fractions'][want]}"
                          " < 0.8")
        if sum(res["counts"].values()) != res["n_sim"]:
            errors.append(f"{label}: counts do not sum to n_sim")
    return errors


def _read_heatmap(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    xs = [float(v) for v in rows[0][1:]]
    ys = [float(r[0]) for r in rows[1:]]
    body = [[float(v) for v in r[1:]] for r in rows[1:]]
    return xs, ys, body


def _heatmap_invariants(outdir):
    """The 0.5 crossing of each phi row lies within one beta1 step of the
    analytic threshold r2 / (1 + sin(Delta*)/2) (acceptance criterion 3)."""
    from kuracomp import analysis
    from kuracomp.models import CentroidCoupling, ModelConfig, centroid_coeffs
    from kuracomp.presets import get_preset

    xs, ys, body = _read_heatmap(outdir / "heatmap" / "heatmap.csv")
    base = ModelConfig(**get_preset("simple-cs")["params"])
    step = xs[1] - xs[0]
    errors, rows = [], 0
    for phi, row in zip(ys, body):
        c = base.with_overrides(phi=phi)
        co = centroid_coeffs(c, CentroidCoupling.from_config(c), 1.0, 0.0)
        d1 = analysis.delta_star(co.C, co.S, c.mu)
        if d1 is None:
            continue
        threshold = c.r2 / (1 + 0.5 * math.sin(d1))
        if not xs[1] < threshold < xs[-2]:
            continue
        rows += 1
        above = [x for x, v in zip(xs, row) if v >= 0.5]
        if not above or abs(above[0] - 0.5 * step - threshold) > step:
            errors.append(f"phi={phi:.3g}: 0.5 crossing not within one step "
                          f"of beta1 threshold {threshold:.4g}")
    if rows == 0:
        errors.append("no heatmap row has its threshold inside the range")
    return errors


def _doe_invariants(outdir):
    errors = []
    with open(outdir / "doe" / "doe_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["iter"]) for r in rows] != list(range(40)):
        errors.append("doe log does not hold iterations 0..39")
    for r in rows:
        y, z = float(r["basin"]), float(r["objective"])
        if math.isfinite(y) and not (0.0 <= y <= 1.0 and 0.0 < z <= 1.0):
            errors.append(f"doe row {r['iter']}: basin {y} or objective {z}"
                          " out of range")
    with open(outdir / "glm" / "glm_coefficients.csv") as fh:
        terms = {r["term"]: r for r in csv.DictReader(fh)}
    if set(terms) != {"(Intercept)", "beta1", "mu"}:
        errors.append(f"glm terms {sorted(terms)}")
    elif not float(terms["beta1"]["Estimate"]) > 0:
        errors.append("glm: Blue success does not rise with beta1")
    return errors


_FP_CLASSES = {"stable", "unstable", "nonhyperbolic"}
_ATTRACTORS = {"extinction", "fixed-point", "limit-cycle", "irregular"}


def _sweep_invariants(outdir):
    errors = []
    with open(outdir / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        allowed = _ATTRACTORS if r["fp_label"] == "traj" else _FP_CLASSES
        if r["class"] not in allowed:
            errors.append(f"sweep {r['param']} {r['fp_label']}: class "
                          f"{r['class']!r} unclassified")
    if sum(r["fp_label"] == "traj" for r in rows) != 101:
        errors.append("sweep does not hold one trajectory row per point")
    return errors


WORKLOADS = {w.name: w for w in [
    Workload(
        name="scenario-eco3",
        why="full networked eco3 RHS and the phase layer at B=20: "
            "reconnaissance then competition on fig3a and fig3b",
        calls=[(p, p, ["task.type=simulate", "task.n_sim=20"])
               for p in ("fig3a", "fig3b")],
        size={"members": 40, "rk4_steps_recon": 5000,
              "rk4_steps_max": 10000, "nodes": 63},
        smoke=["task.n_sim=3", "solver.recon_T=2", "solver.t_end=2"],
        artifacts={p: [("ensemble.json", "bytes")] for p in ("fig3a", "fig3b")},
        seed_dependent=True,
        network_seed=42,
        invariants=_eco3_invariants),
    Workload(
        name="heatmap-reduced",
        why="reduced RHS and centroid_coeffs at B~1e4, batch compaction and "
            "event bisection; no phase layer",
        calls=[("heatmap", "simple-cs", [
            "task.type=heatmap", "task.x_param=beta1",
            "task.x_range=[1.2,4.2]", "task.x_points=11",
            "task.y_param=phi", "task.y_range=[-0.8,0.8]",
            "task.y_points=11", "task.grid=[9,9]", "solver.dt_init=0.02"])],
        size={"members": 9801, "rk4_steps_max": 10000},
        smoke=["task.x_points=3", "task.y_points=3", "task.grid=[3,3]",
               "solver.t_end=4"],
        artifacts={"heatmap": [("heatmap.csv", "bytes")]},
        seed_dependent=False,
        invariants=_heatmap_invariants),
    Workload(
        name="doe-glm",
        why="40 short basin estimates at B<=25 where per-call cost rules, "
            "plus GP acquisition and the GLM; the only doe/stats workload",
        calls=[("doe", "simple-cs", [
            "task.type=doe", _DOE_FACTORS, "task.k_init=20",
            "task.n_total=40", "task.grid=[5,5]", "solver.dt_init=0.02",
            "solver.t_end=100"]),
            ("glm", "simple-cs", ["task.type=glm",
                                  "task.input={out}/doe/doe_log.csv"])],
        size={"members": 1000, "evaluations": 40, "rk4_steps_max": 5000},
        smoke=["task.k_init=4", "task.n_total=6", "task.grid=[2,2]",
               "solver.t_end=4", "task.n_repeats=2"],
        artifacts={"doe": [("doe_log.csv", "bytes")],
                   "glm": [("glm_coefficients.csv", "bytes")]},
        seed_dependent=False,
        config_seed=0,
        iteration=("basin.estimate", "doe.run"),
        invariants=_doe_invariants),
    Workload(
        name="sweep-rk45",
        why="adaptive Dormand-Prince at B=1 (step control, event location) "
            "and the fixed-point analysis; the only RK45 workload",
        calls=[("sweep", "eco2-supp", [
            "task.type=sweep", "task.param=beta1", "task.range=[2,10]",
            "task.n_points=101"])],
        size={"members": 101, "rk45_accepted_steps": 26657},
        smoke=["task.n_points=3", "solver.t_end=5"],
        artifacts={"sweep": [("sweep.csv", "rk45")]},
        seed_dependent=False,
        iteration=("analysis.fixed_points", "analysis.sweep"),
        invariants=_sweep_invariants),
]}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _numbers_agree(a: str, b: str, tol: float = 1e-12) -> bool:
    """Equal text, or numbers within tol plus one unit in the last printed
    (12th significant) digit."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= tol + 1e-11 * max(abs(x), abs(y))


def _compare_rk45(path, ref):
    got = Path(path).read_text().splitlines()
    want = Path(ref).read_text().splitlines()
    if len(got) != len(want):
        return [f"{Path(path).name}: {len(got)} lines, reference {len(want)}"]
    for n, (g, w) in enumerate(zip(got, want)):
        gs, ws = g.split(","), w.split(",")
        if len(gs) != len(ws) or not all(map(_numbers_agree, gs, ws)):
            return [f"{Path(path).name} line {n + 1}: {g!r} != {w!r}"]
    return []


def check_task(workload: Workload, seed: int, outdir: Path, refdir: Path,
               smoke: bool = False) -> list:
    """Mismatches of one task's artifacts; an empty list means correct.

    The reference applies when the artifacts do not depend on the seed or
    the seed is the one it was recorded at.  The invariants are stated for
    the full sizes, so smoke runs skip them.
    """
    errors = []
    meta = json.loads((refdir / "reference.json").read_text())
    if meta["smoke"] != smoke:
        return [f"reference in {refdir} is for another size"]
    if not workload.seed_dependent or seed == meta["seed"]:
        for label, files in workload.artifacts.items():
            for name, kind in files:
                got, ref = outdir / label / name, refdir / label / name
                if not got.exists():
                    errors.append(f"{label}/{name} missing")
                elif kind == "rk45":
                    errors.extend(_compare_rk45(got, ref))
                elif got.read_bytes() != ref.read_bytes():
                    errors.append(f"{label}/{name} differs from reference")
    if not smoke and not errors:
        errors.extend(workload.invariants(outdir))
    return errors


def record_reference(workload: Workload, seed: int, outdir: Path,
                     refdir: Path, smoke: bool = False):
    """Copy a task's compared artifacts into ``refdir``."""
    for label, files in workload.artifacts.items():
        (refdir / label).mkdir(parents=True, exist_ok=True)
        for name, _ in files:
            (refdir / label / name).write_bytes(
                (outdir / label / name).read_bytes())
    (refdir / "reference.json").write_text(
        json.dumps({"seed": seed, "smoke": smoke}) + "\n")
