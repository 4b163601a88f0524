"""Spans around calls into kuracomp's public functions.

A span is (name, parent, task, start, end, count).  Spans live in flat
``array`` columns, about 34 bytes each, so a traced eco3 task with several
hundred thousand right-hand-side calls stays small; rarer spans may carry an
``attrs`` dict (batch outcomes, RK45 step counts, GLM iterations).  Nothing
is written until the run ends.

Functions are wrapped at the names their callers look them up by: a module
that did ``from .phase import kuramoto_rhs`` calls ``models.kuramoto_rhs``,
and the model registry holds the right-hand sides that ``build_system`` and
the reduced heatmap call.  A site the program no longer has is skipped and
listed in ``Tracer.missing``.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _batch_members(args, kwargs):
    y = args[0]
    return y.shape[1] if y.ndim == 2 else 1


def _batch_outcome(out, args, kwargs):
    w = out.winner
    return {"members": int(w.size), "event": int(((w == 1) | (w == 2)).sum()),
            "stalemate": int((w == 0).sum()), "failed": int((w == -1).sum())}


def _rk45_steps(out, args, kwargs):
    settings = args[2]
    t = out.t
    steps = t[1:-1] - t[:-2] if t.size > 2 else t[1:] - t[:-1]
    return {"method": settings.method, "accepted": int(t.size - 1),
            "stopped": out.status == "event",
            "min_h": float(steps.min()) if steps.size else float("nan")}


def _glm_iters(out, args, kwargs):
    return {"n_iter": int(out.n_iter)}


def _doe_failed(out, args, kwargs):
    return {"failed": sum(1 for r in out if r.failed), "records": len(out)}


# (span name, module, attribute, count hook, result hook).  An attribute
# written "_FULL[]" is a registry dict whose entries are (fn, ...) tuples.
LIGHT_SITES = [
    ("cli.run_config", "kuracomp.cli", "run_config", None, None),
    ("basin.estimate", "kuracomp.basin", "estimate_basin", None, None),
    ("solver.batch", "kuracomp.solver", "integrate_batch", None, _batch_outcome),
    ("solver.batch", "kuracomp.basin", "integrate_batch", None, _batch_outcome),
    ("analysis.fixed_points", "kuracomp.analysis", "simple_fixed_points", None, None),
    ("analysis.fixed_points", "kuracomp.analysis", "eco2_fixed_points", None, None),
    ("analysis.sweep", "kuracomp.analysis", "sweep_bifurcation", None, None),
    ("doe.run", "kuracomp.doe", "run_doe", None, _doe_failed),
]

# Sites wrapped only in traced tasks.
DETAIL_SITES = [
    ("phase.kuramoto", "kuracomp.models", "kuramoto_rhs", None, None),
    ("phase.centroid", "kuracomp.models", "circular_centroid", None, None),
    ("phase.order", "kuracomp.models", "order_parameter", None, None),
    ("models.rhs", "kuracomp.models", "_FULL[]", _batch_members, None),
    ("models.rhs", "kuracomp.models", "_REDUCED[]", _batch_members, None),
    ("models.rhs", "kuracomp.models", "eco3_reduced_rhs", _batch_members, None),
    ("models.rhs", "kuracomp.analysis", "simple_reduced_rhs", _batch_members, None),
    ("models.rhs", "kuracomp.analysis", "eco2_reduced_rhs", _batch_members, None),
    ("models.centroid_coeffs", "kuracomp.models", "centroid_coeffs", None, None),
    ("models.centroid_coeffs", "kuracomp.basin", "centroid_coeffs", None, None),
    ("models.centroid_coeffs", "kuracomp.analysis", "centroid_coeffs", None, None),
    ("models.build_system", "kuracomp.cli", "build_system", None, None),
    ("models.build_system", "kuracomp.basin", "build_system", None, None),
    ("models.build_system", "kuracomp.analysis", "build_system", None, None),
    ("solver.ensemble", "kuracomp.cli", "ensemble", None, None),
    ("solver.integrate", "kuracomp.solver", "integrate", None, _rk45_steps),
    ("solver.scenario", "kuracomp.cli", "run_scenario", None, None),
    ("solver.scenario", "kuracomp.analysis", "run_scenario", None, None),
    ("basin.heatmap", "kuracomp.basin", "basin_heatmap", None, None),
    ("doe.acquire", "kuracomp.doe", "bo_step", None, None),
    ("doe.gp_fit", "kuracomp.doe", "GaussianProcess.fit_hyperparameters", None, None),
    ("doe.objective", "kuracomp.doe", "objective", None, None),
    ("stats.fit", "kuracomp.stats", "fit_quasibinomial", None, _glm_iters),
    ("stats.anova", "kuracomp.stats", "deviance_anova", None, None),
    ("stats.permutation", "kuracomp.stats", "permutation_importance", None, None),
    ("presets.build_network", "kuracomp.cli", "build_network", None, None),
    ("cli.validate", "kuracomp.cli", "validate_config", None, None),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.task = array("H")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.attrs = {}
        self.missing = []
        self.task_id = 0
        self._stack = [-1]
        self._undo = []

    def __len__(self):
        return len(self.start)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, count):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self.task_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(count)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        i = self._open(self._id(name), 0.0)
        self.start[i] = perf_counter()
        try:
            yield i
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None, result=None):
        nid = self._id(name)
        open_, stack, start, end = self._open, self._stack, self.start, self.end

        def traced(*args, **kwargs):
            i = open_(nid, count(args, kwargs) if count else 0.0)
            start[i] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = perf_counter()
                stack.pop()
                self.attrs.setdefault(i, {})["error"] = type(exc).__name__
                raise
            end[i] = perf_counter()
            stack.pop()
            if result is not None:
                self.attrs[i] = result(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, sites):
        for name, module, attr, count, result in sites:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if leaf.endswith("[]"):
                    self._wrap_registry(name, getattr(owner, leaf[:-2]),
                                        count, result)
                    continue
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, original, count, result))
            self._undo.append(lambda o=owner, a=leaf, f=original:
                              setattr(o, a, f))

    def _wrap_registry(self, name, registry, count, result):
        for key, entry in list(registry.items()):
            registry[key] = (self.wrap(name, entry[0], count, result),) \
                + tuple(entry[1:])
            self._undo.append(lambda r=registry, k=key, e=entry:
                              r.__setitem__(k, e))

    def uninstall(self, keep: int = 0):
        """Restore every site wrapped after the first ``keep`` ones."""
        while len(self._undo) > keep:
            self._undo.pop()()

    def columns(self):
        """The span store as numpy arrays (views, no copy; record no more
        spans while they are alive)."""
        return {"name": np.frombuffer(self.name_id, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "task": np.frombuffer(self.task, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "count": np.frombuffer(self.count, dtype=float)}

    def save(self, path):
        """Write every span (npz columns plus names and attrs as JSON)."""
        cols = self.columns()
        np.savez_compressed(
            path, **cols,
            names=np.array(json.dumps(self.names)),
            attrs=np.array(json.dumps({str(k): v
                                       for k, v in self.attrs.items()})))


@contextmanager
def installed(tracer, sites):
    """Wrap ``sites`` for the duration of the block."""
    keep = len(tracer._undo)
    tracer.install(sites)
    try:
        yield tracer
    finally:
        tracer.uninstall(keep)


# ---------------------------------------------------------------------------
# metrics derived from the spans
# ---------------------------------------------------------------------------

def self_times(cols):
    """Span duration minus the time its child spans cover.

    Spans nest (one thread, children open and close inside their parent),
    so the covered time is the sum of the children's durations.
    """
    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    covered = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur, dur - covered


def nesting_errors(cols, tol=1e-9):
    """Indices of spans that are not inside their parent or have self < 0."""
    dur, own = self_times(cols)
    idx = np.nonzero(cols["parent"] >= 0)[0]
    p = cols["parent"][idx]
    outside = (cols["start"][idx] < cols["start"][p] - tol) | \
              (cols["end"][idx] > cols["end"][p] + tol)
    bad = set(idx[outside].tolist())
    bad.update(np.nonzero(own < -tol)[0].tolist())
    bad.update(np.nonzero(dur < 0)[0].tolist())
    return sorted(bad)


def iteration_times(tracer, name, container=None, tasks=None):
    """Durations of successive iterations.

    Without a container, each ``name`` span is one iteration.  With one,
    an iteration runs from the start of one ``name`` child of the container
    to the start of the next, and the last ends with the container.
    """
    cols = tracer.columns()
    ids = tracer._ids
    if name not in ids:
        return []
    keep = np.ones(cols["start"].size, dtype=bool) if tasks is None \
        else np.isin(cols["task"], list(tasks))
    it = np.nonzero((cols["name"] == ids[name]) & keep)[0]
    if container is None:
        return (cols["end"][it] - cols["start"][it]).tolist()
    out = []
    for c in np.unique(cols["parent"][it]):
        starts = np.sort(cols["start"][it[cols["parent"][it] == c]])
        bounds = np.append(starts, cols["end"][c] if c >= 0 else starts[-1])
        out.extend(np.diff(bounds).tolist())
    return out


def failed_members(tracer, tasks):
    """(members run, members failed) read from batch outcomes.

    A basin estimate that raised discards every member of its batch, so
    those count as failed too.
    """
    cols = tracer.columns()
    names = tracer.names
    members = failed = 0
    for i, a in tracer.attrs.items():
        if cols["task"][i] not in tasks:
            continue
        if "members" in a and names[cols["name"][i]] == "solver.batch":
            members += a["members"]
            failed += a["failed"]
            p = cols["parent"][i]
            if p >= 0 and tracer.attrs.get(p, {}).get("error") \
                    and names[cols["name"][p]] == "basin.estimate":
                failed += a["members"] - a["failed"]
    return members, failed


def layer_metrics(tracer, tasks):
    """Every per-layer metric, per traced task (sums divided by the number
    of tasks; ``solver.rk45_min_h`` is the minimum)."""
    cols = tracer.columns()
    dur, own = self_times(cols)
    in_tasks = np.isin(cols["task"], list(tasks))
    ids = tracer._ids
    names = np.array(tracer.names + [""])
    parent_name = np.where(cols["parent"] >= 0,
                           cols["name"][cols["parent"]], len(tracer.names))
    parent_name = names[parent_name]

    def sel(name):
        return in_tasks & (cols["name"] == ids.get(name, -1))

    def attrs(mask):
        return [tracer.attrs.get(i, {}) for i in np.nonzero(mask)[0]]

    kur, rhs = sel("phase.kuramoto"), sel("models.rhs")
    integ = sel("solver.integrate")
    rk45 = np.zeros_like(integ)
    rk45_idx = [i for i in np.nonzero(integ)[0]
                if tracer.attrs.get(i, {}).get("method") == "rk45"]
    rk45[rk45_idx] = True
    rk45_attrs = attrs(rk45)
    rk45_evals = int((rhs & np.isin(cols["parent"], rk45_idx)).sum())
    accepted = sum(a["accepted"] for a in rk45_attrs)
    attempted = (rk45_evals - len(rk45_attrs)
                 - sum(a["stopped"] for a in rk45_attrs)) / 6.0
    batch_attrs = attrs(sel("solver.batch"))
    est = sel("basin.estimate")
    doe_evals = est & (parent_name == "doe.run")
    fits = sel("stats.fit")
    rhs_time = dur[rhs].sum()
    total = {
        "phase.kuramoto_calls": kur.sum(),
        "phase.kuramoto_s": own[kur].sum(),
        "phase.kuramoto_recon_s": own[kur & (parent_name != "models.rhs")].sum(),
        "phase.centroid_calls": sel("phase.centroid").sum(),
        "phase.centroid_s": own[sel("phase.centroid")].sum(),
        "phase.order_calls": sel("phase.order").sum(),
        "phase.order_s": own[sel("phase.order")].sum(),
        "models.build_system_s": dur[sel("models.build_system")].sum(),
        "models.rhs_calls": rhs.sum(),
        "models.rhs_members": cols["count"][rhs].sum(),
        "models.rhs_self_s": own[rhs].sum(),
        "models.centroid_coeffs_calls": sel("models.centroid_coeffs").sum(),
        "models.centroid_coeffs_s": own[sel("models.centroid_coeffs")].sum(),
        "solver.batch_calls": sel("solver.batch").sum(),
        "solver.batch_self_s": own[sel("solver.batch")].sum(),
        "solver.ensemble_self_s": own[sel("solver.ensemble")].sum(),
        "solver.members_event": sum(a["event"] for a in batch_attrs),
        "solver.members_stalemate": sum(a["stalemate"] for a in batch_attrs),
        "solver.members_failed": sum(a["failed"] for a in batch_attrs),
        "solver.rk45_calls": rk45.sum(),
        "solver.rk45_accepted": accepted,
        "solver.rk45_rejected": attempted - accepted,
        "solver.rk45_rhs_evals": rk45_evals,
        "solver.rk45_self_s": own[rk45].sum(),
        "basin.estimate_calls": est.sum(),
        "basin.estimate_self_s": own[est].sum(),
        "basin.heatmap_self_s": own[sel("basin.heatmap")].sum(),
        "analysis.fixed_points_calls": sel("analysis.fixed_points").sum(),
        "analysis.fixed_points_s": dur[sel("analysis.fixed_points")].sum(),
        "analysis.sweep_self_s": own[sel("analysis.sweep")].sum(),
        "doe.evals": doe_evals.sum(),
        "doe.eval_s": dur[doe_evals].sum(),
        "doe.acquire_calls": sel("doe.acquire").sum(),
        "doe.acquire_s": dur[sel("doe.acquire")].sum(),
        "doe.gp_fit_calls": sel("doe.gp_fit").sum(),
        "doe.gp_fit_s": dur[sel("doe.gp_fit")].sum(),
        "doe.objective_s": dur[sel("doe.objective")].sum(),
        "doe.failed_evals": sum(a.get("failed", 0)
                                for a in attrs(sel("doe.run"))),
        "stats.fit_s": dur[fits & (parent_name != "stats.anova")].sum(),
        "stats.irls_iters": sum(a.get("n_iter", 0) for a in attrs(fits)),
        "stats.anova_s": dur[sel("stats.anova")].sum(),
        "stats.permutation_s": dur[sel("stats.permutation")].sum(),
        "presets.build_network_s": dur[sel("presets.build_network")].sum(),
        "cli.validate_s": dur[sel("cli.validate")].sum(),
        "cli.self_s": own[sel("cli.run_config")].sum(),
    }
    total["trace.spans"] = in_tasks.sum()
    n = max(len(tasks), 1)
    out = {k: float(v) / n for k, v in total.items()}
    out["models.rhs_members_per_s"] = (
        float(total["models.rhs_members"]) / rhs_time if rhs_time > 0 else 0.0)
    hs = [a["min_h"] for a in rk45_attrs]
    out["solver.rk45_min_h"] = float(min(hs)) if hs else 0.0
    return out


def self_time_by_name(tracer, tasks):
    """{span name: (calls, self seconds)} per task, for the whole tree."""
    cols = tracer.columns()
    _, own = self_times(cols)
    in_tasks = np.isin(cols["task"], list(tasks))
    n = max(len(tasks), 1)
    out = {}
    for nid, name in enumerate(tracer.names):
        m = in_tasks & (cols["name"] == nid)
        if m.any():
            out[name] = (int(m.sum()) / n, float(own[m].sum()) / n)
    return out
