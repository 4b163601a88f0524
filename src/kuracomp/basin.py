"""Basin-of-attraction estimation for Blue success over initial conditions.

A basin value is the fraction of an initial-condition grid (cell centres
over the admissible resource box) whose trajectories end with Red below the
extinction threshold first (Menck et al., Nature Physics 9 (2013) 89).

One engine computes it for a batch of parameter points: each (point,
initial cell, member) triple is one member of a single batch integration.
Every basin starts after reconnaissance, so no dependence on the initial
decision state remains: a full variant's members start from n_sim random
phase configurations settled by reconnaissance, and a reduced variant's one
member per cell starts from the settled free centroid difference Delta*
(its reduced form, settled by the run's settings).  A cell's value is its
members' Blue-win fraction and a point's value the mean over cells.

Failures are reported per point: a point with more than 1% failed members
gets value NaN and its failure count, and the other points of the batch
are unaffected.  ``estimate_basins`` returns such results as they are (the
DOE flags the NaN point's record); ``estimate_basin`` and ``basin_heatmap``
raise ``RuntimeError`` at the first such point.  Win counts are integers,
so results are independent of evaluation order; a heatmap entry equals
``estimate_basin`` at its parameter pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

import numpy as np

from .analysis import delta_star
from .models import (_REDUCED, _member_rhs, _take, build_system,
                     centroid_coeffs, model_params, resource_scale)
from .solver import (IntegratorSettings, _settle, integrate_batch,
                     reconnoitred_phases)

__all__ = ["BasinSpec", "BasinResult", "estimate_basin", "estimate_basins",
           "basin_heatmap", "heatmap_to_csv"]

SETTLE_T = 50.0          # free three-population centroid settling time
MAX_FAILED = 0.01        # failed-member share above which a point is NaN


@dataclass
class BasinSpec:
    """Initial-condition grid and ensemble size for basin estimation.

    The start follows from the variant: a full variant runs n_sim random
    initial phase configurations per cell, reconnoitred for
    ``settings.recon_T``; a reduced variant runs one member per cell from
    the settled free centroid difference, and reads no n_sim.
    """

    grid: tuple = (51, 51)          # resolution over (P1(0), P2(0))
    p3_init: float = None           # fixed P3(0); default half its scale
    n_sim: int = 100                # ensemble members per cell (full variants)
    seed: int = 0
    settings: IntegratorSettings = field(
        default_factory=lambda: IntegratorSettings(t_end=200.0))

    def __post_init__(self):
        if any(r < 1 for r in self.grid):
            raise ValueError("grid resolutions must be >= 1")
        if self.p3_init is not None and not np.isfinite(self.p3_init):
            raise ValueError("p3_init must be finite")


@dataclass
class BasinResult:
    value: float
    per_cell: np.ndarray
    n_evaluated: int
    n_failed: int


def _cell_centres(resolution, hi):
    """Cell centres over [0, hi]; hi may hold one value per point."""
    edges = np.linspace(0.0, hi, resolution + 1, axis=-1)
    return 0.5 * (edges[..., :-1] + edges[..., 1:])


def _settled_delta(system, cfg, settings, n_points):
    """Free-dynamics (H = 1) settled centroid difference(s) per point,
    shape (n_delta, n_points); 0 where no fixed point exists.

    Three populations have no closed form: the free centroid subsystem
    (resources pinned at zero) runs SETTLE_T by ``settings`` from Delta = 0;
    a point whose settling failed gets NaN, so its members count as failed.
    """
    if system.n_pops == 3:
        rhs, on_compact = _member_rhs("eco3-reduced", cfg, system.coupling)
        return _settle(rhs, np.zeros((5, n_points)), settings, SETTLE_T,
                       on_compact)[3:]
    co = centroid_coeffs(cfg, system.coupling, 1.0, 1.0)
    d = np.broadcast_to(delta_star(co.C, co.S, cfg.mu), (n_points,))
    return np.where(np.isnan(d), 0.0, d)[None, :]


def _basins(model, cfg, spec, n_points=1, net=None, coupling=None):
    """The basin engine: one BasinResult per parameter point.

    Fields of ``cfg`` and ``coupling`` hold a scalar or one value per
    point.  Every (point, initial cell, member) triple is one member of a
    single batch integration; a member starts from reconnoitred phases
    (full variants) or Delta* (reduced ones).  A point with more than 1%
    failed members gets value NaN.
    """
    system = build_system(model, cfg, net=net, coupling=coupling)

    r1, r2 = spec.grid
    n_cells = r1 * r2
    caps = resource_scale(system)
    p1c, p2c = (np.broadcast_to(_cell_centres(r, k), (n_points, r))
                for r, k in zip(spec.grid, caps))
    rows = [np.repeat(p1c, r2, axis=1)[:, :, None],
            np.tile(p2c, r1)[:, :, None]]             # (points, cells, 1)
    if system.n_pops == 3:
        p3 = spec.p3_init if spec.p3_init is not None else 0.5 * caps[2]
        rows.append(np.reshape(p3, (-1, 1, 1)))

    settings = spec.settings
    if system.reduced:
        start = _settled_delta(system, cfg, settings, n_points)[..., None, None]
    else:
        start = reconnoitred_phases(system, spec.n_sim, spec.seed, settings)
        start = start[:, None, None, :]               # (nodes, 1, 1, members)
    n_mem = start.shape[-1]
    shape = (n_points, n_cells, n_mem)
    y0 = np.stack([np.broadcast_to(r, shape).ravel()
                   for r in rows + list(start)])

    # per-point parameters spread over the point's members, then sliced
    # in lockstep as decided members leave the batch
    rhs, on_compact, p_death = system.rhs, None, cfg.P_D
    if system.reduced:
        point_of = np.repeat(np.arange(n_points), n_cells * n_mem)
        members = _take(cfg, point_of)
        rhs, on_compact = _member_rhs(model, members,
                                      _take(system.coupling, point_of))
        p_death = members.P_D

    out = integrate_batch(rhs, y0, settings, p_death, on_compact=on_compact)

    winner = out.winner.reshape(shape)
    ok = winner >= 0
    valid = ok.sum(axis=2)
    per_cell = np.where(valid > 0,
                        (winner == 1).sum(axis=2) / np.maximum(valid, 1),
                        np.nan)
    n_failed = (~ok).sum(axis=(1, 2))
    n_eval = n_cells * n_mem
    return [BasinResult(value=(np.nan if n_failed[i] > MAX_FAILED * n_eval
                               else float(np.nanmean(per_cell[i]))),
                        per_cell=per_cell[i].reshape(spec.grid),
                        n_evaluated=n_eval, n_failed=int(n_failed[i]))
            for i in range(n_points)]


def _raise_failed(results):
    """``results``, or RuntimeError at the first point whose failed members
    made its value NaN."""
    for i, r in enumerate(results):
        if np.isnan(r.value):
            raise RuntimeError(f"{r.n_failed}/{r.n_evaluated} integrations "
                               f"failed (> 1%) at parameter point {i}")
    return results


def estimate_basins(model: str, cfg, spec: BasinSpec, n_points: int,
                    net=None, coupling=None, jobs: int = 1) -> list:
    """One BasinResult per parameter point; a point with more than 1%
    failed members has value NaN.

    Fields of ``cfg`` hold a scalar or one value per point.  Reduced
    variants run as one engine call over every point; full variants run
    one engine call per point (each point reconnoitres at its own
    frustration), optionally across ``jobs`` processes.
    """
    if model in _REDUCED:
        return _basins(model, cfg, spec, n_points, net=net, coupling=coupling)
    swept = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)
             if np.ndim(getattr(cfg, f.name))]
    cfgs = [replace(cfg, **{name: float(v[i]) for name, v in swept})
            for i in range(n_points)]
    args = (repeat(model), cfgs, repeat(spec), repeat(1), repeat(net),
            repeat(coupling))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return [r for rs in pool.map(_basins, *args) for r in rs]
    return [r for rs in map(_basins, *args) for r in rs]


def estimate_basin(model: str, cfg, spec: BasinSpec, net=None,
                   coupling=None) -> BasinResult:
    """Blue-win fraction over the initial-condition grid.

    Reduced variants run one trajectory per cell from Delta*; full
    variants run an n_sim phase ensemble per cell.  Integration failures are excluded from the
    average when they are < 1% of the evaluations, otherwise a hard error
    is raised.
    """
    return _raise_failed(_basins(model, cfg, spec, net=net,
                                 coupling=coupling))[0]


def basin_heatmap(model: str, cfg, x_name: str, x_values, y_name: str,
                  y_values, spec: BasinSpec, net=None, coupling=None,
                  jobs: int = 1):
    """Basin value per (x, y) parameter pair; row index follows y.

    Each entry equals ``estimate_basin`` at its pair with the same ``net``
    and ``coupling``, and a pair with more than 1% failed members raises
    as it does; both names must be fields the variant reads.  The pairs go
    through ``estimate_basins``, so ``jobs`` only matters for full
    variants.
    """
    if x_name == y_name:
        raise ValueError("heatmap needs two distinct parameter names")
    model_params(model, (x_name, y_name), net=net, coupling=coupling)
    x_values = np.asarray(x_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    nx, ny = x_values.size, y_values.size
    swept = {x_name: np.tile(x_values, ny),            # row-major over (y, x)
             y_name: np.repeat(y_values, nx)}
    results = _raise_failed(estimate_basins(
        model, replace(cfg, **swept), spec, nx * ny, net=net,
        coupling=coupling, jobs=jobs))
    matrix = np.array([r.value for r in results]).reshape(ny, nx)
    return matrix, x_values, y_values


def heatmap_to_csv(matrix, x_values, y_values, path, meta: dict = None):
    """First row = x-axis values, first column = y-axis values, body =
    basin fractions; companion .json metadata next to the CSV."""
    with open(path, "w") as fh:
        fh.write("," + ",".join(f"{v:.12g}" for v in x_values) + "\n")
        for yv, row in zip(y_values, matrix):
            fh.write(f"{yv:.12g}," + ",".join(f"{v:.12g}" for v in row) + "\n")
    if meta is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
