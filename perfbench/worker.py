"""One workload process: set up, then run tasks back to back.

Started by ``run.py``; prints ``READY <monotonic time>`` once set-up is
done (imports, config generation and validation, network and system
build), so the parent can time set-up from its own spawn time.  With
``--setup-only`` it exits there.  Otherwise it runs tasks through
``kuracomp.cli.run_config`` for ``--seconds`` (at least one task; no task
is started that would, at the median task time so far, end later), checks
every task's artifacts, and writes a JSON result to ``--result``.

With ``--trace 1`` tasks alternate untraced and traced (first untraced),
so one run gives both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _set_up(workload, seed, outdir, smoke):
    """Generate, validate and build every config of one task; return the
    configs."""
    from kuracomp import cli
    from kuracomp.models import ModelConfig, build_system
    from kuracomp.presets import build_network

    configs = workload.configs(seed, outdir, smoke)
    for _, cfg in configs:
        cfg = cli.validate_config(copy.deepcopy(cfg))
        params = ModelConfig(**cfg.get("params", {})).validate()
        net = None
        if "network" in cfg:
            section = dict(cfg["network"])
            for name in ("mu", "nu", "phi", "psi"):
                section.setdefault(name, getattr(params, name))
            net = build_network(section, cfg["seed"])
        build_system(cfg["model"], params, net=net)
    return configs


def _versions():
    import numpy as np
    import scipy

    import kuracomp

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "kuracomp": kuracomp.__version__,
            "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--refdir", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="run one task and store its artifacts as reference")
    args = ap.parse_args(argv)

    from kuracomp import cli
    from tracing import (DETAIL_SITES, LIGHT_SITES, Tracer, failed_members,
                         installed, iteration_times, layer_metrics,
                         nesting_errors, self_time_by_name)
    from workloads import WORKLOADS, check_task, record_reference

    wl = WORKLOADS[args.workload]
    outdir = args.out / f"{wl.name}-s{args.seed}"
    template = _set_up(wl, args.seed, outdir, args.smoke)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    tracer.install(LIGHT_SITES)
    plain, traced, mismatches, errors = [], [], [], []
    task_time, raised = {}, set()
    deadline = time.monotonic() + args.seconds
    k = 0
    while True:
        detail = args.trace == 1 and k % 2 == 1
        tracer.task_id = k
        configs = copy.deepcopy(template)
        try:
            with installed(tracer, DETAIL_SITES if detail else []):
                with tracer.span("task") as span:
                    for _, cfg in configs:
                        cli.run_config(cfg)
                task_time[k] = tracer.end[span] - tracer.start[span]
            if args.record:
                record_reference(wl, args.seed, outdir, args.refdir,
                                 args.smoke)
            problems = check_task(wl, args.seed, outdir, args.refdir,
                                  args.smoke)
        except Exception:                 # a failed task is a result
            raised.add(k)
            errors.append(traceback.format_exc())
            problems = ["task raised: " + errors[-1].strip().splitlines()[-1]]
        (traced if detail else plain).append(k)
        if problems:
            mismatches.append({"task": k, "problems": problems})
        k += 1
        # stop after a task that raised, or before one that would end past
        # the deadline
        if args.record or raised or (time.monotonic() + statistics.median(
                list(task_time.values()) or [0.0]) > deadline
                and (args.trace == 0 or traced)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [t for t in plain if t not in raised]
    traced = [t for t in traced if t not in raised]
    members, failed = failed_members(tracer, set(plain + traced))
    attempted = wl.members * k
    failed = min(attempted, failed + wl.members * len(raised))
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "size": wl.size, "tasks": k,
        "task_s": [task_time[t] for t in plain],
        "traced_task_s": [task_time[t] for t in traced],
        "iter_s": iteration_times(tracer, *wl.iteration, tasks=plain),
        "attempted": attempted, "failed": failed,
        "batch_members_seen": members,
        "mismatches": mismatches, "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "missing_sites": tracer.missing,
        "versions": _versions(),
        "spans": len(tracer),
    }
    if traced:
        result["layer"] = layer_metrics(tracer, traced)
        result["self_s_by_span"] = self_time_by_name(tracer, traced)
        result["nesting_errors"] = len(nesting_errors(tracer.columns()))
    outdir.mkdir(parents=True, exist_ok=True)
    tracer.save(outdir / f"spans-trace{args.trace}.npz")
    if args.result:
        args.result.write_text(json.dumps(result, indent=1))
    tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
