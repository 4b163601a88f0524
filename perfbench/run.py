"""kuracomp benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``.  Run from the
repository root (the program is imported from ``src/``).  A closed loop
with one client: one workload process runs tasks back to back with the BLAS
thread count pinned to ``BLAS_THREADS``.  Set-up is timed separately in
``SETUP_SAMPLES`` fresh processes (the workload process is the last one).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around the calls into each module, plus the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result with
sample counts and provenance goes to ``perfbench/out/``.  The exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0

# printed and stored, but not gated in BENCHMARK.json (see README.md)
REPORT_UNITS = {"members_per_s": "1/s", "iter_s_p50": "s", "iter_s_p75": "s",
                "failed_frac": "ratio", "mismatch_frac": "ratio"}


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _quantile(values, q):
    """Linear-interpolation quantile (numpy's default) of a sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def _worker(args, extra, env, deadline):
    """Start a workload process; return (setup seconds, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(args.out), "--refdir", str(args.refdir)] + extra
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    line = proc.stdout.readline()
    if not line.startswith("READY "):
        _finish(proc, deadline)
        raise RuntimeError(f"workload process failed during set-up "
                           f"(exit {proc.returncode})")
    return float(line.split()[1]) - t0, proc


def _finish(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran out of time")
    return proc.returncode


def run_workload(args, spec):
    """Run one workload; return (result dict, last-line summary)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    result_path = args.out / f"result-{stem}.json"
    result_path.unlink(missing_ok=True)

    setup = []
    if not args.record:
        for _ in range(SETUP_SAMPLES - 1):
            s, proc = _worker(args, ["--setup-only"], env, deadline)
            if _finish(proc, deadline) != 0:
                raise RuntimeError("set-up process failed")
            setup.append(s)
    s, proc = _worker(args, ["--result", str(result_path)]
                      + (["--record"] if args.record else []), env, deadline)
    setup.append(s)
    if _finish(proc, deadline) != 0 or not result_path.exists():
        raise RuntimeError(f"workload process exited {proc.returncode}")
    res = json.loads(result_path.read_text())

    tasks = res["task_s"]
    n_tasks = res["tasks"]
    e2e = {}
    if tasks:
        task_s = statistics.median(tasks)
        iters = res["iter_s"] or tasks
        e2e = {"setup_s": (statistics.median(setup), len(setup)),
               "task_s": (task_s, len(tasks)),
               "members_per_s": (res["size"]["members"] / task_s,
                                 len(tasks)),
               "iter_s_p50": (_quantile(iters, 0.5), len(iters)),
               "iter_s_p75": (_quantile(iters, 0.75), len(iters)),
               "peak_rss_mb": (res["peak_rss_mb"], 1)}
    e2e["failed_frac"] = (res["failed"] / max(res["attempted"], 1),
                          res["attempted"])
    e2e["mismatch_frac"] = (len(res["mismatches"]) / max(n_tasks, 1), n_tasks)
    units = dict(REPORT_UNITS, **{m["name"]: m["unit"]
                                  for m in spec["end_to_end"]})
    res["end_to_end"] = {k: {"value": v, "unit": units[k], "samples": n}
                         for k, (v, n) in e2e.items()}
    if res.get("layer") is not None:
        plain = statistics.mean(tasks) if tasks else float("nan")
        traced = statistics.mean(res["traced_task_s"])
        res["trace_overhead"] = {"traced_task_s": traced,
                                 "untraced_task_s": plain,
                                 "overhead_s": traced - plain,
                                 "overhead_frac": (traced - plain) / plain}
        res["layer"]["trace.overhead_frac"] = (traced - plain) / plain
        res["trace_self_sum_s"] = sum(
            own for _, own in res["self_s_by_span"].values())
    res["setup_samples_s"] = setup
    res["provenance"] = {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS, "git_sha": _git_sha(),
        "seed": args.seed, "python": res["versions"]["python"],
        "numpy": res["versions"]["numpy"], "scipy": res["versions"]["scipy"],
        "blas": res["versions"]["blas"], "size": res["size"]}
    result_path.write_text(json.dumps(res, indent=1))

    correct = not res["mismatches"] and bool(tasks or res["traced_task_s"])
    if args.trace:
        values = res.get("layer", {})
        wanted = spec["per_layer"]
    else:
        values = {k: v["value"] for k, v in res["end_to_end"].items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    summary = {"correct": correct, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    return res, summary


def _report(res, summary):
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"tasks {res['tasks']}  size {res['size']}")
    for k, v in res["end_to_end"].items():
        print(f"  {k:<16} {v['value']:>14.6g} {v['unit']:<6} n={v['samples']}")
    if "trace_overhead" in res:
        o = res["trace_overhead"]
        print(f"  tracing overhead {o['overhead_s']:+.4g} s "
              f"({100 * o['overhead_frac']:+.2f}%) on task_s "
              f"{o['untraced_task_s']:.4g} s; self times sum to "
              f"{res['trace_self_sum_s']:.4g} s of traced task_s "
              f"{o['traced_task_s']:.4g} s; nesting errors "
              f"{res['nesting_errors']}")
        for k, v in summary["metrics"].items():
            print(f"  {k:<32} {v['value']:>14.6g} {v['unit']}")
    for m in res["mismatches"]:
        print(f"  MISMATCH task {m['task']}: {'; '.join(m['problems'])}")
    for e in res["errors"]:
        print(e, file=sys.stderr)
    if res["missing_sites"]:
        print(f"  sites not found: {', '.join(res['missing_sites'])}")
    print(f"  provenance {json.dumps(res['provenance'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--refdir", type=Path, default=HERE / "reference",
                    help="directory holding <workload>/ reference artifacts")
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every task (self-tests)")
    ap.add_argument("--record", action="store_true",
                    help="run one task and store its artifacts as reference")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kuracomp" / "__init__.py").is_file():
        print(f"error: no kuracomp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    refroot = args.refdir
    summaries, results = {}, {}
    for name in names:
        args.workload, args.refdir = name, refroot / name
        try:
            res, summary = run_workload(args, spec)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _report(res, summary)
        summaries[name], results[name] = summary, res
    if len(names) == 1:
        print(json.dumps(summary))
    else:
        path = args.out / f"bench-s{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(results, indent=1))
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}/{k}": v for n, s in summaries.items()
                        for k, v in s["metrics"].items()}}))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
