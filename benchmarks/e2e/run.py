#!/usr/bin/env python3
"""End-to-end benchmark of the ReFloat reproduction.

Runs each workload in a fresh child process (``workloads.py``) with the
BLAS thread pools pinned to one thread, checks every output against the
golden files, and prints every metric by name with its unit, median and
quartiles over ``--runs``.  Times of CPU-bound work are divided by the
machine's slowdown, sampled alongside the child
(:class:`harness.SpeedSampler`).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1
when an output is wrong or a child fails, 2 when the program under test is
absent.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload refloat-default --runs 5
    python3 benchmarks/e2e/run.py --trace              # per-layer metrics
    python3 benchmarks/e2e/run.py --runs 10 --json parent.json

See README.md for the workloads, the metrics and how to compare two runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Before numpy loads: idle BLAS threads here would compete with the child.
os.environ.update(BLAS_PIN)

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
#: A child that outlives this is killed; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The caller's environment without ``REPRO_*`` settings, with the BLAS
    pin, the source tree on ``PYTHONPATH`` and temporary files kept in the
    work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(WORK)
    return env


def fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_pin": BLAS_PIN, "git_sha": sha}


def run_once(workload: harness.Workload, seed: int, seconds: float,
             trace: int, index: int) -> Dict[str, Any]:
    """One run of ``workload`` in a fresh child, with the machine's speed
    sampled alongside; returns its metrics and request counts."""
    with harness.SpeedSampler() as sampler:
        raw = run_child(workload.name, seed, seconds, trace, index)

    def metrics_of(record):
        return harness.end_to_end(record, sampler.slowdown,
                                  workload.timer_bound)

    out = {key: raw[key] for key in ("attempted", "failed", "notes")}
    if trace:
        base, traced = metrics_of(raw["untraced"]), metrics_of(raw["traced"])
        ratio = (base["throughput_rps"] / traced["throughput_rps"]
                 if workload.timer_bound else
                 traced["wall_s"] / base["wall_s"])
        layers = dict(raw["layers"], **{"trace.overhead_pct":
                                        100.0 * (ratio - 1.0)})
        out["metrics"] = {m.name: layers.get(m.name, 0.0)
                          for m in harness.PER_LAYER}
        out["trace_file"] = raw["trace_file"]
        return out
    passes = raw["passes"]
    samples = sum(len(p["latencies_s"]) for p in passes)
    slowdowns = [sampler.slowdown(p["start"], p["end"]) for p in passes]
    out.update(
        metrics=metrics_of(raw), samples=samples,
        p95_supported=harness.samples_beyond(samples, 95) >= 10,
        slowdown=harness.summarise(slowdowns)["median"],
        raw_wall_s=harness.summarise([p["wall_s"] for p in passes])["median"])
    return out


def run_child(workload: str, seed: int, seconds: float, trace: int,
              index: int) -> Dict[str, Any]:
    workdir = WORK / f"{workload}-{os.getpid()}-{index}"
    out = WORK / f"{workload}-{os.getpid()}-{index}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir), "--out",
           str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: timed out after "
                           f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{workload}: child exited {proc.returncode}\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def print_table(workload: str, runs: List[Dict[str, Any]], trace: int,
                ) -> Dict[str, Dict[str, float]]:
    metrics = harness.PER_LAYER if trace else harness.END_TO_END
    print(f"\n== {workload}  ({len(runs)} run(s); attempted "
          f"{sum(r['attempted'] for r in runs)}, failed "
          f"{sum(r['failed'] for r in runs)})")
    print(f"{'metric':<40} {'unit':<7} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8}")
    summary = {}
    for metric in metrics:
        s = harness.summarise([r["metrics"][metric.name] for r in runs])
        spread = s["iqr"] / s["median"] if s["median"] else 0.0
        summary[metric.name] = dict(s, unit=metric.unit)
        print(f"{metric.name:<40} {metric.unit:<7} {s['median']:>14.6g} "
              f"{s['q1']:>14.6g} {s['q3']:>14.6g} {spread:>8.2%}")
    if not trace:
        slowdowns = ", ".join(f"{r['slowdown']:.2f}" for r in runs)
        raw_walls = ", ".join(f"{r['raw_wall_s']:.4g}" for r in runs)
        print(f"latency samples per run: {runs[-1]['samples']} (p95 has "
              f">= 10 beyond: "
              f"{'yes' if runs[-1]['p95_supported'] else 'no'})")
        print(f"machine slowdown per run: {slowdowns}; raw pass wall: "
              f"{raw_walls} s")
    for r in runs:
        for note in r["notes"]:
            print(f"  ! {note}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=harness.WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (only service-mixed draws inputs)")
    parser.add_argument("--seconds", type=float, default=9.0,
                        help="measured seconds per run (whole passes; at "
                             "least one)")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh child processes per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics of a traced run")
    parser.add_argument("--json", dest="json_out", metavar="OUT",
                        help="write every run and the summary to OUT")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    chosen = args.workload or list(harness.WORKLOAD_NAMES)
    workloads = [w for w in harness.WORKLOADS if w.name in chosen]
    WORK.mkdir(exist_ok=True)

    results: Dict[str, List[Dict[str, Any]]] = {w.name: []
                                                for w in workloads}
    try:
        for index in range(args.runs):
            for workload in workloads:
                results[workload.name].append(run_once(
                    workload, args.seed, args.seconds, args.trace, index))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    summaries = {w: print_table(w, runs, args.trace)
                 for w, runs in results.items()}
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"fingerprint": fingerprint(),
                       "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": {w: {"runs": results[w],
                                         "summary": summaries[w]}
                                     for w in results}},
                      fh, indent=1)
            fh.write("\n")

    attempted = sum(r["attempted"] for rs in results.values() for r in rs)
    failed = sum(r["failed"] for rs in results.values() for r in rs)
    prefix = len(workloads) > 1
    metrics = {(f"{w}.{name}" if prefix else name):
               {"value": s["median"], "unit": s["unit"]}
               for w, summary in summaries.items()
               for name, s in summary.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
