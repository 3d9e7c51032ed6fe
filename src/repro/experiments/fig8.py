"""Figure 8: solver-time speedup over the GPU for the four platforms."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.api import SuiteSpec
from repro.experiments.common import geometric_mean, run_spec
from repro.experiments.reporting import format_table

__all__ = ["run", "collect", "specs", "speedup_table", "PLATFORM_LABELS"]

#: Display labels of the builtin platforms (registry names fall through).
PLATFORM_LABELS = {"feinberg": "Feinberg", "feinberg_fc": "Feinberg-fc",
                   "refloat": "ReFloat", "noisy": "Noisy-ReFloat",
                   "truncated": "Truncated"}


def speedup_table(runs: Dict[int, object]) -> dict:
    """Speedup rows and GMNs for one solver's runs (shared with the CLI).

    Returns ``{"platforms": [...], "rows": [...], "gmn": {platform: gmn}}``
    where each row is ``(sid, name, *speedups)`` in platform order, NaN
    marking non-convergence (the paper's NC); the comparison columns are
    every swept platform except the GPU baseline itself.
    """
    compared = [p for p in next(iter(runs.values())).platforms
                if p != "gpu"]
    rows = []
    per_platform: Dict[str, list] = {p: [] for p in compared}
    for sid, run in runs.items():
        row = [sid, run.name]
        for platform in compared:
            s = run.speedup(platform)
            row.append(s)
            per_platform[platform].append(s)
        rows.append(row)
    gmn = {p: geometric_mean([v for v in vals if v == v])
           for p, vals in per_platform.items()}
    return {"platforms": compared, "rows": rows, "gmn": gmn}


def specs(scale: Optional[str] = None,
          platforms: Optional[Iterable[str]] = None) -> List[SuiteSpec]:
    """Fig. 8 as data: one whole-suite run per solver (Fig. 9 and
    Table VI render the same runs)."""
    return [SuiteSpec(solver=solver, scale=scale, platforms=platforms)
            for solver in ("cg", "bicgstab")]


def collect(scale: Optional[str] = None,
            platforms: Optional[Iterable[str]] = None) -> Dict[str, dict]:
    """Speedup table data for both solvers.

    Returns ``{solver: {"platforms": [...], "rows": [...], "gmn":
    {platform: gmn}}}`` (see :func:`speedup_table`).  ``platforms`` sweeps
    a registered subset (or superset — any registry name works).
    """
    return {spec.solver: speedup_table(run_spec(spec))
            for spec in specs(scale, platforms)}


def run(scale: Optional[str] = None, print_output: bool = True,
        platforms: Optional[Iterable[str]] = None) -> Dict[str, dict]:
    """Regenerate Fig. 8 (printed as two tables, one per solver)."""
    data = collect(scale, platforms=platforms)
    if print_output:
        for solver, block in data.items():
            compared = block["platforms"]
            rows = [[sid, name] + [s if s == s else "NC" for s in speedups]
                    for sid, name, *speedups in block["rows"]]
            print(format_table(
                ["id", "matrix"] + [PLATFORM_LABELS.get(p, p)
                                    for p in compared],
                rows,
                title=f"\nFig. 8 [{solver.upper()}] — speedup vs GPU (GPU = 1.0)"))
            g = block["gmn"]
            if "feinberg_fc" in g and "refloat" in g:
                print(f"GMN: Feinberg-fc {g['feinberg_fc']:.4g}x, "
                      f"ReFloat {g['refloat']:.4g}x "
                      f"(paper: 0.8362x / 12.59x CG, 1.036x / 13.34x BiCGSTAB)")
            else:
                print("GMN: " + ", ".join(
                    f"{PLATFORM_LABELS.get(p, p)} {g[p]:.4g}x"
                    for p in compared))
    return data
