"""Figure 10: robustness to RTN noise (crystm03, CG, error correction off).

Built on the scenario-sweep engine: the sigma grid is a
:class:`repro.api.SweepSpec` over the ``noisy`` variant family, executed by
:func:`repro.experiments.common.run_sweep` — the GPU double-precision
baseline is solved exactly once per sweep and grafted into every variant's
run (the pre-sweep implementation re-solved it per sigma), and the timing
accounting (ReFloat mapping including the one-time setup write, V100
roofline baseline) comes from the registered variant/platform timing
models, pinned equivalent to the original hand-rolled plumbing in
``tests/test_sweep.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.api import SweepSpec
from repro.api import config as api_config
from repro.experiments.common import run_sweep
from repro.experiments.reporting import format_table
from repro.sparse.gallery.suite import resolve_scale

__all__ = ["run", "collect", "specs", "sweep_spec", "NOISE_SWEEP"]

#: sigma values from 0.1% to 25% (the paper's x-axis).
NOISE_SWEEP = [0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.25]

#: RNG seed of the paper sweep (fixed, not the per-matrix default).
DEFAULT_SEED = 1234


def sweep_spec(sid: int = 355, seed: int = DEFAULT_SEED,
               scale: Optional[str] = None) -> SweepSpec:
    """The Fig. 10 sweep as data: a ``noisy`` sigma grid against the GPU
    baseline, with the one-time mapping write charged (``setup=1``)."""
    return SweepSpec(family="noisy",
                     grid={"sigma": tuple(NOISE_SWEEP),
                           "seed": seed, "setup": 1},
                     solvers=("cg",), baseline=("gpu",),
                     sids=(sid,), scale=scale)


def specs(scale: Optional[str] = None) -> List[SweepSpec]:
    """The sweeps :func:`collect` runs by default (for ``all``'s graph)."""
    return [sweep_spec(scale=resolve_scale(scale))]


def collect(scale: Optional[str] = None, sid: int = 355,
            max_iterations: Optional[int] = None,
            seed: int = DEFAULT_SEED) -> List[dict]:
    scale = resolve_scale(scale)
    crit = api_config.active().effective_criterion
    if max_iterations is not None:
        crit = replace(crit, max_iterations=max_iterations)
    spec = sweep_spec(sid=sid, seed=seed, scale=scale)
    result = run_sweep(spec, criterion=crit)
    out = []
    for token, params in result.params.items():
        run = result.variant(token)[sid]
        res = run.results[token]
        out.append({
            "sigma": params["sigma"],
            "converged": res.converged,
            "iterations": res.iterations if res.converged else None,
            # Speedup vs the GPU solving the same problem in double
            # (GPU iterations from the noise-free double solve).
            "speedup_vs_gpu": run.speedup(token),
        })
    return out


def run(scale: Optional[str] = None, print_output: bool = True,
        **kwargs) -> List[dict]:
    data = collect(scale, **kwargs)
    if print_output:
        rows = [[f"{d['sigma']:.1%}",
                 d["iterations"] if d["iterations"] is not None else "NC",
                 d["speedup_vs_gpu"]] for d in data]
        print(format_table(
            ["sigma", "#iterations", "speedup vs GPU"],
            rows,
            title="\nFig. 10 — RTN noise robustness (crystm03 analog, CG; "
                  "paper: 6.85x speedup kept at 25% noise)"))
    return data
