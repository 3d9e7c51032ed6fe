"""Table I: iterations to convergence under naive exp/frac truncation
(crystm03, CG).

Two sweeps, as in the paper: fraction bits at full (11-bit) exponent, and
exponent bits at full (52-bit) fraction.  Both are 1-D sweeps of the
``truncated`` variant family with no baseline, executed by
:func:`repro.experiments.common.run_sweep` (the right-hand side is the
engine's ``A @ 1``).  NC = the solver hit its budget, diverged, or broke
down.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.api import SweepSpec
from repro.api import config as api_config
from repro.experiments.common import run_sweep
from repro.experiments.reporting import format_table
from repro.sparse.gallery.suite import resolve_scale

__all__ = ["run", "collect", "specs", "FRAC_SWEEP", "EXP_SWEEP",
           "PAPER_TABLE1"]

FRAC_SWEEP = [52, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20]
EXP_SWEEP = [11, 10, 9, 8, 7, 6]

#: The paper's Table I iteration counts (NC = None).
PAPER_TABLE1 = {
    ("frac", 52): 80, ("frac", 30): 82, ("frac", 29): 82, ("frac", 28): 83,
    ("frac", 27): 83, ("frac", 26): 84, ("frac", 25): 90, ("frac", 24): 93,
    ("frac", 23): 93, ("frac", 22): 95, ("frac", 21): 107, ("frac", 20): None,
    ("exp", 11): 80, ("exp", 10): 80, ("exp", 9): 80, ("exp", 8): 80,
    ("exp", 7): 20620, ("exp", 6): None,
}


def specs(scale: Optional[str] = None,
          sid: int = 355) -> Tuple[SweepSpec, SweepSpec]:
    """Table I as data: the fraction sweep at ``e=11`` and the exponent
    sweep at ``f=52`` (they share the ``(11, 52)`` cell)."""

    def sweep(grid: dict) -> SweepSpec:
        return SweepSpec(family="truncated", grid=grid, solvers=("cg",),
                         baseline=None, sids=(sid,),
                         scale=resolve_scale(scale))

    return (sweep({"e": 11, "f": tuple(FRAC_SWEEP)}),
            sweep({"e": tuple(EXP_SWEEP), "f": 52}))


def collect(scale: Optional[str] = None, sid: int = 355,
            max_iterations: Optional[int] = None) -> Dict[str, List[dict]]:
    crit = api_config.active().effective_criterion
    if max_iterations is not None:
        crit = replace(crit, max_iterations=max_iterations)
    out: Dict[str, List[dict]] = {}
    for name, spec in zip(("frac", "exp"), specs(scale, sid)):
        result = run_sweep(spec, criterion=crit)
        out[name] = [
            {"exp": params["e"], "frac": params["f"],
             "iterations": result.variant(token)[sid].iterations(token),
             "paper": PAPER_TABLE1[(name, params["f" if name == "frac"
                                                 else "e"])]}
            for token, params in result.params.items()]
    return out


def run(scale: Optional[str] = None, print_output: bool = True,
        **kwargs) -> Dict[str, List[dict]]:
    data = collect(scale, **kwargs)
    if print_output:
        for sweep, label in (("frac", "fraction sweep (exp=11)"),
                             ("exp", "exponent sweep (frac=52)")):
            rows = [[d["exp"], d["frac"],
                     d["iterations"] if d["iterations"] is not None else "NC",
                     d["paper"] if d["paper"] is not None else "NC"]
                    for d in data[sweep]]
            print(format_table(["exp", "frac", "#ite", "paper #ite"], rows,
                               title=f"\nTable I — {label}, crystm03 analog, CG"))
    return data
