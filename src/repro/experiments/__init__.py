"""Experiment runners: one module per paper table/figure.

Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments fig8
    python -m repro.experiments all

or programmatically via :func:`run_experiment`.
"""

from typing import Callable, Dict, Optional

from repro.experiments import (
    fig3,
    fig8,
    fig9,
    fig10,
    table1,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.common import run_specs

__all__ = ["EXPERIMENTS", "run_experiment"]

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1.run,
    "fig3": fig3.run,
    "table5": table5.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table6": table6.run,
    "table7": table7.run,
    "fig10": fig10.run,
    "table8": table8.run,
}


def run_experiment(name: str, scale: Optional[str] = None,
                   print_output: bool = True):
    """Run one experiment by table/figure name (or ``"all"``).

    ``"all"`` first runs every solve of Table I, Fig. 8 (which Fig. 9 and
    Table VI reuse) and Fig. 10 as one task graph
    (:func:`repro.experiments.common.run_specs`), so no experiment waits
    for another's last solve; each experiment then renders from the run
    cache, in table order.
    """
    if name == "all":
        run_specs([*table1.specs(scale), *fig8.specs(scale),
                   *fig10.specs(scale)])
        return {key: fn(scale=scale, print_output=print_output)
                for key, fn in EXPERIMENTS.items()}
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)} + 'all'")
    return EXPERIMENTS[name](scale=scale, print_output=print_output)
