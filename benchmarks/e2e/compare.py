#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark (parent, change).

Reads the ``run.py --json`` files of each side, made with the same
settings, joins each side's runs in the order the files are given, and
pairs the two sides' runs by index.  Run the sides alternately (parent
first in one pair, change first in the next).  Per workload and
end-to-end metric it reports each side's median and quartiles, the median
change and one verdict:

- ``WIN``: the change won at least 9/10 of at least 10 pairs (ties count
  for neither) and its median is better by more than the parent's IQR;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's allowance: its bound times the parent's median, or its
  floor if that is larger;
- ``unresolved``: either side's IQR exceeds that side's allowance,
  unless every change run beats every parent run (then ``better``); or
  the change would win but fewer than 10 pairs were run;
- ``same``: none of the above.

Traced files (``--trace``) get the per-layer medians side by side, without
verdicts: per-layer metrics have no bounds.

    python3 benchmarks/e2e/compare.py --parent p01.json p02.json ... \\
        --change c01.json c02.json ...

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence

import harness


def verdict(metric: harness.Metric, parent: Sequence[float],
            change: Sequence[float]) -> Dict[str, object]:
    """The comparison of one metric on one workload (see module doc)."""
    sign = 1.0 if metric.better == "lower" else -1.0

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    def allowance(side: Dict[str, float]) -> float:
        return max(metric.bound * abs(side["median"]), metric.floor)

    p, c = harness.summarise(parent), harness.summarise(change)
    pairs = list(zip(parent, change))
    wins = sum(better(ch, pa) for pa, ch in pairs)
    delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    if p["iqr"] > allowance(p) or c["iqr"] > allowance(c):
        label = ("better" if all(better(ch, pa) for pa in parent
                                 for ch in change) else "unresolved")
    elif sign * (c["median"] - p["median"]) > allowance(p):
        label = "REGRESSION"
    elif (wins >= 0.9 * len(pairs) and better(c["median"], p["median"])
          and abs(c["median"] - p["median"]) > p["iqr"]):
        label = "WIN" if len(pairs) >= 10 else "unresolved"
    else:
        label = "same"
    return {"label": label, "delta": delta, "wins": wins,
            "pairs": len(pairs), "parent": p, "change": c}


def runs_of(data: dict, workload: str, name: str) -> List[float]:
    return [r["metrics"][name] for r in data["workloads"][workload]["runs"]]


def load_side(paths: Sequence[str]) -> dict:
    """One side's result files, their runs joined in the given order."""
    sides = []
    for path in paths:
        with open(path) as fh:
            sides.append(json.load(fh))
    for key in ("trace", "seconds"):
        if len({s.get(key) for s in sides}) != 1:
            raise SystemExit(f"{key} differs between the files of one side")
    merged = dict(sides[0], workloads={})
    for data in sides:
        for workload, block in data["workloads"].items():
            merged["workloads"].setdefault(
                workload, {"runs": []})["runs"] += block["runs"]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        metavar="JSON", help="run.py --json files of the "
                                             "parent")
    parser.add_argument("--change", nargs="+", required=True,
                        metavar="JSON", help="run.py --json files of the "
                                             "change")
    args = parser.parse_args(argv)
    parent, change = load_side(args.parent), load_side(args.change)
    if parent.get("trace") != change.get("trace"):
        parser.error("one result set is traced and the other is not")
    if parent.get("seconds") != change.get("seconds"):
        parser.error("the result sets were measured with different "
                     "--seconds")
    workloads = [w for w in parent["workloads"] if w in change["workloads"]]

    if parent.get("trace"):
        for workload in workloads:
            print(f"\n== {workload}")
            for metric in harness.PER_LAYER:
                pm = harness.summarise(
                    runs_of(parent, workload, metric.name))["median"]
                cm = harness.summarise(
                    runs_of(change, workload, metric.name))["median"]
                delta = f"{(cm - pm) / pm:+.1%}" if pm else "-"
                print(f"{metric.name:<40} {metric.unit:<6} {pm:>14.6g} "
                      f"{cm:>14.6g} {delta:>8}")
        return 0

    verdicts = {(w, m.name): verdict(m, runs_of(parent, w, m.name),
                                     runs_of(change, w, m.name))
                for w in workloads for m in harness.END_TO_END}
    width = 26
    print(f"{'workload':<16} " + " ".join(f"{m.name:<{width}}"
                                          for m in harness.END_TO_END))
    for workload in workloads:
        cells = [verdicts[workload, m.name] for m in harness.END_TO_END]
        print(f"{workload:<16} " + " ".join(
            f"{v['label']} {v['delta']:+.1%} {v['wins']}/{v['pairs']}"
            .ljust(width) for v in cells))
    print("\ncell: verdict, median change (change vs parent), pairs the "
          "change won")
    for workload in workloads:
        for metric in harness.END_TO_END:
            v = verdicts[workload, metric.name]
            p, c = v["parent"], v["change"]
            print(f"  {workload:<16} {metric.name:<15} parent "
                  f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, "
                  f"{c['q3']:.6g}] {metric.unit}")
    regressed = any(v["label"] == "REGRESSION" for v in verdicts.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
