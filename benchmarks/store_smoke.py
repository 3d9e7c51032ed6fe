#!/usr/bin/env python
"""Asset-store smoke harness: run the suite, report the store counters.

CI runs this twice against one ``REPRO_ASSET_STORE`` tmpdir: the first
(cold) run builds and materialises every asset, the second — a brand-new
interpreter — must attach to the store with **zero** matrix builds::

    export REPRO_ASSET_STORE=$(mktemp -d)
    PYTHONPATH=src python benchmarks/store_smoke.py
    PYTHONPATH=src python benchmarks/store_smoke.py \
        --expect-zero-builds --expect-bsr-layout

Exits nonzero when ``--expect-zero-builds`` is violated (a build happened,
or nothing was actually served from the store), when ``--expect-bsr-layout``
finds a current-version entry without the three index-only BSR arrays or
with any array of more than one dimension (a dense block tensor crept
back), or when the environment is missing ``REPRO_ASSET_STORE`` entirely.
"""

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="test",
                        help="suite scale (default: test)")
    parser.add_argument("--solver", default="cg",
                        help="solver to sweep (default: cg)")
    parser.add_argument("--expect-zero-builds", action="store_true",
                        help="fail unless every asset came from the store")
    parser.add_argument("--expect-bsr-layout", action="store_true",
                        help="fail unless every current-version entry "
                             "persists the index-only BSR layout and only "
                             "1-D arrays")
    args = parser.parse_args()

    if not os.environ.get("REPRO_ASSET_STORE"):
        print("store_smoke: REPRO_ASSET_STORE must point at a directory",
              file=sys.stderr)
        return 2

    from repro.experiments import store
    from repro.experiments.common import run_suite

    runs = run_suite(args.solver, args.scale, use_cache=False, max_workers=1)
    counts = store.counters()
    summary = {
        "scale": args.scale,
        "solver": args.solver,
        "matrices": len(runs),
        "counters": counts,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))

    if args.expect_zero_builds:
        if counts["builds"] != 0:
            print(f"store_smoke: expected zero builds against a warm store, "
                  f"got {counts['builds']}", file=sys.stderr)
            return 1
        if counts["hits"] != len(runs):
            print(f"store_smoke: expected {len(runs)} store hits, "
                  f"got {counts['hits']}", file=sys.stderr)
            return 1

    if args.expect_bsr_layout:
        vroot = store.store_root() / f"v{store.STORE_VERSION}"
        entries = sorted(p for p in vroot.iterdir() if p.is_dir())
        if len(entries) < len(runs):
            print(f"store_smoke: only {len(entries)} entries under "
                  f"{vroot.name}/ for {len(runs)} matrices", file=sys.stderr)
            return 1
        missing = [e.name for e in entries
                   if not all((e / f"{name}.npy").is_file()
                              for name in ("bsr_indptr", "bsr_indices",
                                           "bsr_block_of_nnz"))]
        if missing:
            print(f"store_smoke: entries without the index-only BSR layout: "
                  f"{missing}", file=sys.stderr)
            return 1
        dense = []
        for e in entries:
            specs = json.loads((e / "meta.json").read_text())["arrays"]
            dense += [f"{e.name}/{name}{spec['shape']}"
                      for name, spec in sorted(specs.items())
                      if len(spec["shape"]) > 1]
        if dense:
            print(f"store_smoke: arrays with more than one dimension: "
                  f"{dense}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
