"""The whole paper at test scale, diffed against the golden output.

``all --scale test`` prints every table and figure of the reproduction; its
stdout is byte-identical across executors and pinned in
``benchmarks/e2e/golden/all_scale_test.txt``.  Running it in-process here
puts every layer (matrix gallery, partition, quantisation, operators,
solvers, timing models, experiment tables) behind one byte comparison.
"""

import contextlib
import io
from pathlib import Path

from repro.api.config import RunConfig, use
from repro.experiments import run_experiment
from repro.experiments.common import clear_run_caches

GOLDEN = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
          / "golden" / "all_scale_test.txt")


def test_all_scale_test_matches_golden(tmp_path):
    buf = io.StringIO()
    clear_run_caches()
    try:
        with use(RunConfig(store=tmp_path / "store",
                           ledger=tmp_path / "ledger")), \
                contextlib.redirect_stdout(buf):
            run_experiment("all", scale="test")
    finally:
        clear_run_caches()
    assert buf.getvalue() == GOLDEN.read_text()
