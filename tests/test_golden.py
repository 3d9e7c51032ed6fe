"""The whole paper at test scale, diffed against the golden output.

``all --scale test`` prints every table and figure of the reproduction; its
stdout is byte-identical across executors and pinned in
``benchmarks/e2e/golden/all_scale_test.txt``.  Running it in-process here
puts every layer (matrix gallery, partition, quantisation, operators,
solvers, timing models, the one task graph ``all`` runs, experiment
tables) behind one byte comparison, inline and on a two-worker pool.
"""

import contextlib
import io
from pathlib import Path

from repro.api.config import RunConfig, use
from repro.experiments import run_experiment
from repro.experiments.common import clear_run_caches

GOLDEN = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
          / "golden" / "all_scale_test.txt")


def _paper_output(tmp_path, executor):
    buf = io.StringIO()
    clear_run_caches()
    try:
        with use(RunConfig(executor=executor, workers=2,
                           store=tmp_path / "store",
                           ledger=tmp_path / "ledger")), \
                contextlib.redirect_stdout(buf):
            run_experiment("all", scale="test")
    finally:
        clear_run_caches()
    return buf.getvalue()


def test_all_scale_test_matches_golden(tmp_path):
    assert _paper_output(tmp_path, "serial") == GOLDEN.read_text()


def test_all_scale_test_matches_golden_on_the_pool(tmp_path):
    assert _paper_output(tmp_path, "process") == GOLDEN.read_text()
