"""Benchmark configuration.

Experiment benches regenerate a paper table/figure per run; they are
deterministic end-to-end computations, so they run pedantically (1 round).
Set ``REPRO_BENCH_SCALE`` to ``test`` (fast, default), ``default`` (quarter
scale, minutes) or ``paper`` (paper-size matrices) to choose the matrix
scale; run with ``-s`` to see the regenerated tables.

The kernel *microbenchmarks* (``test_kernels.py``) carry the ``bench``
marker and are deselected by the default pytest invocation (``pytest.ini``
adds ``-m "not bench"``), keeping tier-1 runs fast.  Run them and refresh
the committed perf snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -m bench \
        --benchmark-json=BENCH_kernels.json -q

``BENCH_kernels_seed.json`` keeps the seed commit's kernel numbers; compare
a snapshot against it with ``check_regression.py --baseline``.

Snapshots hold summary statistics only: the ``pytest_benchmark_update_json``
hook below drops the per-round ``stats.data`` arrays and trims
``machine_info`` to a short fingerprint before the file is written.
``check_regression.py`` reads only ``stats.median`` and numeric
``extra_info``, so nothing it gates on is lost.
"""

import os

import pytest

#: ``machine_info`` keys a snapshot keeps; enough to tell two machines apart.
FINGERPRINT_KEYS = ("node", "machine", "system", "release",
                    "python_implementation", "python_version")
#: The ``machine_info["cpu"]`` keys a snapshot keeps.
FINGERPRINT_CPU_KEYS = ("brand_raw", "arch", "count")


def slim_benchmark_json(output_json: dict) -> None:
    """Drop per-round ``stats.data`` and trim ``machine_info``, in place."""
    for bench in output_json.get("benchmarks", ()):
        bench.get("stats", {}).pop("data", None)
    info = output_json.get("machine_info") or {}
    cpu = info.get("cpu") or {}
    slim = {key: info[key] for key in FINGERPRINT_KEYS if key in info}
    slim["cpu"] = {key: cpu[key] for key in FINGERPRINT_CPU_KEYS if key in cpu}
    output_json["machine_info"] = slim


def pytest_benchmark_update_json(config, benchmarks, output_json):
    slim_benchmark_json(output_json)


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "test")


@pytest.fixture
def once(benchmark):
    """Run a deterministic experiment exactly once under the benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
