"""Tests of the ``repro.api`` layer: registries, RunConfig, run specs.

Covers the registry contract (duplicate rejection, dependency closure),
the config resolution order (env < explicit config < arguments, with
``RunConfig.from_env`` as the single env reader), lossless JSON round
trips of the declarative job objects, and the headline acceptance
criteria: a user-registered platform sweeps via ``run_suite`` without
touching ``repro/experiments/common.py``, and a spec revived from JSON
reproduces bit-identical results.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.api import (
    DEFAULT_PLATFORMS,
    PLATFORM_REGISTRY,
    SOLVER_REGISTRY,
    PlatformSpec,
    Registry,
    RunConfig,
    RunRequest,
    SuiteSpec,
    noisy_platform_spec,
    register_platform,
    register_solver,
    resolve_platforms,
)
from repro.api import config as api_config
from repro.experiments.common import (
    clear_run_caches,
    run_matrix,
    run_request,
    run_spec,
    run_suite,
)
from repro.solvers import cg

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def fresh_caches():
    clear_run_caches()
    yield
    clear_run_caches()


@pytest.fixture
def scratch_platform():
    """Register a trivial platform for the duration of one test."""

    @register_platform("scratch", timing=lambda ctx, it: it * 1e-6)
    def factory(assets, ctx):
        return assets.exact_op

    yield "scratch"
    PLATFORM_REGISTRY.unregister("scratch")


class TestRegistry:
    def test_duplicate_platform_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_platform("gpu", timing=lambda ctx, it: 0.0)(
                lambda assets, ctx: assets.exact_op)

    def test_duplicate_solver_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("cg", spmvs_per_iteration=1,
                            vector_ops_per_iteration=6)(cg)

    def test_replace_allows_override(self):
        reg = Registry("platform")
        spec = PlatformSpec(name="p", operator=lambda a, c: None,
                            timing=lambda c, i: 0.0)
        reg.register(spec)
        with pytest.raises(ValueError):
            reg.register(spec)
        reg.register(spec, replace=True)
        assert reg.get("p") is spec

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="unknown platform 'warp'"):
            PLATFORM_REGISTRY.get("warp")
        with pytest.raises(KeyError, match="unknown solver 'sor'"):
            SOLVER_REGISTRY.get("sor")

    def test_builtin_registrations(self):
        for name in DEFAULT_PLATFORMS + ("noisy", "truncated"):
            assert name in PLATFORM_REGISTRY
        # The paper's two single-RHS solvers are the whole builtin set.
        assert SOLVER_REGISTRY.names() == ("cg", "bicgstab")

    def test_results_from_requires_known_shape(self):
        with pytest.raises(ValueError, match="operator factory"):
            PlatformSpec(name="x", operator=None, timing=lambda c, i: 0.0)
        with pytest.raises(ValueError, match="its own results"):
            PlatformSpec(name="x", operator=None, results_from="x",
                         timing=lambda c, i: 0.0)

    def test_resolve_platforms_pulls_dependencies(self):
        assert resolve_platforms(("feinberg_fc",)) == ("gpu", "feinberg_fc")
        # Stable, deduplicated, dependency-first.
        assert resolve_platforms(("refloat", "feinberg_fc", "gpu")) == \
            ("refloat", "gpu", "feinberg_fc")

    def test_resolve_platforms_rejects_empty_and_cycles(self):
        with pytest.raises(ValueError, match="empty"):
            resolve_platforms(())
        reg = Registry("platform")
        reg.register(PlatformSpec(name="a", operator=None, results_from="b",
                                  timing=lambda c, i: 0.0))
        reg.register(PlatformSpec(name="b", operator=None, results_from="a",
                                  timing=lambda c, i: 0.0))
        with pytest.raises(ValueError, match="cycle"):
            resolve_platforms(("a",), registry=reg)


class TestRunConfig:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_FULL", "REPRO_SUITE_WORKERS",
                    "REPRO_SUITE_EXECUTOR", "REPRO_ASSET_CACHE_MB",
                    "REPRO_ASSET_STORE", "REPRO_ASSET_STORE_VERIFY",
                    "REPRO_SKIP_KAPPA", "REPRO_REQUEST_TIMEOUT",
                    "REPRO_REQUEST_RETRIES", "REPRO_RETRY_BACKOFF"):
            monkeypatch.delenv(var, raising=False)
        cfg = RunConfig.from_env()
        assert cfg == RunConfig()
        assert cfg.executor == "serial"
        assert cfg.asset_cache_bytes is None
        assert cfg.request_timeout is None
        assert cfg.request_retries == 0
        assert cfg.retry_backoff == 0.0

    def test_from_env_reads_every_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", "1.5")
        monkeypatch.setenv("REPRO_ASSET_STORE", "/tmp/store")
        monkeypatch.setenv("REPRO_ASSET_STORE_VERIFY", "0")
        monkeypatch.setenv("REPRO_SKIP_KAPPA", "1")
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "30.5")
        monkeypatch.setenv("REPRO_REQUEST_RETRIES", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        cfg = RunConfig.from_env()
        assert cfg == RunConfig(scale="paper", workers=3, executor="process",
                                asset_cache_mb=1.5, store="/tmp/store",
                                store_verify=False, skip_kappa=True,
                                request_timeout=30.5, request_retries=2,
                                retry_backoff=0.25)
        assert cfg.asset_cache_bytes == int(1.5 * (1 << 20))

    def test_overrides_take_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "process")
        cfg = RunConfig.from_env(workers=7, executor="serial")
        assert cfg.workers == 7
        assert cfg.executor == "serial"

    def test_invalid_env_values_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SUITE_WORKERS='many'"):
            RunConfig.from_env()
        monkeypatch.delenv("REPRO_SUITE_WORKERS")
        monkeypatch.setenv("REPRO_SUITE_EXECUTOR", "fibers")
        with pytest.raises(ValueError, match="REPRO_SUITE_EXECUTOR='fibers'"):
            RunConfig.from_env()
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR")
        monkeypatch.setenv("REPRO_ASSET_CACHE_MB", "lots")
        with pytest.raises(ValueError, match="'lots'"):
            RunConfig.from_env()

    @pytest.mark.parametrize("bad", ["0", "-1", "abc", "inf"])
    def test_invalid_request_timeout_names_var_and_value(self, monkeypatch,
                                                         bad):
        # Zero/negative/non-numeric/non-finite timeouts must fail with the
        # same named-error shape as REPRO_SUITE_WORKERS, not be clamped.
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", bad)
        with pytest.raises(ValueError,
                           match=f"REPRO_REQUEST_TIMEOUT='{bad}'"):
            RunConfig.from_env()

    @pytest.mark.parametrize("bad", ["-1", "1.5", "x"])
    def test_invalid_request_retries_names_var_and_value(self, monkeypatch,
                                                         bad):
        monkeypatch.setenv("REPRO_REQUEST_RETRIES", bad)
        with pytest.raises(ValueError,
                           match=f"REPRO_REQUEST_RETRIES='{bad}'"):
            RunConfig.from_env()

    @pytest.mark.parametrize("bad", ["-0.5", "nan", "y"])
    def test_invalid_retry_backoff_names_var_and_value(self, monkeypatch,
                                                       bad):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", bad)
        with pytest.raises(ValueError,
                           match=f"REPRO_RETRY_BACKOFF='{bad}'"):
            RunConfig.from_env()

    def test_valid_fault_knobs_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUEST_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_REQUEST_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        cfg = RunConfig.from_env()
        assert cfg.request_timeout == 1.5
        assert cfg.request_retries == 0
        assert cfg.retry_backoff == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="scale"):
            RunConfig(scale="huge")
        with pytest.raises(ValueError, match="executor"):
            RunConfig(executor="fibers")
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        with pytest.raises(ValueError, match="asset_cache_mb"):
            RunConfig(asset_cache_mb=-1)
        with pytest.raises(ValueError, match="request_timeout"):
            RunConfig(request_timeout=0)
        with pytest.raises(ValueError, match="request_timeout"):
            RunConfig(request_timeout=float("inf"))
        with pytest.raises(ValueError, match="request_retries"):
            RunConfig(request_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            RunConfig(retry_backoff=-0.1)

    def test_json_round_trip(self):
        cfg = RunConfig(scale="test", workers=2, executor="process",
                        asset_cache_mb=64.0, store="/tmp/s",
                        store_verify=False, skip_kappa=True,
                        request_timeout=12.0, request_retries=3,
                        retry_backoff=0.5)
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert RunConfig.from_json(RunConfig().to_json()) == RunConfig()

    def test_use_installs_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_EXECUTOR", raising=False)
        cfg = RunConfig(executor="process")
        assert api_config.active().executor == "serial"
        with api_config.use(cfg):
            assert api_config.active() is cfg
        assert api_config.active().executor == "serial"

    def test_installed_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "5")
        with api_config.use(RunConfig(workers=2)):
            assert api_config.active().workers == 2
        assert api_config.active().workers == 5


class TestConfigHygiene:
    def test_env_reads_only_in_config_module(self):
        """``REPRO_*`` env access must stay inside ``repro.api.config``."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path == SRC_ROOT / "api" / "config.py":
                continue
            text = path.read_text()
            if "os.environ" in text or "getenv" in text:
                offenders.append(str(path.relative_to(SRC_ROOT)))
        assert offenders == []


class TestSpecs:
    def test_suite_spec_json_round_trip(self):
        for spec in (
            SuiteSpec(),
            SuiteSpec(solver="bicgstab", scale="test"),
            SuiteSpec(solver="cg", scale="paper",
                      platforms=("gpu", "refloat"), sids=(353, 1311)),
        ):
            assert SuiteSpec.from_json(spec.to_json()) == spec

    def test_run_request_json_round_trip(self):
        req = RunRequest(sid=353, solver="cg", scale="test",
                         platforms=("gpu", "refloat"))
        assert RunRequest.from_json(req.to_json()) == req
        assert RunRequest.from_json(
            RunRequest(sid=845, solver="bicgstab", scale="default").to_json()
        ).platforms is None

    def test_lists_normalise_to_tuples(self):
        spec = SuiteSpec(platforms=["gpu", "refloat"], sids=[353])
        assert spec.platforms == ("gpu", "refloat")
        assert spec.sids == (353,)
        assert spec == SuiteSpec(platforms=("gpu", "refloat"), sids=(353,))

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            SuiteSpec(scale="huge")
        with pytest.raises(ValueError, match="concrete scale"):
            RunRequest(sid=353, solver="cg", scale=None)
        with pytest.raises(ValueError, match="non-empty"):
            SuiteSpec(platforms=())
        with pytest.raises(ValueError, match="not a SuiteSpec"):
            SuiteSpec.from_dict({"type": "RunRequest", "sid": 1})
        with pytest.raises(ValueError, match="version"):
            SuiteSpec.from_json(json.dumps(
                {"type": "SuiteSpec", "version": 99, "solver": "cg",
                 "scale": None, "platforms": None, "sids": None}))


class TestMatrixRunSubsets:
    def test_absent_platform_iterations_none_speedup_nan(self, fresh_caches):
        run = run_matrix(1311, "cg", "test", platforms=["gpu", "refloat"])
        assert run.iterations("feinberg") is None
        assert math.isnan(run.speedup("feinberg"))
        assert run.iterations("refloat") == run.results["refloat"].iterations

    def test_speedup_nan_without_gpu_baseline(self, fresh_caches):
        run = run_matrix(1311, "cg", "test", platforms=["refloat"])
        assert run.platforms == ("refloat",)
        assert math.isfinite(run.times_s["refloat"])
        assert math.isnan(run.speedup("refloat"))

    def test_dependency_platform_pulled_into_sweep(self, fresh_caches):
        run = run_matrix(1311, "cg", "test", platforms=["feinberg_fc"])
        assert run.platforms == ("gpu", "feinberg_fc")
        assert run.results["feinberg_fc"] is run.results["gpu"]

    def test_multi_rhs_solver_rejected_by_run_matrix(self):
        # The batched solvers are gone: their names fail fast as unknown,
        # like any other unregistered solver.
        for name in ("block_cg", "solve_many", "lockstep", "sor"):
            with pytest.raises(KeyError, match=f"unknown solver '{name}'"):
                run_matrix(1311, name, "test")

    def test_unknown_platform_and_sid_fail_fast(self):
        with pytest.raises(KeyError, match="unknown platform"):
            run_matrix(1311, "cg", "test", platforms=["warp"])
        with pytest.raises(KeyError, match="unknown suite matrix id"):
            run_suite("cg", "test", sids=[999])

    def test_subset_suite_pinned_identical_to_full(self, fresh_caches):
        full = run_suite("cg", "test")
        sub = run_suite("cg", "test", platforms=("gpu", "refloat"),
                        sids=(353, 1311))
        assert set(sub) == {353, 1311}
        for sid in sub:
            for platform in ("gpu", "refloat"):
                a = sub[sid].results[platform]
                b = full[sid].results[platform]
                assert np.array_equal(a.x, b.x)
                assert a.iterations == b.iterations
                assert sub[sid].times_s[platform] == \
                    full[sid].times_s[platform]

    def test_suite_cache_distinguishes_subsets(self, fresh_caches):
        full = run_suite("cg", "test")
        sub = run_suite("cg", "test", platforms=("gpu", "refloat"))
        assert run_suite("cg", "test") is full
        assert run_suite("cg", "test", platforms=("gpu", "refloat")) is sub
        assert full is not sub

    def test_reregistration_invalidates_suite_cache(self, fresh_caches):
        # replace=True makes the same name mean different work; the run
        # cache must not serve the old sweep for it.
        spec = PlatformSpec(name="volatile",
                            operator=lambda assets, ctx: assets.exact_op,
                            timing=lambda ctx, it: it * 1e-6)
        PLATFORM_REGISTRY.register(spec)
        try:
            first = run_suite("cg", "test", platforms=("gpu", "volatile"),
                              sids=(1311,))
            PLATFORM_REGISTRY.register(
                spec.__class__(name="volatile", operator=spec.operator,
                               timing=lambda ctx, it: it * 1e-3),
                replace=True)
            second = run_suite("cg", "test",
                               platforms=("gpu", "volatile"), sids=(1311,))
            assert second is not first
            assert second[1311].times_s["volatile"] == \
                first[1311].times_s["volatile"] * 1e3
        finally:
            PLATFORM_REGISTRY.unregister("volatile")

    def test_bare_string_platforms_rejected(self):
        with pytest.raises(ValueError, match="bare string"):
            run_matrix(1311, "cg", "test", platforms="gpu")
        with pytest.raises(ValueError, match="bare string"):
            run_suite("cg", "test", platforms="refloat")
        with pytest.raises(ValueError, match="bare string"):
            SuiteSpec(platforms="gpu")


class TestUserRegistration:
    def test_new_platform_swept_without_touching_common(
            self, fresh_caches, scratch_platform):
        # The acceptance criterion: registration + run_suite(platforms=...)
        # from user code is the whole integration surface.
        runs = run_suite("cg", "test",
                         platforms=["gpu", scratch_platform], sids=[1311])
        run = runs[1311]
        assert run.platforms == ("gpu", scratch_platform)
        res = run.results[scratch_platform]
        assert res.converged
        assert np.array_equal(res.x, run.results["gpu"].x)  # same operator
        assert run.times_s[scratch_platform] == \
            res.iterations * 1e-6
        assert run.speedup(scratch_platform) > 0

    def test_noisy_platform_spec_variants(self, fresh_caches):
        spec = noisy_platform_spec("noisy_frozen", 0.02,
                                   fresh_per_apply=False, seed=7)
        PLATFORM_REGISTRY.register(spec)
        try:
            run = run_matrix(353, "cg", "test",
                             platforms=["gpu", "noisy_frozen"])
            assert "noisy_frozen" in run.results
        finally:
            PLATFORM_REGISTRY.unregister("noisy_frozen")


class TestDeclarativeExecution:
    def test_spec_json_round_trip_reproduces_bit_identical_runs(
            self, fresh_caches):
        spec = SuiteSpec(solver="cg", scale="test",
                         platforms=("gpu", "feinberg_fc", "refloat"),
                         sids=(353, 1311))
        first = run_spec(spec)
        clear_run_caches()
        revived = run_spec(SuiteSpec.from_json(spec.to_json()))
        assert set(first) == set(revived)
        for sid in first:
            assert first[sid].times_s == revived[sid].times_s
            for platform in first[sid].platforms:
                a, b = (first[sid].results[platform],
                        revived[sid].results[platform])
                assert np.array_equal(a.x, b.x)
                assert a.iterations == b.iterations
                assert np.array_equal(a.residual_history,
                                      b.residual_history)

    def test_run_request_matches_run_matrix(self, fresh_caches):
        req = RunRequest(sid=353, solver="cg", scale="test",
                         platforms=("gpu", "refloat"))
        a = run_request(req)
        b = run_matrix(353, "cg", "test", platforms=("gpu", "refloat"))
        assert a.times_s == b.times_s
        assert np.array_equal(a.results["refloat"].x,
                              b.results["refloat"].x)

    def test_run_suite_config_argument(self, fresh_caches, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        cfg = RunConfig(scale="test", workers=1)
        runs = run_suite("cg", sids=[1311], config=cfg)
        assert runs[1311].results["gpu"].converged
        # The installed config must not leak past the call.
        assert api_config.active().scale is None

    def test_matrix_run_to_dict_is_json_safe(self, fresh_caches):
        run = run_matrix(353, "cg", "test")  # feinberg is NC here
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["platforms"]["feinberg"]["time_s"] is None
        assert payload["platforms"]["refloat"]["speedup_vs_gpu"] > 0
        assert payload["platforms"]["feinberg_fc"]["converged"] is True
