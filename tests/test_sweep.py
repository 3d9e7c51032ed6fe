"""Tests of the scenario-sweep engine and the criterion threading.

Covers the variant-token grammar (canonical, round-trips, self-describing
across processes), the variant families, :class:`SweepSpec` expansion and
JSON round trips, :func:`run_sweep` execution on every executor (process
pinned identical to serial), the rebuilt Fig. 10 (pinned equivalent to the
pre-sweep implementation, with exactly one baseline solve per collect),
and ``RunConfig.criterion`` reaching every registered solver call site.
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    PLATFORM_REGISTRY,
    SOLVER_REGISTRY,
    RunConfig,
    RunRequest,
    SolverSpec,
    SweepSpec,
    ensure_variant,
    parse_variant_token,
    variant_token,
)
from repro.api import config as api_config
from repro.api.sweep import ensure_variant_platforms
from repro.experiments.common import (
    clear_run_caches,
    run_matrix,
    run_request,
    run_suite,
    run_sweep,
)
from repro.solvers import ConvergenceCriterion


@pytest.fixture
def fresh_caches():
    clear_run_caches()
    yield
    clear_run_caches()


@pytest.fixture
def drop_variants():
    """Unregister any variant platforms a test materialised."""
    before = set(PLATFORM_REGISTRY.names())
    yield
    for name in set(PLATFORM_REGISTRY.names()) - before:
        PLATFORM_REGISTRY.unregister(name)


class TestTokenGrammar:
    def test_canonical_token_sorts_keys(self):
        assert variant_token("noisy", {"sigma": 0.05, "seed": 7}) == \
            "noisy@seed=7,sigma=0.05"

    def test_parse_round_trip(self):
        for token in ("noisy@sigma=0.05", "truncated@e=8,f=23",
                      "feinberg@e=4,f=20,policy=clamp",
                      "noisy@seed=1234,setup=1,sigma=0.25"):
            family, params = parse_variant_token(token)
            assert variant_token(family, params) == token

    def test_value_types_survive(self):
        _, params = parse_variant_token("x@a=2,b=0.5,c=wrap,d=1e-08")
        assert params == {"a": 2, "b": 0.5, "c": "wrap", "d": 1e-08}
        assert isinstance(params["a"], int)
        assert isinstance(params["d"], float)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError, match="non-canonical"):
            parse_variant_token("noisy@sigma=0.050")
        with pytest.raises(ValueError, match="non-canonical"):
            parse_variant_token("noisy@sigma=0.05,seed=7")  # unsorted

    def test_malformed_rejected(self):
        for bad in ("noisy", "noisy@", "@sigma=1", "noisy@sigma",
                    "noisy@sigma=", "noisy@sigma=1,sigma=2"):
            with pytest.raises(ValueError):
                parse_variant_token(bad)

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            variant_token("noisy", {"policy": "a,b"})
        with pytest.raises(ValueError):
            variant_token("no@isy", {"sigma": 1.0})
        with pytest.raises(ValueError, match="at least one"):
            variant_token("noisy", {})


class TestVariantFamilies:
    def test_ensure_variant_registers_once(self, drop_variants):
        token = "truncated@e=9,f=24"
        spec = ensure_variant(token)
        assert spec.name == token
        assert token in PLATFORM_REGISTRY
        gen = PLATFORM_REGISTRY.generation
        assert ensure_variant(token) is spec  # idempotent
        assert PLATFORM_REGISTRY.generation == gen

    def test_unknown_family_and_bad_params(self):
        with pytest.raises(KeyError, match="unknown variant family"):
            ensure_variant("warp@x=1")
        with pytest.raises(ValueError, match="rejected parameters"):
            ensure_variant("noisy@zigma=0.05")

    def test_ensure_variant_platforms_skips_plain_names(self, drop_variants):
        before = PLATFORM_REGISTRY.generation
        ensure_variant_platforms(["gpu", "refloat"])
        assert PLATFORM_REGISTRY.generation == before
        ensure_variant_platforms("gpu")  # bare string: validation is
        # resolve_platforms' job; must not iterate characters
        assert PLATFORM_REGISTRY.generation == before

    def test_builtin_families_build_working_specs(self, drop_variants):
        for token in ("noisy@fresh=0,seed=3,sigma=0.02",
                      "feinberg@e=6,f=52,policy=wrap",
                      "truncated@e=11,f=26"):
            assert ensure_variant(token).operator is not None

    def test_family_replacement_rebuilds_materialised_tokens(
            self, drop_variants):
        # replace=True on a family must reach tokens already materialised
        # from the old builder — serving them stale would diverge from
        # worker processes that rebuild fresh.
        from repro.api import register_variant_family
        from repro.api.platforms import noisy_platform_spec
        from repro.api.sweep import VARIANT_FAMILIES

        @register_variant_family("replfam")
        def _v1(name, sigma):
            return noisy_platform_spec(name, sigma=float(sigma),
                                       description="v1")

        try:
            token = "replfam@sigma=0.02"
            assert ensure_variant(token).description == "v1"
            version = PLATFORM_REGISTRY.versions((token,))

            @register_variant_family("replfam", replace=True)
            def _v2(name, sigma):
                return noisy_platform_spec(name, sigma=float(sigma),
                                           description="v2")

            assert ensure_variant(token).description == "v2"
            # The token's registry version moved, so result caches keyed
            # on it invalidate too.
            assert PLATFORM_REGISTRY.versions((token,)) != version
        finally:
            VARIANT_FAMILIES.unregister("replfam")

    def test_user_registered_token_shaped_name_left_alone(
            self, drop_variants):
        # A token-shaped name the USER registered (not materialised by
        # ensure_variant) is theirs: ensure_variant must not rebuild it.
        from repro.api import PlatformSpec

        spec = PlatformSpec(name="noisy@sigma=0.4",
                            operator=lambda assets, ctx: assets.exact_op,
                            timing=lambda ctx, it: 1.0)
        PLATFORM_REGISTRY.register(spec)
        assert ensure_variant("noisy@sigma=0.4") is spec


class TestSweepSpec:
    def test_json_round_trip(self):
        for spec in (
            SweepSpec(family="noisy", grid={"sigma": (0.001, 0.25)}),
            SweepSpec(family="truncated", grid=[("e", [11]), ("f", (20, 52))],
                      solvers=("cg", "bicgstab"), baseline=None,
                      sids=(355,), scale="test"),
            SweepSpec(family="feinberg", grid={"e": (4, 6), "policy": "wrap"},
                      baseline=("gpu", "refloat")),
        ):
            revived = SweepSpec.from_json(spec.to_json())
            assert revived == spec
            assert revived.variants() == spec.variants()

    def test_expansion_order_is_deterministic(self):
        spec = SweepSpec(family="truncated", grid={"e": (11, 8), "f": (26, 20)})
        assert spec.tokens() == (
            "truncated@e=11,f=26", "truncated@e=11,f=20",
            "truncated@e=8,f=26", "truncated@e=8,f=20")
        # Axis order drives the product; token spelling stays canonical.
        flipped = SweepSpec(family="truncated",
                            grid=[("f", (26, 20)), ("e", (11, 8))])
        assert flipped.tokens() == (
            "truncated@e=11,f=26", "truncated@e=8,f=26",
            "truncated@e=11,f=20", "truncated@e=8,f=20")

    def test_scalar_axis_pins_a_parameter(self):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.1, 0.2), "seed": 7})
        assert spec.tokens() == (
            "noisy@seed=7,sigma=0.1", "noisy@seed=7,sigma=0.2")
        assert spec.variants()[0][1] == {"sigma": 0.1, "seed": 7}

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown variant family"):
            SweepSpec(family="warp", grid={"x": 1})
        with pytest.raises(ValueError, match="at least one parameter"):
            SweepSpec(family="noisy", grid={})
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(family="noisy", grid={"sigma": ()})
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(family="noisy", grid=[("s", 1), ("s", 2)])
        with pytest.raises(ValueError, match="scale"):
            SweepSpec(family="noisy", grid={"sigma": 0.1}, scale="huge")
        with pytest.raises(ValueError, match="bare string"):
            SweepSpec(family="noisy", grid={"sigma": 0.1}, solvers="cg")


class TestRunSweep:
    GRID = {"sigma": (0.001, 0.01), "seed": 1234}

    def test_noisy_sweep_end_to_end(self, fresh_caches, drop_variants):
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test")
        result = run_sweep(spec, max_workers=1)
        assert result.tokens == spec.tokens()
        for token in result.tokens:
            run = result.variant(token)[355]
            # Baseline grafted in: gpu numerics present, speedup finite.
            assert run.platforms == ("gpu", token)
            assert run.results["gpu"].converged
            assert run.iterations(token) > 0
            assert math.isfinite(run.speedup(token))
        payload = json.loads(json.dumps(result.to_dict()))
        assert set(payload["variants"]) == set(result.tokens)

    def test_feinberg_ef_sweep_end_to_end(self, fresh_caches, drop_variants):
        spec = SweepSpec(family="feinberg",
                         grid={"e": (4, 6), "f": 52, "policy": "wrap"},
                         sids=(1311,), scale="test")
        result = run_sweep(spec, max_workers=1)
        full = result.variant("feinberg@e=6,f=52,policy=wrap")[1311]
        # The 6/52 window is the builtin feinberg model: same numerics.
        reference = run_matrix(1311, "cg", "test",
                               platforms=("gpu", "feinberg"))
        assert full.iterations("feinberg@e=6,f=52,policy=wrap") == \
            reference.iterations("feinberg")

    def test_baseline_solved_once_and_identical(self, fresh_caches,
                                                drop_variants):
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test")
        result = run_sweep(spec, max_workers=1)
        runs = [result.variant(token)[355] for token in result.tokens]
        # One shared baseline MatrixRun: the grafted results are the same
        # objects, not re-solves.
        first = runs[0].results["gpu"]
        assert all(run.results["gpu"] is first for run in runs[1:])

    @pytest.mark.slow
    def test_process_executor_identical_to_serial(self, fresh_caches,
                                                  drop_variants):
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355, 1311),
                         scale="test")
        serial = run_sweep(spec, max_workers=1)
        clear_run_caches()
        pooled = run_sweep(spec, max_workers=2, executor="process")
        for token in spec.tokens():
            for sid in (355, 1311):
                a = serial.variant(token)[sid]
                b = pooled.variant(token)[sid]
                assert a.times_s == b.times_s
                assert a.results[token].iterations == \
                    b.results[token].iterations
                assert np.array_equal(a.results[token].x, b.results[token].x)

    def test_add_only_registration_keeps_caches_valid(self, fresh_caches,
                                                      drop_variants):
        # Materialising NEW variant tokens (or registering any new
        # platform) must not invalidate cached results whose own names
        # never changed meaning — at paper scale a spurious miss re-solves
        # the whole grid.
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test")
        suite = run_suite("cg", "test", sids=(1311,), max_workers=1,
                          platforms=("gpu",))
        sweep = run_sweep(spec, max_workers=1)
        ensure_variant("truncated@e=10,f=30")  # add-only registration
        assert run_suite("cg", "test", sids=(1311,), max_workers=1,
                         platforms=("gpu",)) is suite
        assert run_sweep(spec, max_workers=1) is sweep

    def test_registry_versions_track_per_name(self, drop_variants):
        v1 = PLATFORM_REGISTRY.versions(("gpu", "refloat"))
        ensure_variant("truncated@e=10,f=29")
        assert PLATFORM_REGISTRY.versions(("gpu", "refloat")) == v1
        with pytest.raises(KeyError, match="unknown platform"):
            PLATFORM_REGISTRY.versions(("warp",))

    def test_pool_token_tracks_variant_families(self):
        # A process pool frozen before a register_variant_family call
        # cannot materialise the new family; its identity token must move.
        from repro.api import register_variant_family
        from repro.api.platforms import noisy_platform_spec
        from repro.api.sweep import VARIANT_FAMILIES
        from repro.experiments import common

        before = common._pool_token(2)

        @register_variant_family("scratch_family")
        def _build(name, sigma):
            return noisy_platform_spec(name, sigma=float(sigma))

        try:
            assert common._pool_token(2) != before
        finally:
            VARIANT_FAMILIES.unregister("scratch_family")

    def test_pool_token_tracks_plain_registrations_not_tokens(
            self, drop_variants):
        # A platform registered under a plain name is invisible to
        # fork-frozen workers (they cannot rebuild it from a token), so it
        # must churn the pool identity; materialising a variant token must
        # NOT (workers rebuild those on demand).
        from repro.api.platforms import noisy_platform_spec
        from repro.experiments import common

        before = common._pool_token(2)
        ensure_variant("truncated@e=10,f=28")
        assert common._pool_token(2) == before
        PLATFORM_REGISTRY.register(noisy_platform_spec("plain_custom", 0.02))
        assert common._pool_token(2) != before

    def test_sweep_cache_and_invalidation(self, fresh_caches, drop_variants):
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test")
        first = run_sweep(spec, max_workers=1)
        assert run_sweep(spec, max_workers=1) is first
        other = run_sweep(spec.replace(baseline=None), max_workers=1)
        assert other is not first
        assert other.variant(spec.tokens()[0])[355].platforms == \
            (spec.tokens()[0],)

    def test_multi_rhs_solver_rejected(self):
        # A retired batched-solver name fails fast as an unknown solver.
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test", solvers=("block_cg",))
        with pytest.raises(KeyError, match="unknown solver 'block_cg'"):
            run_sweep(spec, max_workers=1)

    def test_variant_tokens_work_in_run_suite(self, fresh_caches,
                                              drop_variants):
        # A token is a registered-platform name like any other: the suite
        # path materialises it on demand too (SuiteSpec/CLI reuse this).
        runs = run_suite("cg", "test", platforms=("gpu", "noisy@sigma=0.01"),
                         sids=(355,), max_workers=1)
        assert runs[355].iterations("noisy@sigma=0.01") > 0

    def test_variant_token_as_baseline(self, fresh_caches, drop_variants):
        # The baseline set accepts tokens too — it must be materialised
        # like the grid's variants.
        spec = SweepSpec(family="noisy", grid=self.GRID, sids=(355,),
                         scale="test", baseline=("truncated@e=11,f=26",))
        result = run_sweep(spec, max_workers=1)
        run = result.variant(spec.tokens()[0])[355]
        assert "truncated@e=11,f=26" in run.platforms

    def test_one_shot_platform_iterables(self, fresh_caches, drop_variants):
        # run_matrix/run_suite take Iterable[str]: a generator must survive
        # the materialise-then-resolve double pass.
        run = run_matrix(1311, "cg", "test",
                         platforms=(p for p in ("gpu", "refloat")))
        assert run.platforms == ("gpu", "refloat")
        runs = run_suite("cg", "test", sids=(1311,), max_workers=1,
                         platforms=iter(["gpu"]))
        assert runs[1311].platforms == ("gpu",)


class TestCriterion:
    def test_run_matrix_arg_beats_config(self, fresh_caches):
        tight = ConvergenceCriterion(max_iterations=3)
        with api_config.use(RunConfig(criterion=ConvergenceCriterion(
                max_iterations=7))):
            run = run_matrix(1311, "cg", "test", criterion=tight,
                             platforms=("gpu",))
        assert run.results["gpu"].iterations <= 3

    def test_config_criterion_respected_by_every_registered_solver(
            self, fresh_caches):
        budget = ConvergenceCriterion(max_iterations=2)
        with api_config.use(RunConfig(criterion=budget)):
            for solver in SOLVER_REGISTRY.names():
                run = run_matrix(1311, solver, "test", platforms=("gpu",))
                assert run.results["gpu"].iterations <= 2, solver

    def test_env_criterion_reaches_run_matrix(self, fresh_caches,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERATIONS", "4")
        # sid 355 needs ~80 CG iterations at test scale: a 4-iteration
        # budget read from the environment must cut the solve short.
        run = run_matrix(355, "cg", "test", platforms=("gpu",))
        assert run.results["gpu"].iterations <= 4
        assert not run.results["gpu"].converged

    def test_invalid_env_values_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_TOL", "tiny")
        with pytest.raises(ValueError, match="REPRO_SOLVER_TOL"):
            RunConfig.from_env()
        monkeypatch.delenv("REPRO_SOLVER_TOL")
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERATIONS", "-3")
        with pytest.raises(ValueError, match="REPRO_SOLVER_MAX_ITERATIONS"):
            RunConfig.from_env()

    def test_run_request_criterion_json_round_trip(self):
        req = RunRequest(sid=355, solver="cg", scale="test",
                         platforms=("gpu",),
                         criterion=ConvergenceCriterion(max_iterations=5))
        revived = RunRequest.from_json(req.to_json())
        assert revived == req
        assert revived.criterion.max_iterations == 5
        # None stays None (defer to the executing process's config).
        assert RunRequest.from_json(RunRequest(
            sid=355, solver="cg", scale="test").to_json()).criterion is None

    def test_run_request_criterion_honoured(self, fresh_caches):
        req = RunRequest(sid=1311, solver="cg", scale="test",
                         platforms=("gpu",),
                         criterion=ConvergenceCriterion(max_iterations=3))
        run = run_request(req)
        assert run.results["gpu"].iterations <= 3

    def test_suite_cache_distinguishes_criteria(self, fresh_caches):
        loose = run_suite("cg", "test", sids=(1311,), max_workers=1)
        tight = run_suite("cg", "test", sids=(1311,), max_workers=1,
                          criterion=ConvergenceCriterion(max_iterations=2))
        assert tight is not loose
        assert tight[1311].results["gpu"].iterations <= 2
        assert loose[1311].results["gpu"].converged

    def test_config_json_round_trip_with_criterion(self):
        cfg = RunConfig(scale="test",
                        criterion=ConvergenceCriterion(
                            tol=1e-6, max_iterations=11,
                            divergence_factor=1e6))
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_solver_registration_unaffected(self):
        # SolverSpec paths (shape metadata) stay intact with criterion
        # threading in place.
        spec = SOLVER_REGISTRY.get("cg")
        assert isinstance(spec, SolverSpec)
        assert spec.spmvs_per_iteration == 1


class TestFig10Rebuilt:
    """The rebuilt Fig. 10 against the pre-sweep reference implementation."""

    def _reference_collect(self, scale, sid=355, max_iterations=20000,
                           seed=1234):
        """The pre-refactor fig10.collect, baseline hoisted (the output is
        unchanged by the hoist: the dead first t_gpu was overwritten and
        the re-solved baseline is deterministic)."""
        from repro.experiments.common import default_spec_for
        from repro.hardware.accelerator import MappingPlan, SolverTimingModel
        from repro.hardware.gpu import GPUSolverModel
        from repro.operators import ExactOperator, NoisyReFloatOperator
        from repro.solvers import cg
        from repro.sparse.blocked import BlockedMatrix
        from repro.sparse.gallery.suite import PAPER_SUITE

        from repro.experiments.fig10 import NOISE_SWEEP

        A = PAPER_SUITE[sid].matrix(scale)
        n = A.shape[0]
        b = A @ np.ones(n)
        spec = default_spec_for(sid)
        crit = ConvergenceCriterion(tol=1e-8,
                                    max_iterations=max_iterations)
        sspec = SOLVER_REGISTRY.get("cg")
        blocked = BlockedMatrix(A, b=7)
        plan = MappingPlan.for_refloat(blocked.n_blocks, spec)
        timing = SolverTimingModel(
            plan, spmvs_per_iteration=sspec.spmvs_per_iteration,
            vector_ops_per_iteration=sspec.vector_ops_per_iteration)
        gpu = GPUSolverModel.cg()
        res_dbl = cg(ExactOperator(A), b, criterion=crit)
        t_gpu = gpu.solve_time_s(res_dbl.iterations, n, int(A.nnz))
        out = []
        for sigma in NOISE_SWEEP:
            op = NoisyReFloatOperator(A, spec, sigma=sigma, seed=seed,
                                      blocked=blocked)
            res = cg(op, b, criterion=crit)
            entry = {"sigma": sigma, "converged": res.converged,
                     "iterations": res.iterations if res.converged else None}
            if res.converged:
                t_rf = timing.solve_time_s(res.iterations, n)
                entry["speedup_vs_gpu"] = t_gpu / t_rf
            else:
                entry["speedup_vs_gpu"] = float("nan")
            out.append(entry)
        return out

    def test_pinned_equivalent_to_pre_refactor(self, fresh_caches,
                                               drop_variants):
        from repro.experiments import fig10

        reference = self._reference_collect("test", max_iterations=3000)
        rebuilt = fig10.collect(scale="test", max_iterations=3000)
        assert len(rebuilt) == len(reference)
        for old, new in zip(reference, rebuilt):
            assert new["sigma"] == old["sigma"]
            assert new["converged"] == old["converged"]
            assert new["iterations"] == old["iterations"]
            if old["converged"]:
                # Identical arithmetic, not merely close.
                assert new["speedup_vs_gpu"] == old["speedup_vs_gpu"]
            else:
                assert math.isnan(new["speedup_vs_gpu"])

    def test_one_baseline_solve_per_collect(self, fresh_caches,
                                            drop_variants):
        """Regression for the pre-sweep bug: the noise-free double baseline
        was re-solved inside the sigma loop on every iteration."""
        from repro.experiments import fig10
        from repro.operators import ExactOperator

        cg_spec = SOLVER_REGISTRY.get("cg")
        solved = []

        def counting_cg(op, b, **kwargs):
            solved.append(type(op).__name__)
            return cg_spec.solve(op, b, **kwargs)

        SOLVER_REGISTRY.register(
            SolverSpec(name="cg", solve=counting_cg,
                       spmvs_per_iteration=cg_spec.spmvs_per_iteration,
                       vector_ops_per_iteration=(
                           cg_spec.vector_ops_per_iteration),
                       gpu_vector_kernels_per_iteration=(
                           cg_spec.gpu_vector_kernels_per_iteration)),
            replace=True)
        try:
            data = fig10.collect(scale="test", max_iterations=3000)
        finally:
            SOLVER_REGISTRY.register(cg_spec, replace=True)
        assert solved.count(ExactOperator.__name__) == 1
        assert solved.count("NoisyReFloatOperator") == len(fig10.NOISE_SWEEP)
        assert len(data) == len(fig10.NOISE_SWEEP)


class TestToleranceAxis:
    """The sweep-level criterion axis (``SweepSpec.tols``)."""

    def test_spec_validation_and_round_trip(self):
        spec = SweepSpec(family="noisy", grid={"sigma": 0.001},
                         tols=(1e-6, 1e-10))
        assert SweepSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="positive finite"):
            SweepSpec(family="noisy", grid={"sigma": 0.001}, tols=(0.0,))
        with pytest.raises(ValueError, match="positive finite"):
            SweepSpec(family="noisy", grid={"sigma": 0.001}, tols=(-1e-8,))
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(family="noisy", grid={"sigma": 0.001},
                      tols=(1e-8, 1e-8))
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(family="noisy", grid={"sigma": 0.001}, tols=())

    def test_old_payload_without_tols_still_parses(self):
        spec = SweepSpec(family="noisy", grid={"sigma": 0.001})
        data = spec.to_dict()
        del data["tols"]  # a payload from before the axis existed
        assert SweepSpec.from_dict(data) == spec

    def test_per_tolerance_cells_and_stamped_criteria(self, fresh_caches,
                                                      drop_variants):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.001,)},
                         sids=(2257,), scale="test", tols=(1e-6, 1e-10))
        result = run_sweep(spec, max_workers=1)
        token = spec.tokens()[0]
        assert sorted(result.runs) == sorted(
            [("cg", token, 1e-6), ("cg", token, 1e-10)])
        loose = result.variant(token, tol=1e-6)[2257]
        tight = result.variant(token, tol=1e-10)[2257]
        # A tighter tolerance costs more iterations: the criterion really
        # was replaced per cell, not shared.
        assert tight.iterations(token) > loose.iterations(token)
        # Default accessor = the first tolerance on the axis.
        assert result.variant(token) is result.variant(token, tol=1e-6)
        data = result.to_dict()
        entry = data["variants"][token]
        assert sorted(entry["tols"]) == ["1e-06", "1e-10"]
        assert "solvers" not in entry  # the nested level replaces it

    def test_no_tols_keeps_historical_shape(self, fresh_caches,
                                            drop_variants):
        spec = SweepSpec(family="noisy", grid={"sigma": (0.001,)},
                         sids=(2257,), scale="test")
        result = run_sweep(spec, max_workers=1)
        token = spec.tokens()[0]
        assert list(result.runs) == [("cg", token)]
        entry = result.to_dict()["variants"][token]
        assert sorted(entry) == ["params", "solvers"]
