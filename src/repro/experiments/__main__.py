"""CLI entry point for the evaluation harness.

Legacy experiment regeneration (one table/figure of the paper)::

    python -m repro.experiments fig8 [--scale SCALE]
    python -m repro.experiments all

These run on the process pool unless ``REPRO_SUITE_EXECUTOR`` says
otherwise, and inline when only one worker resolves
(:func:`repro.api.config.paper_config`); ``all`` runs every solve of the
paper as one task graph before it prints the first table.

Declarative runs (no environment variables required — every knob is a
flag mapping onto :class:`repro.api.RunConfig` / :class:`repro.api.SuiteSpec`)::

    python -m repro.experiments suite --solver cg --platforms gpu,refloat \
        --scale test --executor process --workers 4 --json out.json
    python -m repro.experiments solve --sid 353 --solver bicgstab \
        --platforms gpu,refloat --scale test --json out.json

Scenario sweeps over a variant-family parameter grid
(:class:`repro.api.SweepSpec`; repeat ``--grid`` for extra axes)::

    python -m repro.experiments sweep --platform noisy \
        --grid sigma=0.001,0.01,0.25 --sids 355 --scale test --json -
    python -m repro.experiments sweep --platform truncated \
        --grid e=11 --grid f=20,26,52 --executor process

Asset-store maintenance::

    python -m repro.experiments store --stats
    python -m repro.experiments store --gc --max-mb 512

The run ledger (every completed suite/sweep/solve/service batch appends
one record under ``$REPRO_ASSET_STORE/ledger/`` or ``REPRO_RUN_LEDGER``;
``report`` replays it)::

    python -m repro.experiments report
    python -m repro.experiments report --json - --last 20

The solve service (long-lived daemon + remote client)::

    python -m repro.experiments serve --host 127.0.0.1 --port 8537 \
        --workers 4 --executor process --store /var/cache/repro
    python -m repro.experiments solve --sid 353 --remote 127.0.0.1:8537

Fault tolerance (suite and sweep): ``--retries``/``--timeout``/
``--backoff`` map onto the :class:`RunConfig` knobs, ``--on-error
collect`` returns partial results with failure records instead of
raising, ``--journal``/``--resume`` give sweeps crash-durable progress,
and ``--fault`` injects deterministic faults for drills::

    python -m repro.experiments suite --executor process --retries 1 \
        --on-error collect --fault crash@attempt=1,sid=2257
    python -m repro.experiments sweep --platform noisy --grid sigma=0.01 \
        --journal run.jsonl --resume
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.api import EXECUTORS, RunConfig, SuiteSpec, use
from repro.api.config import paper_config
from repro.api.specs import RunRequest

_API_COMMANDS = ("suite", "solve", "sweep", "store", "serve", "report")
#: The commands whose flags build a :class:`RunConfig` (``args.config``).
_CONFIG_COMMANDS = ("suite", "solve", "sweep", "serve")


def _split_csv(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def _platforms_arg(text: str) -> list:
    return _split_csv(text)


def _sids_arg(text: str) -> list:
    try:
        return [int(s) for s in _split_csv(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sids must be comma-separated integers, got {text!r}") from None


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver", default="cg",
                        help="registered solver name (default: cg)")
    parser.add_argument("--platforms", type=_platforms_arg, default=None,
                        metavar="P1,P2,...",
                        help="registered platform subset (default: the "
                             "paper's four-platform grid)")
    parser.add_argument("--scale", choices=["test", "default", "paper"],
                        default=None, help="matrix scale (default: 'default')")
    parser.add_argument("--json", dest="json_out", metavar="OUT",
                        default=None,
                        help="write results (and the spec that produced "
                             "them) as JSON to OUT, '-' for stdout")


def _emit_json(payload: dict, target: Optional[str]) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if target == "-":
        print(text)
    elif target:
        with open(target, "w") as fh:
            fh.write(text + "\n")


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by ``suite`` and ``sweep``."""
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="extra attempts per failed request "
                             "(default: REPRO_REQUEST_RETRIES or 0)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-request timeout in seconds, enforced on "
                             "the process executor (default: "
                             "REPRO_REQUEST_TIMEOUT or none)")
    parser.add_argument("--backoff", type=float, default=None, metavar="SECS",
                        help="retry backoff base: attempt n waits "
                             "backoff*2^(n-1) seconds (default: "
                             "REPRO_RETRY_BACKOFF or 0)")
    parser.add_argument("--on-error", dest="on_error",
                        choices=["raise", "collect"], default="raise",
                        help="'raise' (default) propagates the first "
                             "unrecoverable failure; 'collect' returns "
                             "partial results with failure records "
                             "(exit code 3 when any request failed)")
    parser.add_argument("--fault", action="append", default=None,
                        metavar="TOKEN",
                        help="inject a deterministic fault for drills "
                             "(repeatable); tokens use the variant "
                             "grammar: 'crash@attempt=1,sid=2257', "
                             "'hang@secs=30,sid=494', "
                             "'fail@attempts=1,sid=353'")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Engine flags shared by ``suite``, ``sweep`` and ``serve``."""
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: "
                             "REPRO_SUITE_WORKERS, else one worker per "
                             "request up to the CPU count)")
    parser.add_argument("--executor", choices=EXECUTORS, default=None,
                        help="engine executor (default: "
                             "REPRO_SUITE_EXECUTOR or serial)")


def _report_failures(failures) -> int:
    """Print failure summaries to stderr; exit 3 when any survived."""
    for f in failures:
        sys.stderr.write(
            f"FAILED [{f.phase}] sid={f.sid} solver={f.solver} after "
            f"{f.attempts} attempt(s): {f.error_type}: {f.message}\n")
    return 3 if failures else 0


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Flags layered over the environment-derived config (flags win)."""
    overrides = {}
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "executor", None) is not None:
        overrides["executor"] = args.executor
    if getattr(args, "scale", None) is not None:
        overrides["scale"] = args.scale
    if getattr(args, "timeout", None) is not None:
        overrides["request_timeout"] = args.timeout
    if getattr(args, "retries", None) is not None:
        overrides["request_retries"] = args.retries
    if getattr(args, "backoff", None) is not None:
        overrides["retry_backoff"] = args.backoff
    if getattr(args, "batch_window", None) is not None:
        overrides["service_batch_window"] = args.batch_window
    if getattr(args, "batch_max", None) is not None:
        overrides["service_batch_max"] = args.batch_max
    if getattr(args, "no_coalesce", False):
        overrides["service_coalesce"] = False
    if getattr(args, "store", None) is not None:
        overrides["store"] = args.store
    return RunConfig.from_env(**overrides)


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.api.faults import use_fault_plan
    from repro.experiments.common import run_spec
    from repro.experiments.fig8 import PLATFORM_LABELS, speedup_table
    from repro.experiments.reporting import format_table

    spec = SuiteSpec(solver=args.solver, scale=args.scale,
                     platforms=args.platforms, sids=args.sids)
    with use_fault_plan(args.fault or None):
        runs = run_spec(spec, config=args.config,
                        on_error=args.on_error)
    table = speedup_table(runs)
    rows = [[sid, name, runs[sid].iterations("gpu")]
            + [s if s == s else "NC" for s in speedups]
            for sid, name, *speedups in table["rows"]]
    print(format_table(
        ["id", "matrix", "gpu its"] + [PLATFORM_LABELS.get(p, p)
                                       for p in table["platforms"]],
        rows,
        title=f"suite [{args.solver}] — speedup vs GPU (GPU = 1.0)"))
    for p in table["platforms"]:
        gmn = table["gmn"][p]
        if gmn == gmn:  # no baseline swept -> NaN: nothing to report
            print(f"GMN {PLATFORM_LABELS.get(p, p)}: {gmn:.4g}x")
    _emit_json({"spec": spec.to_dict(),
                "runs": {str(sid): run.to_dict()
                         for sid, run in runs.items()},
                "failures": [f.to_dict() for f in runs.failures],
                "stats": (None if runs.stats is None
                          else runs.stats.to_dict()),
                "trace_summary": (None if runs.stats is None
                                  else runs.stats.trace_summary())},
               args.json_out)
    return _report_failures(runs.failures)


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.experiments.common import run_request
    from repro.sparse.gallery.suite import resolve_scale

    request = RunRequest(
        sid=args.sid, solver=args.solver,
        scale=resolve_scale(args.scale),
        platforms=tuple(args.platforms) if args.platforms else None)
    from repro.api import use as use_config
    if args.remote:
        from repro.experiments.common import MatrixRun
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient.from_config(args.remote, args.config)
        try:
            run_dict = client.solve(request)
        except ServiceError as exc:
            sys.stderr.write(f"remote solve failed: {exc}\n")
            return 3
        run = MatrixRun.from_dict(run_dict)
    else:
        from repro.api import config as api_config
        from repro.experiments import ledger

        with use_config(args.config):
            run = run_request(request)
            ledger.record_run(
                "solve", spec=request, scale=request.scale,
                criterion=api_config.active().effective_criterion,
                runs=(run,), platforms=run.platforms,
                solvers=(request.solver,))
    print(f"{run.name} (sid {run.sid}, n={run.n_rows}, nnz={run.nnz}, "
          f"{run.n_blocks} blocks) — {run.solver}")
    for platform in run.platforms:
        res = run.results[platform]
        state = f"{res.iterations:>6d} its" if res.converged else "    NC    "
        speedup = run.speedup(platform)
        extra = f"  speedup {speedup:.4g}x" if speedup == speedup else ""
        print(f"  {platform:<12} {state}{extra}")
    _emit_json({"request": request.to_dict(), "run": run.to_dict()},
               args.json_out)
    return 0


def _grid_arg(text: str) -> tuple:
    """One ``--grid`` axis: ``key=v1,v2,...`` (values typed like tokens)."""
    from repro.api.sweep import _parse_value

    key, sep, body = text.partition("=")
    values = [item.strip() for item in body.split(",") if item.strip()]
    if not sep or not key.strip() or not values:
        raise argparse.ArgumentTypeError(
            f"grid axes look like key=v1,v2,..., got {text!r}")
    return key.strip(), tuple(_parse_value(v) for v in values)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api.faults import use_fault_plan
    from repro.api.sweep import SweepSpec
    from repro.experiments.common import geometric_mean, run_sweep
    from repro.experiments.reporting import format_table

    if args.baseline is None:
        baseline = ("gpu",)
    elif [name.lower() for name in args.baseline] == ["none"]:
        baseline = None
    else:
        baseline = tuple(args.baseline)
    spec = SweepSpec(family=args.platform, grid=tuple(args.grid),
                     solvers=(args.solver,), baseline=baseline,
                     sids=args.sids, scale=args.scale, tols=args.tols)
    with use_fault_plan(args.fault or None):
        result = run_sweep(spec, config=args.config,
                           on_error=args.on_error, journal=args.journal,
                           resume=args.resume)
    if args.journal is not None and result.stats is not None:
        sys.stderr.write(
            f"journal: {result.stats.journal_skipped} cell(s) replayed, "
            f"{result.stats.requests} solved\n")
    tol_axis = spec.tols if spec.tols is not None else (None,)
    rows = []
    for tol in tol_axis:
        for token in result.tokens:
            cell = result.variant(token, tol=tol)
            speedups = [run.speedup(token) for run in cell.values()]
            prefix = [token] if tol is None else [token, tol]
            for sid, run in cell.items():
                its = run.iterations(token)
                s = run.speedup(token)
                rows.append(prefix + [sid, its if its is not None else "NC",
                                      s if s == s else "NC"])
            if len(cell) > 1:
                gmn = geometric_mean(speedups)
                rows.append(prefix + ["GMN", "",
                                      gmn if gmn == gmn else "NC"])
    header = ["variant"] + (["tol"] if spec.tols is not None else []) + \
        ["id", "#iterations", "speedup vs GPU"]
    print(format_table(
        header, rows,
        title=f"sweep [{args.solver}] — {args.platform} grid over "
              f"{len(result.tokens)} variants"))
    payload = result.to_dict()
    payload["trace_summary"] = (None if result.stats is None
                                else result.stats.trace_summary())
    _emit_json(payload, args.json_out)
    return _report_failures(result.failures)


def _tols_arg(text: str) -> tuple:
    try:
        return tuple(float(s) for s in _split_csv(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tols must be comma-separated floats, got {text!r}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.api.faults import use_fault_plan
    from repro.experiments.common import clear_run_caches
    from repro.service import SolveService

    config = args.config
    with use_fault_plan(args.fault or None):
        service = SolveService(host=args.host, port=args.port, config=config)
        host, port = service.address
        # The smoke harness (and humans) parse this line for the bound
        # ephemeral port; keep its shape stable.
        print(f"listening on http://{host}:{port}", flush=True)

        def _stop(signum, frame) -> None:
            # shutdown() blocks until serve_forever exits; the handler
            # runs *inside* serve_forever's thread, so hand it off.
            threading.Thread(target=service.shutdown, daemon=True).start()

        previous = {sig: signal.signal(sig, _stop)
                    for sig in (signal.SIGINT, signal.SIGTERM)}
        try:
            service.serve_forever()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            stats = service.stats()
            service.close()
            # Reap the persistent process pool (if the engine ever built
            # one) so the daemon exits promptly instead of waiting on
            # worker processes at interpreter shutdown.
            clear_run_caches()
    _emit_json(stats, args.json_out)
    sys.stderr.write(
        f"served {stats['service']['requests']} request(s), "
        f"{stats['service']['coalesced_batches']} coalesced batch(es)\n")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.api import use as use_config
    from repro.experiments import store

    overrides = {}
    if args.store is not None:
        overrides["store"] = args.store
    with use_config(RunConfig.from_env(**overrides)):
        if store.store_root() is None:
            print("no asset store configured (set REPRO_ASSET_STORE or "
                  "pass --store PATH)", file=sys.stderr)
            return 2
        if args.gc:
            result = store.gc_store(int(args.max_mb * (1 << 20)))
            print(f"evicted {len(result['evicted'])} entries "
                  f"({result['before_nbytes'] - result['after_nbytes']} "
                  f"bytes), kept {result['kept']} "
                  f"({result['after_nbytes']} bytes)")
            for key in result["evicted"]:
                print(f"  - {key}")
        else:
            stats = store.store_stats()
            print(f"{stats['root']}: {stats['entries']} entries, "
                  f"{stats['nbytes']} bytes")
            for entry in stats["per_entry"]:
                marker = "" if entry["current"] else "  [stale version]"
                print(f"  {entry['version']}/{entry['key']:<16} "
                      f"{entry['nbytes']:>12d} B{marker}")
            led = stats.get("ledger") or {}
            if led.get("path"):
                print(f"ledger {led['path']}: {led['records']} records, "
                      f"{led['nbytes']} bytes")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ledger as ledger_mod
    from repro.experiments.common import MatrixRun
    from repro.experiments.reporting import format_table

    overrides = {}
    if args.store is not None:
        overrides["store"] = args.store
    if args.ledger is not None:
        overrides["ledger"] = args.ledger
    path = ledger_mod.ledger_path(
        ledger_mod.ledger_root(RunConfig.from_env(**overrides)))
    if path is None:
        print("no run ledger configured (set REPRO_ASSET_STORE or "
              "REPRO_RUN_LEDGER, or pass --store / --ledger)",
              file=sys.stderr)
        return 2
    records = ledger_mod.RunLedger(path).replay()
    if args.last is not None:
        records = records[-args.last:]

    summaries = []
    trajectory: dict = {}
    kinds: dict = {}
    sids: set = set()
    platforms: set = set()
    solvers: set = set()
    failure_trend = []
    for idx, rec in enumerate(records):
        kind = rec.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        runs = [MatrixRun.from_dict(r) for r in rec.get("runs") or ()]
        failures = rec.get("failures") or []
        attempted = len(runs) + len(failures)
        failure_trend.append({
            "record": idx, "kind": kind, "ts": rec.get("ts"),
            "runs": len(runs), "failures": len(failures),
            "rate": (round(len(failures) / attempted, 4)
                     if attempted else 0.0),
        })
        summaries.append({
            "record": idx, "kind": kind, "ts": rec.get("ts"),
            "scale": rec.get("scale"), "git_sha": rec.get("git_sha"),
            "registry": rec.get("registry") or {},
            "runs": len(runs), "failures": len(failures),
        })
        for run in runs:
            sids.add(run.sid)
            solvers.add(run.solver)
            for platform in run.platforms:
                platforms.add(platform)
                t = run.times_s.get(platform)
                s = run.speedup(platform)
                trajectory.setdefault((run.sid, run.solver, platform),
                                      []).append({
                    "record": idx, "ts": rec.get("ts"),
                    "time_s": (t if t is not None
                               and t < float("inf") else None),
                    "iterations": run.iterations(platform),
                    "converged": bool(run.results[platform].converged),
                    "speedup_vs_gpu": s if s == s else None,
                })

    rows = []
    for (sid, solver, platform), points in sorted(trajectory.items()):
        finite = [p["time_s"] for p in points if p["time_s"] is not None]
        first = finite[0] if finite else float("nan")
        last = finite[-1] if finite else float("nan")
        delta = (f"{(last - first) / first * 100.0:+.1f}%"
                 if finite and first > 0 else "-")
        rows.append([sid, solver, platform, len(points), first, last, delta])
    print(format_table(
        ["id", "solver", "platform", "runs", "first t(s)", "last t(s)",
         "trend"],
        rows,
        title=f"run ledger {path} — perf trajectory over "
              f"{len(records)} record(s)"))
    kind_summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
    print(f"coverage: {kind_summary or 'no records'}; {len(sids)} matrix "
          f"id(s), {len(platforms)} platform(s), {len(solvers)} solver(s)")
    print(format_table(
        ["record", "kind", "runs", "failures", "failure rate"],
        [[f["record"], f["kind"], f["runs"], f["failures"],
          f"{f['rate'] * 100.0:.1f}%"] for f in failure_trend],
        title="failure-rate trend"))
    _emit_json({
        "type": "LedgerReport", "version": 1, "path": str(path),
        "records": summaries,
        "trajectory": {f"{sid}/{solver}/{platform}": points
                       for (sid, solver, platform), points
                       in sorted(trajectory.items())},
        "coverage": {"kinds": kinds, "sids": sorted(sids),
                     "platforms": sorted(platforms),
                     "solvers": sorted(solvers)},
        "failure_trend": failure_trend,
    }, args.json_out)
    return 0


def _api_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {command}")
    if command == "suite":
        _add_run_flags(parser)
        parser.add_argument("--sids", type=_sids_arg, default=None,
                            metavar="ID1,ID2,...",
                            help="suite-matrix subset (default: all 12)")
        _add_engine_flags(parser)
        _add_fault_flags(parser)
        parser.set_defaults(func=_cmd_suite)
    elif command == "sweep":
        parser.add_argument("--platform", required=True, metavar="FAMILY",
                            help="variant family to sweep (noisy, "
                                 "truncated, feinberg, or user-registered)")
        parser.add_argument("--grid", type=_grid_arg, action="append",
                            required=True, metavar="KEY=V1,V2,...",
                            help="one parameter axis of the grid "
                                 "(repeat for more axes; a single value "
                                 "pins the parameter)")
        parser.add_argument("--solver", default="cg",
                            help="registered solver name (default: cg)")
        parser.add_argument("--baseline", type=_platforms_arg,
                            default=None, metavar="P1,P2,...",
                            help="baseline platforms solved once per "
                                 "matrix and grafted into every variant "
                                 "(default: gpu; 'none' for no baseline)")
        parser.add_argument("--sids", type=_sids_arg, default=None,
                            metavar="ID1,ID2,...",
                            help="suite-matrix subset (default: all 12)")
        parser.add_argument("--scale", choices=["test", "default", "paper"],
                            default=None,
                            help="matrix scale (default: 'default')")
        _add_engine_flags(parser)
        parser.add_argument("--json", dest="json_out", metavar="OUT",
                            default=None,
                            help="write the sweep (spec + per-variant "
                                 "runs) as JSON to OUT, '-' for stdout")
        _add_fault_flags(parser)
        parser.add_argument("--journal", nargs="?", const="auto",
                            default=None, metavar="PATH",
                            help="append each completed cell to a "
                                 "crash-durable JSONL journal (bare "
                                 "--journal uses the store-rooted default "
                                 "path)")
        parser.add_argument("--resume", action="store_true",
                            help="replay the journal first and solve only "
                                 "the missing cells (requires --journal)")
        parser.add_argument("--tols", type=_tols_arg, default=None,
                            metavar="T1,T2,...",
                            help="convergence-tolerance axis: run the whole "
                                 "grid once per tolerance (e.g. "
                                 "1e-6,1e-8,1e-10), with the resolved "
                                 "criterion stamped into every cell")
        parser.set_defaults(func=_cmd_sweep)
    elif command == "solve":
        parser.add_argument("--sid", type=int, required=True,
                            help="suite matrix id (Table V)")
        _add_run_flags(parser)
        parser.add_argument("--remote", default=None, metavar="HOST:PORT",
                            help="solve on a running solve-service daemon "
                                 "instead of in-process (see 'serve')")
        parser.add_argument("--retries", type=int, default=None, metavar="N",
                            help="with --remote: transport retries "
                                 "(default: REPRO_REQUEST_RETRIES or 0)")
        parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECS",
                            help="with --remote: socket timeout (default: "
                                 "REPRO_REQUEST_TIMEOUT or none)")
        parser.add_argument("--backoff", type=float, default=None,
                            metavar="SECS",
                            help="with --remote: retry backoff base "
                                 "(default: REPRO_RETRY_BACKOFF or 0)")
        parser.set_defaults(func=_cmd_solve)
    elif command == "serve":
        parser.add_argument("--host", default="127.0.0.1",
                            help="bind address (default: 127.0.0.1)")
        parser.add_argument("--port", type=int, default=0,
                            help="bind port (default: 0 = ephemeral; the "
                                 "bound port is printed on startup)")
        _add_engine_flags(parser)
        parser.add_argument("--store", default=None, metavar="PATH",
                            help="the daemon's asset-store root (default: "
                                 "REPRO_ASSET_STORE)")
        parser.add_argument("--batch-window", dest="batch_window",
                            type=float, default=None, metavar="SECS",
                            help="coalescing window (default: "
                                 "REPRO_SERVICE_BATCH_WINDOW or 0.05)")
        parser.add_argument("--batch-max", dest="batch_max", type=int,
                            default=None, metavar="N",
                            help="max coalesced batch size (default: "
                                 "REPRO_SERVICE_BATCH_MAX or 8)")
        parser.add_argument("--no-coalesce", dest="no_coalesce",
                            action="store_true",
                            help="disable request coalescing (every "
                                 "request becomes its own batch)")
        parser.add_argument("--retries", type=int, default=None, metavar="N",
                            help="engine retries per failed request")
        parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECS",
                            help="engine per-request timeout")
        parser.add_argument("--backoff", type=float, default=None,
                            metavar="SECS", help="engine retry backoff base")
        parser.add_argument("--fault", action="append", default=None,
                            metavar="TOKEN",
                            help="inject a deterministic fault for drills "
                                 "(repeatable), e.g. "
                                 "'crash@attempt=1,sid=2257'")
        parser.add_argument("--json", dest="json_out", metavar="OUT",
                            default=None,
                            help="write the final service stats as JSON to "
                                 "OUT on shutdown, '-' for stdout")
        parser.set_defaults(func=_cmd_serve)
    elif command == "report":
        parser.add_argument("--store", default=None, metavar="PATH",
                            help="store root whose ledger to replay "
                                 "(default: REPRO_ASSET_STORE)")
        parser.add_argument("--ledger", default=None, metavar="DIR",
                            help="ledger root directory (default: "
                                 "REPRO_RUN_LEDGER, or ledger/ under the "
                                 "store root)")
        parser.add_argument("--last", type=int, default=None, metavar="N",
                            help="replay only the most recent N records")
        parser.add_argument("--json", dest="json_out", metavar="OUT",
                            default=None,
                            help="write the report as JSON to OUT, '-' "
                                 "for stdout")
        parser.set_defaults(func=_cmd_report)
    else:  # store
        parser.add_argument("--store", default=None, metavar="PATH",
                            help="store root (default: REPRO_ASSET_STORE)")
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--stats", action="store_true",
                           help="print entry sizes and totals (default)")
        group.add_argument("--gc", action="store_true",
                           help="evict LRU entries down to --max-mb")
        parser.add_argument("--max-mb", type=float, default=None,
                            help="GC byte budget in megabytes")
        parser.set_defaults(func=_cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _API_COMMANDS:
        parser = _api_parser(argv[0])
        args = parser.parse_args(argv[1:])
        if argv[0] == "store":
            if args.gc and args.max_mb is None:
                parser.error("--gc requires --max-mb N")
            if args.max_mb is not None and not (math.isfinite(args.max_mb)
                                                and args.max_mb >= 0):
                parser.error("--max-mb must be a finite number >= 0")
        if argv[0] == "report" and args.last is not None and args.last < 1:
            parser.error("--last must be an integer >= 1")
        if argv[0] == "sweep" and args.resume and args.journal is None:
            parser.error("--resume requires --journal")
        if argv[0] in _CONFIG_COMMANDS:
            try:
                args.config = _run_config(args)
            except ValueError as exc:  # e.g. --workers 0, --timeout -1
                parser.error(str(exc))
        return args.func(args)

    from repro.experiments import EXPERIMENTS, run_experiment

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table/figure of the ReFloat paper, or "
                    "run declarative jobs (suite/solve/sweep), store "
                    "maintenance (store), the run-ledger report (report), "
                    "or the solve service (serve).")
    parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"],
                        help="experiment to run (or: suite, solve, sweep, "
                             "store, serve, report)")
    parser.add_argument("--scale", choices=["test", "default", "paper"],
                        default=None,
                        help="matrix scale (default: 'default', or 'paper' "
                             "when REPRO_FULL=1)")
    args = parser.parse_args(argv)
    try:
        config = paper_config()
    except ValueError as exc:  # e.g. REPRO_SUITE_WORKERS=0
        parser.error(str(exc))
    with use(config):
        run_experiment(args.name, scale=args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
