"""The append-only record layer: a shared JSONL core and the run ledger.

Two consumers share one persistence contract — "one JSON object per
line, flushed and fsynced, so a record either fully survives a crash or
is a torn final line the replay tolerates":

* the **sweep journal** (:mod:`repro.experiments.journal`): per-sweep
  progress, single writer, header-pinned resume;
* the **run ledger** (this module): the cross-run record.  Every
  completed ``run_suite``/``run_sweep``/CLI ``solve``/service engine
  batch appends one record — spec, :class:`RunConfig` snapshot,
  criterion, registry version stamps, git sha, summary-grade results,
  failures, engine counters — answering "what has this deployment
  solved, under which config, and how did perf trend?".  The ``report``
  CLI subcommand replays it, and the run engine reads the recorded
  iteration counts back (:func:`solve_costs`) to start the costliest
  solves first.

:class:`JsonlLog` is the extracted core both build on.  The ledger lives
at ``<ledger root>/ledger.jsonl`` where the root is
``RunConfig.ledger`` (env ``REPRO_RUN_LEDGER``; the literal ``off`` /
``none`` / ``0`` disables the ledger) or, by default, ``ledger/`` under
the asset-store root — deliberately *outside* the store's ``v*`` entry
namespace, so store GC can never evict it.  No store and no explicit
root means no ledger: appends become no-ops.

Appends are failure-isolated (an unwritable ledger degrades to a
``RuntimeWarning``; a record is never worth failing the solve it
describes) and concurrency-safe for the threaded daemon: each record is
one ``O_APPEND`` write under a per-process lock, so concurrent threads
— and separate processes sharing a root — never interleave bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.api import config as api_config

__all__ = [
    "LEDGER_VERSION",
    "JsonlLog",
    "RunLedger",
    "counters",
    "git_sha",
    "ledger_path",
    "ledger_root",
    "ledger_stats",
    "record_run",
    "solve_costs",
]

LEDGER_VERSION = 1

#: Bytes at the end of the ledger that :func:`solve_costs` reads.  The
#: ledger grows with every run, so a cost lookup reads a fixed tail, never
#: the whole file; one ``all --scale test`` appends about 26 KB.
COST_TAIL_BYTES = 256 * 1024

#: ``RunConfig.ledger`` values that disable the ledger outright (the
#: store-rooted default included).
_DISABLED_TOKENS = ("off", "none", "0")


def _encode(record: Dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


#: Serialises :meth:`JsonlLog.append_atomic` within this process; across
#: processes ``O_APPEND`` places each single-syscall write at the
#: then-current end of file.
_APPEND_LOCK = threading.Lock()


class JsonlLog:
    """An fsynced append-only JSONL file — the shared persistence core.

    * :meth:`open` / :meth:`append` — the buffered single-writer side
      (the sweep journal).  Records serialise as
      ``json.dumps(record, sort_keys=True)`` plus newline, flushed and
      fsynced per append, so the on-disk bytes are pinned.
    * :meth:`append_atomic` — the multi-writer side (the run ledger):
      one ``O_APPEND`` write of the full line per record, under
      :data:`_APPEND_LOCK`.
    * :meth:`replay` — torn-line-tolerant reads.  ``torn="stop"`` treats
      an undecodable line as the crash point and stops (journal
      semantics: everything after a torn line is the dead process's);
      ``torn="skip"`` steps over it (ledger semantics: a torn line must
      not hide records a *different* process appended after it).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None

    # -- reading ---------------------------------------------------------

    def replay(self, torn: str = "stop") -> Iterator[Tuple[int, Dict]]:
        """Yield ``(lineno, record)`` per line; a missing file is empty.

        Blank lines are skipped but keep their line number, so a header
        check against ``lineno == 0`` stays exact.
        """
        if torn not in ("stop", "skip"):
            raise ValueError(f"torn must be 'stop' or 'skip', got {torn!r}")
        if not self.path.exists():
            return
        with open(self.path, "r") as fh:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if torn == "stop":
                        break
                    continue
                yield lineno, record

    # -- buffered single-writer appends (the journal) --------------------

    def open(self, truncate: bool) -> None:
        """Open for buffered appends (``truncate=True`` starts fresh)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w" if truncate else "a")

    def append(self, record: Dict) -> None:
        """Append one record: write, flush, fsync."""
        self._fh.write(_encode(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None

    # -- lock-guarded multi-writer appends (the ledger) ------------------

    def append_atomic(self, record: Dict) -> None:
        """Append one record as a single ``O_APPEND`` write + fsync."""
        data = _encode(record).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _APPEND_LOCK:
            fd = os.open(self.path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            finally:
                os.close(fd)


# -- root resolution -----------------------------------------------------


def ledger_root(config: Optional["api_config.RunConfig"] = None,
                ) -> Optional[Path]:
    """The ledger directory, or ``None`` when no ledger is configured.

    ``RunConfig.ledger`` (env ``REPRO_RUN_LEDGER``) names it explicitly
    — or disables the ledger with ``off``/``none``/``0`` — and otherwise
    it defaults to ``ledger/`` beside the asset-store entries it
    describes.  Without a store either, there is no ledger.
    """
    cfg = config if config is not None else api_config.active()
    raw = cfg.ledger
    if raw:
        if raw.strip().lower() in _DISABLED_TOKENS:
            return None
        return Path(raw)
    if cfg.store:
        return Path(cfg.store) / "ledger"
    return None


def ledger_path(root: Optional[Path] = None) -> Optional[Path]:
    """The ledger file under ``root`` (default: the configured root)."""
    root = ledger_root() if root is None else Path(root)
    if root is None:
        return None
    return root / "ledger.jsonl"


# -- per-process counters (surfaced by /v1/stats) ------------------------

_COUNTERS_LOCK = threading.Lock()
_COUNTERS = {"appends": 0, "errors": 0}


def counters() -> Dict[str, int]:
    """This process's append/error counts (successful/failed appends)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def _bump(name: str) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] += 1


def reset_counters() -> None:
    """Zero the per-process counters (test isolation)."""
    with _COUNTERS_LOCK:
        for name in _COUNTERS:
            _COUNTERS[name] = 0


# -- record construction -------------------------------------------------

#: ``False`` = not yet resolved (``None`` is a valid "no repository"
#: answer and must be cached too).
_GIT_SHA: Any = False


def git_sha() -> Optional[str]:
    """The HEAD commit of the repository the running code lives in, or
    ``None`` (no git, no repository, any failure).  Cached per process."""
    global _GIT_SHA
    if _GIT_SHA is False:
        sha: Optional[str] = None
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip() or None
        except Exception:
            sha = None
        _GIT_SHA = sha
    return _GIT_SHA


def _registry_stamps(platforms: Iterable[str],
                     solvers: Iterable[str]) -> Dict[str, Dict[str, int]]:
    """Per-name registration stamps for the names this run touched.

    Names missing from a registry (a variant token whose family was
    never materialised in this process) are simply omitted — the record
    must describe the run, not fail it.
    """
    from repro.api.registry import PLATFORM_REGISTRY, SOLVER_REGISTRY

    def stamps(registry, names) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name in dict.fromkeys(names):
            try:
                out[name] = registry.versions((name,))[0]
            except KeyError:
                continue
        return out

    return {"platforms": stamps(PLATFORM_REGISTRY, platforms),
            "solvers": stamps(SOLVER_REGISTRY, solvers)}


def _is_record(record: Any) -> bool:
    return (isinstance(record, dict) and record.get("type") == "RunLedger"
            and record.get("version") == LEDGER_VERSION)


class RunLedger:
    """One ledger file: concurrency-safe appends + tolerant replay."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._log = JsonlLog(path)

    def append(self, record: Dict) -> None:
        self._log.append_atomic(record)

    def replay(self) -> List[Dict]:
        """Every well-formed ledger record, in append order.

        Torn lines and alien records (wrong ``type``/``version``) are
        skipped, not fatal: the ledger spans many writers over the
        deployment's lifetime and must replay whatever survives.
        """
        return [record for _, record in self._log.replay(torn="skip")
                if _is_record(record)]

    def tail(self, max_bytes: int) -> List[Dict]:
        """The well-formed records in the file's last ``max_bytes``, in
        append order (a record the window cuts is skipped like a torn
        line); a missing file has none."""
        try:
            with open(self.path, "rb") as fh:
                start = max(0, fh.seek(0, os.SEEK_END) - max_bytes)
                fh.seek(start)
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return []
        if start:
            lines = lines[1:]
        records = []
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if _is_record(record):
                records.append(record)
        return records

    def stats(self) -> Dict[str, int]:
        """On-disk totals: well-formed record count and file size."""
        if not self.path.exists():
            return {"records": 0, "nbytes": 0}
        return {"records": len(self.replay()),
                "nbytes": int(self.path.stat().st_size)}


def record_run(kind: str, *, spec: Any, scale: Optional[str],
               criterion: Any, runs: Iterable[Any],
               failures: Iterable[Any] = (), stats: Any = None,
               platforms: Iterable[str] = (), solvers: Iterable[str] = (),
               extra: Optional[Dict[str, Any]] = None) -> Optional[Path]:
    """Append one completed-run record to the configured ledger.

    Never raises: with no ledger configured this is a no-op, and any
    failure (unwritable root, full disk, a result that will not
    serialise) degrades to a ``RuntimeWarning`` — the run itself already
    succeeded and must stay successful.  Returns the ledger path on a
    successful append, else ``None``.
    """
    root = ledger_root()
    if root is None:
        return None
    path = root / "ledger.jsonl"
    try:
        record = {
            "type": "RunLedger",
            "version": LEDGER_VERSION,
            "kind": kind,
            "ts": round(time.time(), 3),
            "pid": os.getpid(),
            "spec": spec if isinstance(spec, dict) else spec.to_dict(),
            "scale": scale,
            "criterion": (asdict(criterion)
                          if is_dataclass(criterion) else criterion),
            "config": api_config.active().to_dict(),
            "registry": _registry_stamps(platforms, solvers),
            "git_sha": git_sha(),
            "runs": [run.to_dict() for run in runs],
            "failures": [f.to_dict() for f in failures],
            "stats": None if stats is None else stats.to_dict(),
        }
        if extra:
            record.update(extra)
        RunLedger(path).append(record)
    except Exception as exc:
        _bump("errors")
        warnings.warn(
            f"run ledger append to {path} failed ({exc!r}); the run "
            f"itself is unaffected", RuntimeWarning, stacklevel=2)
        return None
    _bump("appends")
    return path


def solve_costs() -> Dict[Tuple[str, int, str, str], int]:
    """Recorded solve cost per ``(scale, sid, solver, platform)``.

    The cost is ``iterations × nnz`` (the SpMV work of the solve; a run
    that did not converge spent its whole iteration budget) from the
    newest record in the ledger's last :data:`COST_TAIL_BYTES`.  The
    records hold modelled hardware time, not host time, so work is the
    proxy.  Empty with no ledger configured or an unreadable one.
    """
    path = ledger_path()
    if path is None:
        return {}
    costs: Dict[Tuple[str, int, str, str], int] = {}
    try:
        records = RunLedger(path).tail(COST_TAIL_BYTES)
    except OSError:
        return costs
    for record in records:
        try:
            for run in record.get("runs") or ():
                for platform, cell in run["platforms"].items():
                    costs[(record["scale"], int(run["sid"]), run["solver"],
                           platform)] = (int(cell["iterations"])
                                         * int(run["nnz"]))
        except (KeyError, TypeError, ValueError, AttributeError):
            continue  # an alien run shape: skip the rest of the record
    return costs


def ledger_stats() -> Dict[str, Any]:
    """Ledger totals for ``store --stats`` and the daemon's ``/v1/stats``:
    the resolved path, on-disk record count/bytes, and this process's
    append/error counters.  Never raises (an unreadable ledger reports
    zero records)."""
    out: Dict[str, Any] = {"path": None, "records": 0, "nbytes": 0}
    out.update(counters())
    try:
        path = ledger_path()
        if path is not None:
            out["path"] = str(path)
            out.update(RunLedger(path).stats())
    except Exception:  # pragma: no cover - stats must never fail a caller
        pass
    return out
