"""Append-only sweep journal: crash-durable progress for ``run_sweep``.

A killed sweep (OOM, SIGKILL, power loss) used to throw away every
completed cell.  With a journal attached, the parent appends one JSONL
record per completed :class:`RunRequest` — flushed and fsynced as results
arrive — and a re-invocation with ``resume=True`` loads the journal,
skips every journaled cell, and solves only what is missing.

Layout (version-stamped JSONL)::

    {"type": "SweepJournal", "version": 1, "spec": {...},
     "scale": "...", "criterion": {...}}          # header, line 1
    {"key": "<RunRequest.key()>", "run": {...}}   # one line per result

``run`` is :meth:`MatrixRun.to_dict` — the JSON-safe summary.  Resumed
cells are therefore *summary-grade*: convergence, iterations and times
survive (everything sweep reporting consumes), iterate vectors and
residual histories do not.  A resume validates the header against the
sweep being run — journals never silently mix grids — and tolerates a
torn final line (the record being written when the process died).

The journal is a thin specialisation of the shared
:class:`repro.experiments.ledger.JsonlLog` core (the run ledger is the
other consumer): the core owns the fsynced append and the
torn-line-tolerant replay; this module owns the header pinning and the
later-records-win keyed replay.

The default location (when a caller asks for a journal without naming a
path) lives under the asset-store root, keyed by a digest of everything
the header pins — spec, resolved scale, criterion:
``$REPRO_ASSET_STORE/journals/sweep-<digest>.jsonl`` — so the same sweep
always resumes from the same file and two sweeps of the same grid at
different scales or tolerances get *different* files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from repro.api import config as api_config
from repro.api.sweep import SweepSpec
from repro.experiments import store
from repro.experiments.ledger import JsonlLog
from repro.solvers.base import ConvergenceCriterion

__all__ = ["JOURNAL_VERSION", "SweepJournal", "default_journal_path"]

JOURNAL_VERSION = 1


def _journal_root() -> Path:
    root = store.store_root()
    if root is None:
        raise ValueError(
            "no asset store configured: a default journal path needs "
            "REPRO_ASSET_STORE (or RunConfig.store) set, or pass an "
            "explicit journal path")
    return Path(root) / "journals"


def default_journal_path(spec: SweepSpec, scale: Optional[str] = None,
                         criterion: Optional[ConvergenceCriterion] = None,
                         ) -> Path:
    """The store-rooted journal path for ``spec`` (stable across runs).

    The digest covers everything the journal header pins — the spec
    *and* the resolved scale *and* the criterion — so sweeps that differ
    only in scale or tolerance get distinct files instead of one file
    and a header-mismatch refusal.  ``scale``/``criterion`` default to
    the spec's scale (resolved against the active config) and the active
    config's criterion, exactly as ``run_sweep`` resolves them.
    """
    from repro.sparse.gallery.suite import resolve_scale

    scale = resolve_scale(spec.scale if scale is None else scale)
    if criterion is None:
        criterion = api_config.active().effective_criterion
    payload = json.dumps(
        {"spec": spec.to_dict(), "scale": scale,
         "criterion": asdict(criterion)}, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return _journal_root() / f"sweep-{digest}.jsonl"


class SweepJournal:
    """One journal file: header-validated append/replay of sweep results."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._log = JsonlLog(path)

    def _header(self, spec: SweepSpec, scale: str,
                criterion: ConvergenceCriterion) -> Dict:
        return {
            "type": "SweepJournal", "version": JOURNAL_VERSION,
            "spec": spec.to_dict(), "scale": scale,
            "criterion": asdict(criterion),
        }

    @staticmethod
    def _normalise_header(record: Dict) -> Dict:
        # Journals written before the tolerance axis existed have no
        # "tols" key in their spec dict; absent means the same thing
        # None does now.
        if isinstance(record, dict) and isinstance(record.get("spec"), dict):
            record["spec"].setdefault("tols", None)
        return record

    def load(self, spec: SweepSpec, scale: str,
             criterion: ConvergenceCriterion) -> Dict[str, "object"]:
        """Replay the journal: ``{request key: MatrixRun}`` (summary-grade).

        Missing file = nothing journaled.  A header that does not match
        the sweep being resumed raises ``ValueError`` (resuming cell X of
        grid A into grid B would silently corrupt results); a torn final
        record is skipped.  Later records win over earlier ones for the
        same key (append-only re-runs overwrite by replay order).
        """
        from repro.experiments.common import MatrixRun

        if not self.path.exists():
            return {}
        expected = self._header(spec, scale, criterion)
        runs: Dict[str, MatrixRun] = {}
        for lineno, record in self._log.replay(torn="stop"):
            if lineno == 0:
                if self._normalise_header(record) != expected:
                    raise ValueError(
                        f"journal {self.path} was written by a "
                        f"different sweep (spec/scale/criterion "
                        f"mismatch); refusing to resume")
                continue
            runs[record["key"]] = MatrixRun.from_dict(record["run"])
        return runs

    def open(self, spec: SweepSpec, scale: str,
             criterion: ConvergenceCriterion, resume: bool) -> None:
        """Open for appending.  Fresh runs truncate and write the header;
        resumes (validated by :meth:`load` first) append after it."""
        if resume and self.path.exists():
            self._log.open(truncate=False)
            return
        self._log.open(truncate=True)
        self._append(self._header(spec, scale, criterion))

    def _append(self, record: Dict) -> None:
        self._log.append(record)

    def record(self, key: str, run) -> None:
        """Append one completed result (flushed + fsynced: a record either
        fully survives a crash or is a torn line the replay skips)."""
        self._append({"key": key, "run": run.to_dict()})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
