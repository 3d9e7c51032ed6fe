"""Declarative, JSON-serialisable run descriptions.

A :class:`SuiteSpec` names *what* to run — solver, scale, platform subset,
matrix subset — and a :class:`RunRequest` is its per-matrix unit of work.
Both are frozen dataclasses of primitives with lossless
``to_json``/``from_json`` round-trips, so a run description can cross a
process boundary as data: the suite runner's process-pool payload *is* a
:class:`RunRequest`, and ``solve --remote`` posts the same object to the
solve daemon as JSON.  Runtime concerns (worker counts, store paths) stay
out of these objects — that is :class:`repro.api.config.RunConfig`'s job,
because the right store path for one process is the wrong one for another.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.api.config import (
    SCALES,
    check_criterion as _check_criterion,
    parse_payload,
    tag_payload,
)
from repro.solvers.base import ConvergenceCriterion

__all__ = ["SuiteSpec", "RunRequest"]

_JSON_VERSION = 1


def _check_scale(scale: Optional[str], required: bool) -> None:
    if scale is None:
        if required:
            raise ValueError("scale must be a concrete scale name")
        return
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def _as_tuple(value, kind) -> Optional[tuple]:
    """Normalise an optional name/id selection to a non-empty tuple.

    Shared with :mod:`repro.api.sweep` (its solver/baseline/sid axes carry
    the same contract).
    """
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        raise ValueError(
            f"expected a sequence of values, got the bare string {value!r} "
            f"(did you mean [{value!r}]?)")
    out = tuple(kind(v) for v in value)
    if not out:
        raise ValueError("platform/sid subsets must be non-empty (use None "
                         "for the default full set)")
    return out


def _json_body(obj, type_name: str) -> Dict[str, Any]:
    return tag_payload(asdict(obj), type_name, _JSON_VERSION)


def _json_parse(data: Dict[str, Any], type_name: str) -> Dict[str, Any]:
    return parse_payload(data, type_name, _JSON_VERSION)


@dataclass(frozen=True)
class SuiteSpec:
    """A whole-suite sweep, declaratively.

    ``platforms``/``sids`` of ``None`` mean the defaults (the paper's
    four-platform grid over all 12 matrices); ``scale`` of ``None`` defers
    to the active :class:`RunConfig`.  Execute with
    :func:`repro.experiments.common.run_spec`.
    """

    solver: str = "cg"
    scale: Optional[str] = None
    platforms: Optional[Tuple[str, ...]] = None
    sids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.solver:
            raise ValueError("solver must be non-empty")
        _check_scale(self.scale, required=False)
        object.__setattr__(self, "platforms",
                           _as_tuple(self.platforms, str))
        object.__setattr__(self, "sids", _as_tuple(self.sids, int))

    def request(self, sid: int, scale: str,
                platforms: Optional[Tuple[str, ...]] = None) -> "RunRequest":
        """The per-matrix work unit for ``sid`` at a resolved ``scale``."""
        return RunRequest(sid=sid, solver=self.solver, scale=scale,
                          platforms=platforms if platforms is not None
                          else self.platforms)

    def replace(self, **changes: Any) -> "SuiteSpec":
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return _json_body(self, "SuiteSpec")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SuiteSpec":
        return cls(**_json_parse(data, "SuiteSpec"))

    @classmethod
    def from_json(cls, text: str) -> "SuiteSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class RunRequest:
    """One matrix run: the picklable/serialisable unit of distribution.

    Unlike :class:`SuiteSpec`, the scale is concrete (a request must mean
    the same work in every process) and the sid is singular.  This object
    is exactly what crosses the process-pool pickle boundary, and what the
    solve daemon accepts as a ``"RunRequest"`` payload.

    ``criterion`` pins the convergence criterion the solve must use;
    ``None`` defers to the executing process's active config.  Suite and
    sweep runners always stamp the resolved criterion in, so a request
    means the same work in a worker process whose config diverged from the
    parent's (workers inherit their environment at fork time).
    """

    sid: int
    solver: str
    scale: str
    platforms: Optional[Tuple[str, ...]] = None
    criterion: Optional[ConvergenceCriterion] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sid", int(self.sid))
        if not self.solver:
            raise ValueError("solver must be non-empty")
        _check_scale(self.scale, required=True)
        object.__setattr__(self, "platforms",
                           _as_tuple(self.platforms, str))
        object.__setattr__(self, "criterion",
                           _check_criterion(self.criterion))

    def replace(self, **changes: Any) -> "RunRequest":
        return replace(self, **changes)

    def key(self) -> str:
        """Canonical identity string: the sorted-key JSON body.

        Equal requests produce equal keys in every process (tuples
        serialise as lists, keys sort), so the key is what failure records
        and the sweep journal index by across crash/resume boundaries.
        """
        return self.to_json()

    def to_dict(self) -> Dict[str, Any]:
        return _json_body(self, "RunRequest")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRequest":
        return cls(**_json_parse(data, "RunRequest"))

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        return cls.from_dict(json.loads(text))
