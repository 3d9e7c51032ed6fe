"""Persistent on-disk matrix-asset store (``REPRO_ASSET_STORE``).

Asset construction — matrix generation, the :class:`BlockedMatrix`
partition argsort, operator quantisation — dominates suite wall-clock once
the solve kernels are fast, and it used to be repeated by every cold
process: CI jobs, process-pool workers, back-to-back sweeps.  This module
materialises the solver-independent part of a ``(sid, scale)`` asset —
the CSR matrix, the paper right-hand side ``A @ 1`` and the partition's
index-only BSR layout — to a versioned, checksummed on-disk format that a
cold process attaches to via ``np.load(..., mmap_mode="r")`` instead of
regenerating.

Layout
------
Since v3 every array in an entry is 1-D, O(n + nnz) in all: the CSR
arrays plus the three index arrays of :class:`repro.sparse.bsr.BSRBlocks`
(block ``indptr``/``indices`` and the per-nonzero ``block_of_nnz``).  A
worker memory-maps them and reassembles nothing.  v2 stored every occupied
block as a dense ``2^b x 2^b`` float64 tile (128 KiB per block at b=7);
v1 stored the grouping arrays (``order``, ``group_starts``, ...), which
derive lazily on attach.  Old ``v1/`` and ``v2/`` roots read as misses and
age out via GC.

::

    $REPRO_ASSET_STORE/
      v3/                                # bump STORE_VERSION to invalidate
        <sid>-<scale>/                   # one atomically-published entry
          meta.json                      # version, shapes, dtypes, crc32s
          A_data.npy A_indices.npy A_indptr.npy     # matrix as generated
          C_data.npy C_indices.npy C_indptr.npy     # canonical CSR (only
                                                    #   when A is not
                                                    #   already canonical)
          b.npy                                     # RHS = A @ ones
          bsr_indptr.npy bsr_indices.npy            # block BSR indexing
          bsr_block_of_nnz.npy                      # block of each nonzero
          refloat_q_<spec>.npy                      # caller extra: the
                                                    #   quantised values,
                                                    #   canonical CSR order

Every array file's CRC32 is recorded in ``meta.json``; a load verifies
version, dtypes, shapes and checksums, and *any* mismatch — truncation,
bit rot, a stale layout — discards the entry and reports a miss, so the
caller falls back to a rebuild that atomically replaces it.  Entries are
written to a temporary sibling directory and published with one
``os.rename``, so concurrent writers (process-pool workers, parallel CI
jobs) race benignly: the first rename wins and later writers discard
their copy.

Eviction is manual and always safe: delete entry directories (or a whole
``v*`` root) at any time; the affected keys simply rebuild.  The store
trusts the suite generators to be deterministic per ``(sid, scale)`` —
when generator code changes, bump :data:`STORE_VERSION` so stale entries
are ignored rather than served.

Counters
--------
:func:`counters` exposes monotonically-increasing per-process counts of
``builds`` (full asset constructions), ``hits``/``misses`` (store probes)
and ``invalid`` (entries discarded by verification) — the hook CI uses to
assert a warm-store suite run performs **zero** builds.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional

import numpy as np
import scipy.sparse as sp

from repro.api import config
from repro.sparse.blocked import BlockedMatrix
from repro.sparse.bsr import BSRBlocks
from repro.sparse.mmio import csr_from_arrays, csr_to_arrays

__all__ = [
    "STORE_VERSION",
    "StoreEntry",
    "store_root",
    "entry_path",
    "has_entry",
    "save_entry",
    "load_entry",
    "discard_entry",
    "note_build",
    "counters",
    "reset_counters",
    "entry_stats",
    "store_stats",
    "gc_store",
]

#: On-disk format version; bump when the layout *or* the suite generators
#: change, so stale entries read as misses instead of wrong data.
#: v2: contiguous BSR layout replaces the v1 block-grouping arrays.
#: v3: the BSR layout is index-only; no dense block tiles on disk.
STORE_VERSION = 3

_BSR_ARRAYS = ("bsr_indptr", "bsr_indices", "bsr_block_of_nnz")
_ORIGINAL_CSR = ("A_data", "A_indices", "A_indptr")
_CANONICAL_CSR = ("C_data", "C_indices", "C_indptr")
#: Every array name the core layout may use; anything else in an entry is a
#: caller-owned extra.  The single source of truth for save-side collision
#: checks and load-side required/extra classification.
_CORE_ARRAYS = frozenset(_ORIGINAL_CSR) | frozenset(_CANONICAL_CSR) \
    | {"b"} | frozenset(_BSR_ARRAYS)

_COUNTER_LOCK = threading.Lock()


def _reset_counter_dict() -> Dict[str, int]:
    return {"builds": 0, "hits": 0, "misses": 0, "saves": 0, "invalid": 0}


_COUNTERS: Dict[str, int] = _reset_counter_dict()


def _bump(name: str) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[name] += 1


def note_build(sid: int, scale: str) -> None:
    """Record one full asset construction (the store's cache-miss cost)."""
    _bump("builds")


def counters() -> Dict[str, int]:
    """Snapshot of the per-process store counters (see module docstring)."""
    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def reset_counters() -> None:
    """Zero the per-process counters (tests and the CI smoke harness)."""
    global _COUNTERS
    with _COUNTER_LOCK:
        _COUNTERS = _reset_counter_dict()


# ----------------------------------------------------------------------
# Paths and configuration


def store_root() -> Optional[Path]:
    """The configured store directory, or ``None`` when the store is off.

    Sourced from the active :class:`repro.api.config.RunConfig` (i.e.
    ``REPRO_ASSET_STORE`` unless a config object is installed).
    """
    store = config.active().store
    if not store:
        return None
    return Path(store)


def _verify_checksums() -> bool:
    """Checksum verification toggle (``store_verify`` /
    ``REPRO_ASSET_STORE_VERIFY=0`` skips).

    Verification reads each file once, which at paper scale is still far
    cheaper than a rebuild; disabling it keeps loads purely lazy/mmapped
    for stores on trusted local disks.
    """
    return config.active().store_verify


def entry_path(sid: int, scale: str, root: Optional[Path] = None) -> Path:
    """Directory holding the ``(sid, scale)`` entry under the current root."""
    root = store_root() if root is None else root
    if root is None:
        raise ValueError("REPRO_ASSET_STORE is not configured")
    return root / f"v{STORE_VERSION}" / f"{int(sid)}-{scale}"


def has_entry(sid: int, scale: str) -> bool:
    """Whether a published entry exists (no verification — loads still may
    reject it)."""
    root = store_root()
    if root is None:
        return False
    return (entry_path(sid, scale, root) / "meta.json").is_file()


# ----------------------------------------------------------------------
# Saving


def _file_crc32(path: Path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _same_csr(A: sp.csr_matrix, C: sp.csr_matrix) -> bool:
    return (A.shape == C.shape and A.nnz == C.nnz
            and np.array_equal(A.indptr, C.indptr)
            and np.array_equal(A.indices, C.indices)
            and np.array_equal(A.data, C.data))


@dataclass
class StoreEntry:
    """A loaded entry: the matrix exactly as generated, the RHS, the
    reattached partition (whose ``A`` is the canonical matrix), and any
    caller-defined extra arrays that were saved alongside."""

    sid: int
    scale: str
    A: sp.csr_matrix
    b: np.ndarray
    blocked: BlockedMatrix
    extras: Dict[str, np.ndarray]


def save_entry(sid: int, scale: str, A, b: np.ndarray,
               blocked: BlockedMatrix,
               extras: Optional[Dict[str, np.ndarray]] = None,
               ) -> Optional[Path]:
    """Materialise one asset to the store; no-op when the store is off.

    ``A`` is the matrix *as generated* (it backs the exact operator and the
    RHS, so its nonzero order must round-trip bit-exactly); ``blocked`` is
    persisted as its index-only BSR layout plus its canonical CSR
    ``blocked.A`` — the latter only when it differs from ``A``.  ``extras``
    are additional caller-owned arrays (e.g. pre-quantised matrix values in
    canonical CSR order, keyed by format spec) checksummed and
    round-tripped verbatim; their names must not collide with the core
    layout.  The entry is written to a
    temporary sibling and published atomically — losing a publish race to a
    concurrent writer is not an error.  Write-side I/O failures (disk full,
    permissions lost) degrade to a no-save: the store is a cache, and the
    already-built assets must not be thrown away because materialising them
    failed — mirroring the load side's transient-error handling.
    """
    root = store_root()
    if root is None:
        return None
    final = entry_path(sid, scale, root)
    if (final / "meta.json").is_file():
        return final
    A = sp.csr_matrix(A, dtype=np.float64)
    a_arrays, shape = csr_to_arrays(A)
    arrays = dict(zip(_ORIGINAL_CSR, (a_arrays["data"], a_arrays["indices"],
                                      a_arrays["indptr"])))
    canonical_shared = _same_csr(A, blocked.A)
    if not canonical_shared:
        c_arrays, _ = csr_to_arrays(blocked.A)
        arrays.update(zip(_CANONICAL_CSR, (c_arrays["data"],
                                           c_arrays["indices"],
                                           c_arrays["indptr"])))
    arrays["b"] = np.asarray(b, dtype=np.float64)
    bsr = blocked.bsr
    arrays.update(zip(_BSR_ARRAYS, (bsr.indptr, bsr.indices,
                                    bsr.block_of_nnz)))
    for name, arr in (extras or {}).items():
        if name in _CORE_ARRAYS:
            raise ValueError(f"extra array name {name!r} collides with the "
                             f"core store layout")
        arrays[name] = np.asarray(arr)

    tmp = None
    try:
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=final.name + ".tmp-",
                                    dir=final.parent))
        meta = {
            "store_version": STORE_VERSION,
            "sid": int(sid),
            "scale": scale,
            "shape": list(shape),
            "nnz": int(A.nnz),
            "block_b": int(blocked.b),
            "canonical_shared": canonical_shared,
            "arrays": {},
        }
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            np.save(tmp / f"{name}.npy", arr)
            meta["arrays"][name] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "crc32": _file_crc32(tmp / f"{name}.npy"),
            }
        with open(tmp / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
        try:
            os.rename(tmp, final)
        except OSError:
            # Lost the publish race (or the entry appeared meanwhile):
            # keep the winner, drop our copy.
            shutil.rmtree(tmp, ignore_errors=True)
            return final if (final / "meta.json").is_file() else None
    except OSError:
        # Could not materialise (ENOSPC, EACCES, ...): drop the partial
        # write and carry on with the in-memory assets.
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        return None
    except BaseException:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        raise
    _bump("saves")
    return final


# ----------------------------------------------------------------------
# Loading


def discard_entry(sid: int, scale: str) -> None:
    """Remove a (possibly corrupt) entry; missing entries are fine."""
    root = store_root()
    if root is None:
        return
    shutil.rmtree(entry_path(sid, scale, root), ignore_errors=True)


class _EntryInvalid(Exception):
    """Internal: the entry's *content* is provably wrong — delete it."""


class _EntryUnreadable(Exception):
    """Internal: the entry could not be read *right now* (EIO, EMFILE, an
    NFS hiccup...).  Report a miss but leave the entry on disk — a shared
    store must not lose a valid entry to one process's transient I/O
    failure."""


def _load_array(path: Path, spec: dict, mmap: bool) -> np.ndarray:
    try:
        if _verify_checksums() and _file_crc32(path) != spec["crc32"]:
            raise _EntryInvalid(f"checksum mismatch in {path.name}")
        arr = np.load(path, mmap_mode="r" if mmap else None,
                      allow_pickle=False)
    except FileNotFoundError:
        # A published entry missing a file is structurally broken (atomic
        # publish makes this partial-deletion/tampering, not a race).
        raise _EntryInvalid(f"missing array file {path.name}") from None
    except ValueError as exc:
        # np.load rejected the payload (bad magic, truncated header).
        raise _EntryInvalid(f"malformed array {path.name}: {exc}") from None
    except OSError as exc:
        raise _EntryUnreadable(f"cannot read {path.name}: {exc}") from None
    if arr.dtype.str != spec["dtype"] or list(arr.shape) != spec["shape"]:
        raise _EntryInvalid(
            f"{path.name}: expected {spec['dtype']}{spec['shape']}, "
            f"got {arr.dtype.str}{list(arr.shape)}")
    return arr


def load_entry(sid: int, scale: str, mmap: bool = True,
               extras: Iterable[str] = (),
               ) -> Optional[StoreEntry]:
    """Attach to a stored ``(sid, scale)`` asset; ``None`` on miss.

    Only the core layout plus the caller-requested ``extras`` names are
    checksummed and loaded — extras the caller cannot use (e.g. quantised
    data for a different spec) are never read, so they cost nothing and
    their bit rot cannot invalidate an otherwise-good entry; a requested
    extra that the entry does not carry is simply absent from
    ``StoreEntry.extras``.

    Content failures — truncated or bit-rotted arrays, dtype/shape drift, a
    malformed ``meta.json``, version skew, missing files — count as
    ``invalid``, *remove the entry* and report a miss, so the caller's
    rebuild atomically replaces the bad data.  Transient I/O errors (EIO,
    EMFILE, a network-filesystem hiccup) report a plain miss and leave the
    entry untouched — one process's bad moment must not evict a valid
    shared entry.  With ``mmap`` (default) the big arrays come back as
    read-only memory maps shared page-cache-wide across every attached
    process.
    """
    root = store_root()
    if root is None:
        return None
    path = entry_path(sid, scale, root)
    if not (path / "meta.json").is_file():
        _bump("misses")
        return None
    try:
        try:
            with open(path / "meta.json") as fh:
                meta = json.load(fh)
        except ValueError as exc:
            raise _EntryInvalid(f"malformed meta.json: {exc}") from None
        except FileNotFoundError as exc:
            raise _EntryInvalid(f"meta.json vanished: {exc}") from None
        except OSError as exc:
            raise _EntryUnreadable(f"cannot read meta.json: {exc}") from None
        try:
            if (meta["store_version"] != STORE_VERSION
                    or meta["sid"] != int(sid) or meta["scale"] != scale):
                raise _EntryInvalid("version/key mismatch")
            specs = meta["arrays"]
            required = {*_ORIGINAL_CSR, "b", *_BSR_ARRAYS}
            if not meta["canonical_shared"]:
                required |= set(_CANONICAL_CSR)
            if not required <= set(specs):
                raise _EntryInvalid(
                    f"missing core arrays {sorted(required - set(specs))}")
            wanted = required | (set(extras) & set(specs))
            arrays = {name: _load_array(path / f"{name}.npy", specs[name],
                                        mmap)
                      for name in sorted(wanted)}
            shape = tuple(meta["shape"])
            # With checksums verified the arrays were read once already, so
            # the column-bounds scan is page-cache-warm; with verification
            # explicitly disabled the store is declared trusted and the
            # load stays genuinely lazy.
            checked = _verify_checksums()
            A = csr_from_arrays(arrays["A_data"], arrays["A_indices"],
                                arrays["A_indptr"], shape,
                                canonical=meta["canonical_shared"],
                                checked=checked)
            if meta["canonical_shared"]:
                C = A
            else:
                C = csr_from_arrays(arrays["C_data"], arrays["C_indices"],
                                    arrays["C_indptr"], shape, canonical=True,
                                    checked=checked)
            # BSRBlocks runs its cheap structural validation on attach;
            # the per-nonzero block check against C only under
            # store_verify (matching the checksum policy: trusted stores
            # stay lazy).
            bsr = BSRBlocks(meta["block_b"], shape, arrays["bsr_indptr"],
                            arrays["bsr_indices"], arrays["bsr_block_of_nnz"])
            if checked:
                bsr.check_matches(C)
            blocked = BlockedMatrix.from_bsr(C, bsr)
            if arrays["b"].shape != (shape[0],):
                raise _EntryInvalid(
                    f"RHS has shape {arrays['b'].shape}, matrix {shape}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _EntryInvalid(f"malformed entry: {exc}") from None
    except _EntryInvalid:
        _bump("invalid")
        _bump("misses")
        shutil.rmtree(path, ignore_errors=True)
        return None
    except _EntryUnreadable:
        _bump("misses")
        return None
    _bump("hits")
    _note_use(path)
    loaded_extras = {name: arr for name, arr in arrays.items()
                     if name not in _CORE_ARRAYS}
    return StoreEntry(sid=int(sid), scale=scale, A=A, b=arrays["b"],
                      blocked=blocked, extras=loaded_extras)


# ----------------------------------------------------------------------
# Stats and garbage collection

#: Recency sidecar touched on every successful load.  File *access* times
#: are not a reliable LRU signal — page-cache-served mmap reads never
#: update atime, and relatime/noatime mounts suppress it — so GC orders by
#: ``max(newest atime, last_used mtime)``: the sidecar is authoritative on
#: any mount, with atime as the fallback for entries never loaded by a
#: sidecar-aware build.
_LAST_USED = "last_used"


def _note_use(path: Path) -> None:
    """Best-effort recency stamp; read-only stores must not fail loads."""
    try:
        (path / _LAST_USED).touch()
    except OSError:
        pass


def entry_stats(root: Optional[Path] = None) -> list:
    """Per-entry disk usage and recency, across *every* ``v*`` layout root.

    Old-version entries (left behind by a :data:`STORE_VERSION` bump) are
    included — they are exactly what GC should reclaim first.  Each item
    is ``{"key", "version", "path", "nbytes", "atime", "current"}``;
    ``atime`` is the entry's recency — the ``last_used`` sidecar's mtime
    when present, else the newest file access time — the LRU signal
    :func:`gc_store` evicts by.  Entries vanishing mid-scan (a concurrent
    GC or discard) are skipped.
    """
    root = store_root() if root is None else Path(root)
    if root is None or not root.is_dir():
        return []
    out = []
    for vdir in sorted(root.glob("v*")):
        if not vdir.is_dir():
            continue
        for entry in sorted(vdir.iterdir()):
            if not (entry / "meta.json").is_file():
                continue
            nbytes = 0
            atime = 0.0
            try:
                for f in entry.iterdir():
                    st = f.stat()
                    nbytes += st.st_size
                    recency = (st.st_mtime if f.name == _LAST_USED
                               else st.st_atime)
                    atime = max(atime, recency)
            except OSError:
                continue
            out.append({
                "key": entry.name,
                "version": vdir.name,
                "path": str(entry),
                "nbytes": nbytes,
                "atime": atime,
                "current": vdir.name == f"v{STORE_VERSION}",
            })
    return out


def store_stats(root: Optional[Path] = None) -> Dict[str, object]:
    """Aggregate store usage: entry count, total bytes, per-entry detail,
    plus the run ledger's record count/size (the ledger lives under the
    store root but outside the ``v*`` entry namespace, so it is invisible
    to — and safe from — :func:`gc_store`)."""
    from repro.experiments import ledger

    entries = entry_stats(root)
    store = store_root() if root is None else Path(root)
    return {
        "root": str(store) if store is not None else None,
        "entries": len(entries),
        "nbytes": sum(e["nbytes"] for e in entries),
        "per_entry": entries,
        "ledger": ledger.ledger_stats(),
    }


def gc_store(max_bytes: int, root: Optional[Path] = None) -> Dict[str, object]:
    """Evict least-recently-used entries until the store fits ``max_bytes``.

    Recency is the ``last_used`` sidecar :func:`load_entry` stamps on every
    hit (atime is the fallback for entries no sidecar-aware process has
    loaded — see :data:`_LAST_USED`), so warm entries survive even on
    noatime mounts; stale-version entries age out naturally because
    nothing loads them.
    Eviction is always safe — a deleted entry is a future rebuild, never
    data loss — and racing readers degrade to a miss-plus-rebuild.
    Returns ``{"before_nbytes", "after_nbytes", "evicted": [keys],
    "kept": n}``.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    entries = sorted(entry_stats(root), key=lambda e: e["atime"])
    total = sum(e["nbytes"] for e in entries)
    before = total
    evicted = []
    for entry in entries:
        if total <= max_bytes:
            break
        shutil.rmtree(entry["path"], ignore_errors=True)
        total -= entry["nbytes"]
        evicted.append(f"{entry['version']}/{entry['key']}")
    return {
        "before_nbytes": before,
        "after_nbytes": total,
        "evicted": evicted,
        "kept": len(entries) - len(evicted),
    }
