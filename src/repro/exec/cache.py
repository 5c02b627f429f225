"""Content-addressed result cache for proof obligations.

Keys are SHA-256 digests over a canonical serialization of everything the
obligation's result depends on: the logic term (via
:func:`repro.logic.canon.fingerprint`, which is stable across processes
and interning order), the enclosing program/theory text, and the prover
configuration.  Two layers:

* an in-memory dict (always on) -- makes re-verification of unchanged
  subprograms within one process (e.g. after each refactoring block, or a
  warm second ``verify_aes`` run) a hit;
* an optional on-disk store (one JSON file per key under a directory,
  conventionally ``.repro-cache/``) -- makes runs incremental *across*
  processes.  Only obligations that declare JSON codecs
  (:attr:`~repro.exec.obligation.Obligation.encode`/``decode``) use it.
  Each entry is a :mod:`~repro.exec.durable` record of schema
  :data:`CACHE_SCHEMA` whose scope is its own key, written without
  fsync: a lost entry is only a miss.

Correctness stance: a hit replays the recorded result verbatim -- the same
``ProofResult``/lemma ``Evidence`` contents the original discharge produced
-- so every downstream statistic (VC outcome stages, auto-percentages,
lemma evidence levels) is identical to a cold run.  See DESIGN.md
("Obligation-level execution").
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .durable import load_record, sweep_tmp, write_record

__all__ = ["make_key", "ResultCache", "default_cache",
           "package_fingerprint", "theory_fingerprint", "CACHE_SCHEMA"]

#: ``v1`` was the untagged ``{"key", "value"}`` layout.
CACHE_SCHEMA = "repro-cache/v2"

#: Temp files of interrupted ``put`` calls, relative to the disk tier.
_TMP_PATTERN = "*/*.tmp"

_MISS = object()


def make_key(*parts: str) -> str:
    """SHA-256 over the concatenated key parts (separator-safe)."""
    payload = "\x1f".join(parts)
    return hashlib.sha256(payload.encode()).hexdigest()


def _memo_fingerprint(obj, source: Callable[[], str]) -> str:
    """SHA-256 of ``source()``, memoized on ``obj`` (immutable once
    analyzed, so a digest is needed once per obligation batch, not once
    per obligation)."""
    cached = getattr(obj, "_exec_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(source().encode()).hexdigest()
    try:
        obj._exec_fingerprint = digest
    except AttributeError:   # __slots__-restricted object: recompute next time
        pass
    return digest


def package_fingerprint(typed, *, source: Optional[str] = None) -> str:
    """Stable digest of a typed MiniAda package (its printed source).
    ``source`` is ``print_package(typed.package)`` when the caller already
    printed it; it is printed here otherwise."""
    def printed() -> str:
        from ..lang import print_package
        return print_package(typed.package) if source is None else source
    return _memo_fingerprint(typed, printed)


def theory_fingerprint(theory) -> str:
    """Stable digest of a MiniPVS theory (its printed source)."""
    def printed() -> str:
        from ..spec import print_theory
        return print_theory(theory)
    return _memo_fingerprint(theory, printed)


class ResultCache:
    """Two-layer (memory + optional disk) content-addressed result store."""

    def __init__(self, disk_dir: Optional[os.PathLike] = None):
        self._lock = threading.Lock()
        self._memory: Dict[str, Any] = {}
        self._hits = 0
        self._misses = 0
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            sweep_tmp(self.disk_dir, _TMP_PATTERN)

    # -- core ---------------------------------------------------------------

    def get(self, key: str,
            decode: Optional[Callable[[Any], Any]] = None
            ) -> Tuple[bool, Any]:
        """Return ``(hit, value)``.  Consults memory, then disk (when the
        caller supplies a decoder)."""
        with self._lock:
            value = self._memory.get(key, _MISS)
            if value is not _MISS:
                self._hits += 1
                return True, value
        if self.disk_dir is not None and decode is not None:
            record, _ = load_record(self._path(key), CACHE_SCHEMA, key)
            if record is not None:
                try:
                    value = decode(record["value"])
                except (ValueError, KeyError, TypeError):
                    pass   # corrupt entry: treat as a miss, will be rewritten
                else:
                    with self._lock:
                        self._memory[key] = value
                        self._hits += 1
                    return True, value
        with self._lock:
            self._misses += 1
        return False, None

    def put(self, key: str, value: Any,
            encode: Optional[Callable[[Any], Any]] = None) -> None:
        with self._lock:
            self._memory[key] = value
        if self.disk_dir is not None and encode is not None:
            # Atomic publish: concurrent writers of the same key race to an
            # identical final state.
            try:
                write_record(self._path(key), CACHE_SCHEMA, key,
                             {"value": encode(value)}, fsync=False)
            except OSError:
                pass   # the disk tier is best-effort: a lost entry is a miss

    def _path(self, key: str) -> Path:
        return self.disk_dir / key[:2] / f"{key}.json"

    # -- maintenance / stats -------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self._hits = self._misses = 0
        if self.disk_dir is not None:
            for entry in self.disk_dir.glob("*/*.json"):
                try:
                    entry.unlink()
                except OSError:
                    pass
            # clear() asserts no live writers: every orphan goes.
            sweep_tmp(self.disk_dir, _TMP_PATTERN, older_than=0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses


_DEFAULT: Optional[ResultCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process-wide cache used when no explicit instance is given.

    Memory-only unless the ``REPRO_CACHE_DIR`` environment variable names
    a directory (conventionally ``.repro-cache``), in which case results
    with JSON codecs persist across processes.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            disk = os.environ.get("REPRO_CACHE_DIR") or None
            _DEFAULT = ResultCache(disk_dir=disk)
        return _DEFAULT
