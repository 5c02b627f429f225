"""The run manifest: what the previous run proved, addressably.

One :mod:`~repro.exec.durable` record per package name under the store
root (``<root>/<package>.json``), published atomically and fsynced so a
crashed writer can never leave a half-manifest behind.  Schema
``repro-incr/v2`` (``v1`` named the scope field ``config_digest``)::

    {
      "schema": "repro-incr/v2",
      "scope": "<sha256 over prover config + examiner limits>",
      "package": "AES",
      "package_fp": "<sha256 of the printed package at save time>",
      "subprograms": {
        "<name>": {
          "cone_fp": "<sha256>",
          "generated_bytes": int, "simplified_bytes": int,
          "work_units": int, "fixpoint_exhausted": int,
          "vcs": [
            {"name": "...", "kind": "...",
             "generated_bytes": int, "simplified_bytes": int,
             "simplifier": bool,          # discharged by the simplifier
             "term_fp": "<Merkle fingerprint of the simplified term>",
             "cache_key": "<ResultCache key>" | null}
          ]
        }
      }
    }

``cache_key`` is the load-bearing field: VC cache keys embed the
*whole-package* fingerprint, so after any edit the re-derived keys all
change -- replay must use the key recorded when the verdict was stored.
``scope`` (:func:`run_config_digest`) scopes the manifest the same way
``simplifier_rules_key`` scopes the normalization cache: a manifest
written under a different prover configuration (timeouts, scripts,
examiner limits) never validates.

Loading is defensive by construction: a missing, torn, truncated,
wrong-schema, wrong-package, or wrong-scope manifest returns ``None``
and the caller falls back to a full run.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional, Union

from ..exec.durable import load_record, sweep_tmp, write_record
from ..exec.events import STORE_MISS

__all__ = ["MANIFEST_SCHEMA", "run_config_digest", "ManifestStore",
           "coerce_manifest_store"]

MANIFEST_SCHEMA = "repro-incr/v2"


def run_config_digest(prover_config: str, limits=None) -> str:
    """Digest of the non-package inputs that shape a verdict: the
    session's prover configuration string (timeouts, interactive
    scripts) and the examiner resource limits.  The package itself is
    *not* in here -- package edits are what the per-subprogram cone
    diff detects."""
    from ..vcgen import ExaminerLimits
    limits = limits if limits is not None else ExaminerLimits()
    token = "\x1f".join([
        prover_config,
        f"tree={limits.max_tree_bytes}",
        f"wp={limits.max_wp_statements}",
    ])
    return hashlib.sha256(token.encode()).hexdigest()


class ManifestStore:
    """Atomic load/save of run manifests under one directory."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        sweep_tmp(self.root, "*.json.*.tmp")

    def path_for(self, package_name: str) -> Path:
        return self.root / f"{package_name}.json"

    def load(self, package_name: str, config_digest: str,
             telemetry=None) -> Optional[dict]:
        """The manifest for ``package_name`` under ``config_digest``, or
        ``None`` for *any* defect: any record miss, a manifest of another
        package, or a structurally malformed subprogram table.  ``None``
        always means "run cold"; with ``telemetry`` the reason is
        recorded as a ``store_miss`` event."""
        record, reason = load_record(self.path_for(package_name),
                                     MANIFEST_SCHEMA, config_digest)
        if record is not None:
            reason = _defect(record, package_name)
        if reason:
            if telemetry is not None:
                telemetry.record(STORE_MISS, "manifest", package_name,
                                 detail=reason)
            return None
        return record

    def save(self, package_name: str, package_fp: str, config_digest: str,
             subprograms: dict) -> Path:
        path = self.path_for(package_name)
        write_record(path, MANIFEST_SCHEMA, config_digest, {
            "package": package_name,
            "package_fp": package_fp,
            "subprograms": subprograms,
        })
        return path


def _defect(record: dict, package_name: str) -> str:
    """The miss reason of a well-tagged manifest, or ``""``."""
    if record.get("package") != package_name:
        return "scope"
    subprograms = record.get("subprograms")
    if not isinstance(subprograms, dict) or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("cone_fp"), str)
            and isinstance(entry.get("vcs"), list)
            for entry in subprograms.values()):
        return "schema"
    return ""


def coerce_manifest_store(manifest) -> Optional[ManifestStore]:
    """``None`` | :class:`ManifestStore` | a directory path -> an
    optional store (the ``manifest=`` argument convention)."""
    if manifest is None or isinstance(manifest, ManifestStore):
        return manifest
    if isinstance(manifest, (str, os.PathLike)):
        return ManifestStore(manifest)
    raise TypeError(f"manifest must be a ManifestStore, a directory "
                    f"path, or None, got {type(manifest).__name__}")
