"""Durable files: one publish rule, one record rule, one sweep rule.

Every file left for a later process goes through here: the result
cache's disk tier, the incremental manifests, the plan cache, the serve
journal's results and compaction, the reports and telemetry dumps.

**Publish.**  :func:`atomic_write_text` writes a ``mkstemp`` file
(``<name>.<random>.tmp``) beside the target and renames it over the
target with ``os.replace``: readers see the old file or the new one,
never half of either.  ``fsync=True`` flushes it first, so a crash right
after publication cannot surface an empty file; stores whose loss is
only a miss (the result cache) skip that.

**Records.**  A record is a JSON object whose ``schema`` field tags the
store's layout (bumped when it changes) and whose ``scope`` field is the
digest of the inputs its body is valid for.  :func:`load_record` returns
``(record, "")``, or ``(None, reason)`` with one of four reasons:
``absent`` (no readable file), ``torn`` (not JSON), ``schema`` (another
layout or version), ``scope`` (other inputs).
It never raises: a miss means "start cold", never an error.

**Sweep.**  A writer killed between ``mkstemp`` and ``os.replace``
leaves its temp file behind; each store runs :func:`sweep_tmp` over its
own temp-file pattern once, when it opens.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Tuple

__all__ = ["atomic_write_text", "atomic_write_json", "write_record",
           "read_json", "load_record", "sweep_tmp", "STALE_TMP_SECONDS"]

#: Older temp files are a dead writer's orphans; younger ones may be live.
STALE_TMP_SECONDS = 600.0

#: An mtime this far in the future can only come from a clock step.
CLOCK_STEP_SLACK_SECONDS = 5.0


def atomic_write_text(path, text: str, encoding: str = "utf-8", *,
                      fsync: bool = True) -> None:
    """Publish ``text`` at ``path`` atomically.  On any failure the temp
    file is removed and the old ``path`` (if any) is left untouched."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload: Any, indent: Optional[int] = 2, *,
                      fsync: bool = True) -> None:
    """:func:`atomic_write_text` of ``json.dumps(payload)``."""
    atomic_write_text(path, json.dumps(payload, indent=indent), fsync=fsync)


def write_record(path, schema: str, scope: str, body: dict, *,
                 fsync: bool = True) -> None:
    """Publish ``body`` as a record tagged with ``schema`` and
    ``scope``."""
    atomic_write_json(path, {"schema": schema, "scope": scope, **body},
                      indent=None, fsync=fsync)


def read_json(path) -> Tuple[Any, str]:
    """``(data, "")``, or ``(None, "absent" | "torn")``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return None, "absent"
    try:
        return json.loads(text), ""
    except ValueError:
        return None, "torn"


def load_record(path, schema: str, scope: str) -> Tuple[Optional[dict], str]:
    """``(record, "")`` when ``path`` holds a record of ``schema`` under
    ``scope``, else ``(None, reason)``."""
    data, reason = read_json(path)
    if reason:
        return None, reason
    if not isinstance(data, dict) or data.get("schema") != schema:
        return None, "schema"
    if data.get("scope") != scope:
        return None, "scope"
    return data, ""


def sweep_tmp(directory, pattern: str,
              older_than: float = STALE_TMP_SECONDS) -> int:
    """Unlink the orphaned temp files matching ``pattern`` under
    ``directory``; returns how many went.  ``older_than=0`` removes every
    match (the caller asserts there is no live writer).

    The age gate survives wall-clock steps: the clock is sampled again
    for each file, a future-dated file is never removed (it is a live
    writer seen across a backwards step), and any future-dated file
    doubles the grace period for the whole sweep."""
    entries = list(Path(directory).glob(pattern))
    if older_than:
        ages = []
        for entry in entries:
            try:
                ages.append((entry, time.time() - entry.stat().st_mtime))
            except OSError:
                continue   # already gone
        stepped = any(age < -CLOCK_STEP_SLACK_SECONDS for _, age in ages)
        grace = older_than * (2.0 if stepped else 1.0)
        entries = [entry for entry, age in ages if age >= grace]
    removed = 0
    for entry in entries:
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass   # already gone, or racing with its writer
    return removed
