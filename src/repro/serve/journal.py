"""The durable obligation queue: an append-only journal with replay.

Durability contract (DESIGN.md §14): a request is journaled *before* its
``accepted`` reply is sent, so once a client has seen ``accepted`` the
request survives any daemon death -- ``kill -9`` included -- and is
re-executed on the next start.  Three pieces:

* ``journal.jsonl`` -- one JSON record per line, appended with
  flush + fsync.  ``{"op": "enqueue", ...}`` admits a request;
  ``{"op": "done", ...}`` marks it terminal.  A record is the unit of
  atomicity: a writer killed mid-line leaves a torn final line, which
  replay detects (it fails to parse) and discards -- by construction
  only the *last* line can be torn, and a torn ``enqueue`` was never
  acknowledged to any client.
* ``results/<id>.json`` -- the full ``result`` reply of each finished
  request, published atomically and fsynced (the
  :mod:`~repro.exec.durable` publish), so a client reconnecting after a
  restart can ``wait`` for an id and get the exact message it would have
  streamed live.  These files are plain JSON, not records: their layout
  is the ``result`` reply itself.
* startup compaction -- after replay the journal is rewritten (again
  atomically) to hold only the still-pending ``enqueue`` records, so it
  cannot grow without bound across restarts.

Opening a durable journal sweeps the temp files of publishes that a
killed writer never finished.

With no ``state_dir`` the journal is a no-op shell: the service runs
memory-only (accepted work dies with the process) -- the README documents
this as the non-durable mode.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..exec.durable import atomic_write_text, read_json, sweep_tmp

__all__ = ["QueueItem", "Journal"]


@dataclass
class QueueItem:
    """One admitted request, as journaled and as queued."""

    request_id: str
    lane: str
    namespace: str
    request: dict          # the normalized submit record (plain JSON data)
    enqueued_wall: float   # epoch seconds at admission (journal record only)
    #: Monotonic clock at admission: the queue-latency reference.  Wall
    #: time steps (NTP slews, manual clock changes) must never distort
    #: ``queue_seconds``, so the measurement clock is monotonic and the
    #: wall timestamp is informational.  Not serialized -- a journal
    #: replay re-enqueues with a fresh monotonic reading, measuring
    #: latency from re-admission (cross-reboot monotonic deltas are
    #: meaningless anyway).
    enqueued_mono: float = field(default_factory=time.monotonic)

    def to_json(self) -> dict:
        return {"op": "enqueue", "id": self.request_id, "lane": self.lane,
                "namespace": self.namespace, "request": self.request,
                "t": self.enqueued_wall}

    @classmethod
    def from_json(cls, record: dict) -> "QueueItem":
        return cls(request_id=record["id"], lane=record["lane"],
                   namespace=record["namespace"],
                   request=record["request"],
                   enqueued_wall=record.get("t", 0.0))


class Journal:
    """Append-only request journal + atomic result store."""

    def __init__(self, state_dir: Optional[os.PathLike]):
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.results_dir.mkdir(parents=True, exist_ok=True)
            sweep_tmp(self.state_dir, "journal.jsonl.*.tmp")
            sweep_tmp(self.results_dir, "*.json.*.tmp")

    @property
    def durable(self) -> bool:
        return self.state_dir is not None

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    @property
    def results_dir(self) -> Path:
        return self.state_dir / "results"

    # -- appending -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self.state_dir is None:
            return
        line = json.dumps(record, separators=(",", ":"),
                          ensure_ascii=True) + "\n"
        # Open-append-fsync-close per record: admission happens a handful
        # of times per second at most, and a freshly opened descriptor
        # cannot inherit a stale offset from a forked worker.
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def append_enqueue(self, item: QueueItem) -> None:
        """Journal an admission.  MUST complete before the request is
        acknowledged to the client (durable-then-ack)."""
        self._append(item.to_json())

    def append_done(self, request_id: str, status: str) -> None:
        self._append({"op": "done", "id": request_id, "status": status,
                      "t": time.time()})

    # -- results -------------------------------------------------------------

    def write_result(self, request_id: str, message: dict) -> None:
        """Persist a request's terminal ``result`` reply (atomic).  Write
        the result *before* the ``done`` journal record: a crash between
        the two replays the request, which is wasteful but safe; the
        opposite order could mark a request done with no result to show."""
        if self.state_dir is None:
            return
        atomic_write_text(self.results_dir / f"{request_id}.json",
                          json.dumps(message, indent=2))

    def load_result(self, request_id: str) -> Optional[dict]:
        if self.state_dir is None:
            return None
        # A damaged result (near-impossible under atomic publication) reads
        # as absent: the request is re-runnable.
        result, _ = read_json(self.results_dir / f"{request_id}.json")
        return result

    def result_ids(self) -> Set[str]:
        if self.state_dir is None:
            return set()
        return {path.stem for path in self.results_dir.glob("*.json")}

    # -- replay --------------------------------------------------------------

    def replay(self) -> List[QueueItem]:
        """The still-pending admissions, in original admission order.

        Pending = journaled ``enqueue`` without a matching ``done`` *and*
        without a persisted result (the result file is authoritative: a
        crash after ``write_result`` but before ``append_done`` must not
        re-run the request).  Torn or corrupt lines are skipped.
        """
        if self.state_dir is None or not self.journal_path.is_file():
            return []
        enqueued: Dict[str, QueueItem] = {}
        done: Set[str] = set()
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    op = record["op"]
                    if op == "enqueue":
                        item = QueueItem.from_json(record)
                        enqueued.setdefault(item.request_id, item)
                    elif op == "done":
                        done.add(record["id"])
                except (ValueError, KeyError, TypeError):
                    continue   # torn final line of a killed writer
        finished = done | self.result_ids()
        return [item for item in enqueued.values()
                if item.request_id not in finished]

    def compact(self, pending: List[QueueItem]) -> None:
        """Atomically rewrite the journal to exactly ``pending``."""
        if self.state_dir is None:
            return
        lines = "".join(json.dumps(item.to_json(), separators=(",", ":"),
                                   ensure_ascii=True) + "\n"
                        for item in pending)
        atomic_write_text(self.journal_path, lines)

    def known_ids(self) -> Set[str]:
        """Every id this journal has ever acknowledged and still knows
        about: pending replays plus persisted results (used for
        duplicate-id rejection across restarts)."""
        return {item.request_id for item in self.replay()} \
            | self.result_ids()
