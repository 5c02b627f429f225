"""The distributed proof farm (DESIGN.md §16).

``backend='remote'`` in :class:`~repro.exec.scheduler
.ObligationScheduler` leases proof obligations to worker processes on
other hosts over sockets.  Three pieces:

* :mod:`~repro.exec.remote.coordinator` -- connection registry,
  versioned ``hello``/``welcome`` handshake, batch lease/ack protocol
  with per-worker in-flight bounds, lease-expiry monitoring, and
  flapping-host quarantine;
* :mod:`~repro.exec.remote.worker` -- the worker entry point
  (``python -m repro.exec.remote.worker --connect host:port``), running
  the process backend's exact execution function;
* :mod:`~repro.exec.remote.link` -- framed line-JSON sockets with
  base64-pickled payload blobs over the shared :mod:`repro.protocol`.
"""

from .coordinator import RemoteCoordinator
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = [
    "RemoteCoordinator", "spawn_worker", "REJECTED_EXIT",
    "Link", "encode_blob", "decode_blob", "parse_address",
]

_WORKER_NAMES = ("spawn_worker", "REJECTED_EXIT", "main")


def __getattr__(name):
    # The worker module is imported lazily so that ``python -m
    # repro.exec.remote.worker`` does not import it twice (runpy warns
    # when the target module is already in sys.modules).
    if name in _WORKER_NAMES:
        from . import worker
        return getattr(worker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
