"""The distributed proof farm (DESIGN.md §16).

``backend='remote'`` in :class:`~repro.exec.scheduler
.ObligationScheduler` leases proof obligations to worker processes on
other hosts over sockets.  Three pieces:

* :mod:`~repro.exec.remote.coordinator` -- the remote backend's
  transport: connection registry, versioned ``hello``/``welcome``
  handshake, lease/ack protocol with in-flight bounds, lease expiry,
  and flapping-host quarantine;
* :mod:`~repro.exec.remote.worker` -- the worker entry point
  (``python -m repro.exec.remote.worker --connect host:port``), running
  the process backend's exact execution function; tests and benchmarks
  launch it with its ``spawn_worker`` (not re-exported here, so ``-m``
  does not import the module twice);
* :mod:`~repro.exec.remote.link` -- framed line-JSON sockets with
  base64-pickled payload blobs over the shared :mod:`repro.protocol`.
"""

from .coordinator import RemoteCoordinator
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = [
    "RemoteCoordinator", "Link", "encode_blob", "decode_blob",
    "parse_address",
]
