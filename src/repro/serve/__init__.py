"""repro.serve -- verification as a service.

An asyncio daemon that accepts verification requests -- a package (AES
corpus or inline source), a request kind (``examine`` / ``prove`` /
``refactor``), and an :class:`~repro.exec.ExecConfig` -- over a
line-delimited JSON protocol on stdin/stdout, executes them on the
existing examiner/prover/refactoring machinery, and streams per-VC
obligation events back to the client as they happen.

What the daemon adds over the batch harness (DESIGN.md §14):

* a **durable queue** -- requests are journaled before they are
  acknowledged, so a killed daemon (``kill -9`` included) replays and
  finishes in-flight work on restart;
* **priority lanes** -- interactive examiner queries dispatch ahead of
  bulk corpus proofs, under bounded queue depth with backpressure;
* **warm caches** -- one ``ResultCache``, ``NormalizationCache`` and
  incremental ``ManifestStore`` stay warm across requests;
* **metrics** -- per-request latency, queue depth and lane utilisation,
  dumped atomically in the ``results/telemetry.json`` schema.

Entry points: ``python -m repro.serve`` (daemon),
:class:`~repro.serve.client.ServeClient` (thin synchronous client),
:class:`VerificationService` (embed the service in an asyncio app).
"""

from .client import ServeClient
from .config import DEFAULT_LANES, ServeConfig, parse_lanes
from .journal import Journal, QueueItem
from .lanes import LaneBoard, QueueFull
from .protocol import (LANES, PROTOCOL_VERSION, ProtocolError, decode_line,
                       default_lane, encode_message, normalize_submit)
from .service import RequestFailed, VerificationService, execute_request

__all__ = [
    "PROTOCOL_VERSION", "LANES", "ProtocolError", "encode_message",
    "decode_line", "normalize_submit", "default_lane",
    "ServeConfig", "DEFAULT_LANES", "parse_lanes",
    "Journal", "QueueItem", "LaneBoard", "QueueFull",
    "VerificationService", "RequestFailed", "execute_request",
    "ServeClient",
]
