"""The verification service: asyncio daemon core.

``VerificationService`` glues the pieces together (DESIGN.md §14):

* admission -- ``submit`` validates the request (protocol layer), admits
  it into a bounded priority lane (:mod:`repro.serve.lanes`), journals it
  (:mod:`repro.serve.journal`, durable-then-ack), and only then returns
  ``accepted``;
* execution -- worker tasks pull the highest-priority dispatchable item
  and run the actual proof work in a thread
  (:func:`execute_request` -- plain synchronous code over the existing
  ``Examiner`` / ``ImplementationProof`` / ``AESPipeline`` entry points,
  configured by the request's :class:`~repro.exec.ExecConfig`);
* streaming -- each request gets its own
  :class:`~repro.exec.Telemetry`; a subscription bridges every
  :class:`~repro.exec.ObligationEvent` (the exec taxonomy, unchanged)
  from the proving thread into the event loop and on to the client as
  ``event`` messages, so a client watches per-VC progress live;
* warm state -- per-namespace cache pairs
  (:mod:`repro.serve.tenants`) are handed to every execution, so repeat
  requests hit warm and tenants stay isolated;
* metrics -- request lifecycle events land in a service-level telemetry
  whose dump (``results/telemetry.json`` schema, written atomically)
  gains a ``serve`` context block: per-lane depth/served/latency
  percentiles and per-tenant cache statistics.

Blocking-IO stance: journal appends (fsync) and result publication are
small files written from the event loop -- microseconds-to-milliseconds
against proof runs of seconds; correctness (durable-then-ack ordering)
is worth far more here than the microsecond concurrency.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional

from ..exec import events as ev
from ..exec.config import ExecConfig
from ..exec.telemetry import Telemetry, percentile
from .config import ServeConfig
from .journal import Journal, QueueItem
from .lanes import LaneBoard, QueueFull
from .protocol import PROTOCOL_VERSION, ProtocolError, normalize_submit
from .tenants import TenantCaches, TenantRegistry

__all__ = ["RequestFailed", "VerificationService", "execute_request"]


class RequestFailed(Exception):
    """A request that was validly admitted but cannot produce a result
    (bad source text, unknown subprogram, infeasible analysis).  The
    message is client-visible in the ``result`` reply."""


# ---------------------------------------------------------------------------
# Synchronous request execution (runs on a worker thread)
# ---------------------------------------------------------------------------

def _resolve_exec(request: dict, tenant: TenantCaches,
                  telemetry: Telemetry,
                  default_exec: ExecConfig) -> ExecConfig:
    """The effective ExecConfig: server defaults overlaid with the
    request's ``exec`` keys, then pinned to the tenant's result cache and
    the request's telemetry.  The pinning is the isolation boundary --
    without it the scheduler would fall back to the process-wide default
    cache shared by every tenant."""
    overlay = request.get("exec") or {}
    merged = default_exec.to_json()
    merged.update(overlay)
    config = ExecConfig.from_json(merged)
    return dataclasses.replace(config, cache=tenant.result_cache,
                               telemetry=telemetry)


def _resolve_package(request: dict):
    """``(typed package, proof scripts)`` for the request."""
    package = request["package"]
    if "corpus" in package:
        from ..aes.annotations import annotated_package
        typed = annotated_package()
        scripts = {}
        if request.get("scripts", True):
            from ..aes.proof_scripts import aes_proof_scripts
            scripts = aes_proof_scripts()
        return typed, scripts
    from ..lang import analyze, parse_package
    try:
        typed = analyze(parse_package(package["source"]))
    except Exception as exc:   # noqa: BLE001 - frontend fault boundary:
        # lexer/parser/typechecker diagnostics become the client's error
        raise RequestFailed(f"package does not analyze: {exc}")
    return typed, {}


def _resolve_subprograms(request: dict, typed) -> Optional[List[str]]:
    names = request.get("subprograms")
    if names is None:
        return None
    unknown = [name for name in names if name not in typed.signatures]
    if unknown:
        raise RequestFailed(f"unknown subprograms: {sorted(unknown)}")
    return list(names)


def _run_examine(request: dict, typed, tenant: TenantCaches,
                 telemetry: Telemetry) -> dict:
    """An interactive examiner query: generate + simplify VCs, streaming
    one submitted/started/finished event triple per subprogram (kind
    ``examine`` -- the exec taxonomy applied to analysis work)."""
    from ..vcgen import Examiner
    names = _resolve_subprograms(request, typed)
    if names is None:
        names = [sp.name for sp in typed.package.subprograms]
    examiner = Examiner(typed, shared=tenant.norm_cache)
    subprograms = []
    started = time.perf_counter()
    for name in names:
        telemetry.record(ev.SUBMITTED, "examine", name)
        telemetry.record(ev.STARTED, "examine", name)
        t0 = time.perf_counter()
        report = examiner.examine([name])
        analysis = report.per_subprogram[name]
        telemetry.record(ev.FINISHED, "examine", name,
                         wall=time.perf_counter() - t0,
                         detail="feasible" if analysis.feasible
                         else "infeasible")
        subprograms.append({
            "name": name,
            "feasible": analysis.feasible,
            "failure_reason": analysis.failure_reason,
            "vc_count": analysis.vc_count,
            "discharged_by_simplifier": analysis.discharged_count,
            "generated_bytes": analysis.generated_bytes,
            "simplified_bytes": analysis.simplified_bytes,
            "max_residue_lines": analysis.max_residue_lines,
        })
    return {
        "kind": "examine",
        "feasible": all(s["feasible"] for s in subprograms),
        "vc_count": sum(s["vc_count"] for s in subprograms),
        "discharged_by_simplifier": sum(s["discharged_by_simplifier"]
                                        for s in subprograms),
        "subprograms": subprograms,
        "wall_seconds": time.perf_counter() - started,
    }


def _run_prove(request: dict, typed, scripts, tenant: TenantCaches,
               exec_config: ExecConfig) -> dict:
    """A proof request: the full implementation-proof session, warm
    caches included.  The verdict list is the serve layer's unit of
    bit-identity: it must match the batch harness VC for VC."""
    from ..prover import ImplementationProof
    names = _resolve_subprograms(request, typed)
    incremental = bool(request.get("incremental"))
    if incremental and tenant.manifest_store is None:
        # Manifests live under state_dir/manifest/<namespace>; without a
        # state dir there is nowhere to persist or read one.  Loud
        # failure, same stance as the flag validators.
        raise RequestFailed("incremental prove requires a durable daemon "
                            "(--state-dir)")
    proof = ImplementationProof(typed, scripts=scripts, exec=exec_config,
                                norm_cache=tenant.norm_cache,
                                manifest=tenant.manifest_store,
                                incremental=incremental)
    result = proof.run(names)
    verdicts = [{
        "subprogram": o.vc.subprogram,
        "vc": o.vc.name,
        "vc_kind": o.vc.kind,
        "stage": o.stage,
        "proved": o.result.proved if o.result is not None else None,
        "method": o.result.method if o.result is not None else None,
    } for o in result.outcomes]
    payload = {
        "kind": "prove",
        "feasible": result.feasible,
        "total_vcs": result.total_vcs,
        "auto_discharged": result.auto_discharged,
        "interactive_discharged": result.interactive_discharged,
        "undischarged": len(result.undischarged),
        "auto_percent": result.auto_percent,
        "all_proved": result.all_proved,
        "verdicts": verdicts,
        "wall_seconds": result.wall_seconds,
    }
    if result.incremental is not None:
        payload["incremental"] = result.incremental.to_json()
    return payload


def _run_refactor(request: dict, exec_config: ExecConfig) -> dict:
    """A refactoring-chain request over the AES corpus: apply the named
    prefix of the 14 transformation blocks, each application checked by
    its semantics-preservation theorem (differential trials run through
    the scheduler, so their events stream like any obligation's)."""
    from ..aes.blocks import AESPipeline
    from ..refactor.engine import TransformationError
    params = request.get("params") or {}
    upto = params.get("upto", 14)
    trials = params.get("trials", 6)
    pipeline = AESPipeline(check="differential", trials=trials,
                           exec=exec_config)
    try:
        blocks = pipeline.run(upto=upto)
    except TransformationError as exc:
        raise RequestFailed(f"refactoring chain failed: {exc}")
    return {
        "kind": "refactor",
        "upto": upto,
        "trials": trials,
        "blocks": [{
            "index": block.index,
            "title": block.title,
            "transformations": block.transformation_count,
            "preserved": all(app.preserved
                             for app in block.applications),
        } for block in blocks],
        "package_chars": len(blocks[-1].package_text) if blocks else 0,
    }


def execute_request(request: dict, tenant: TenantCaches,
                    telemetry: Telemetry,
                    default_exec: ExecConfig) -> dict:
    """Execute one normalized request synchronously and return its result
    payload.  Everything here is ordinary batch-harness code -- the serve
    layer adds only the cache pinning and the telemetry bridge, which is
    why daemon verdicts are bit-identical to the batch reference."""
    try:
        exec_config = _resolve_exec(request, tenant, telemetry,
                                    default_exec)
    except (ValueError, TypeError) as exc:
        raise RequestFailed(f"bad exec config: {exc}")
    kind = request["kind"]
    if kind == "refactor":
        return _run_refactor(request, exec_config)
    typed, scripts = _resolve_package(request)
    if kind == "examine":
        return _run_examine(request, typed, tenant, telemetry)
    return _run_prove(request, typed, scripts, tenant, exec_config)


# ---------------------------------------------------------------------------
# The asyncio service
# ---------------------------------------------------------------------------

class VerificationService:
    """Admission, durable queueing, execution, streaming, metrics.

    Lifecycle: ``await start()`` (replays the journal, spawns workers),
    then ``submit`` / ``wait`` / ``status`` from connection handlers or
    direct callers, then ``await stop()`` (drains running requests;
    pending ones stay journaled for the next start).  All methods are
    event-loop-side; the proof work itself runs on threads.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self.journal = Journal(self.config.state_dir)
        self.board = LaneBoard(self.config.lanes, self.config.max_queue)
        self.tenants = TenantRegistry(state_dir=self.config.state_dir)
        #: Service-level request telemetry: one submitted/started/
        #: finished-or-errored triple per request (kind ``request``), so
        #: queue depth, latency percentiles and failure counts fall out
        #: of the standard ExecStats machinery.
        self.telemetry = Telemetry()
        self.shutdown_requested = asyncio.Event()
        self._results: Dict[str, dict] = {}
        self._known_ids: set = set()
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._watchers: Dict[str, List[asyncio.Future]] = {}
        self._latencies: Dict[str, List[float]] = \
            {lane: [] for lane in self.board.capacity}
        self._workers: List[asyncio.Task] = []
        self._seq = 0
        self._started = False
        self._replayed = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Replay the journal, compact it, spawn workers.  Returns the
        number of replayed (re-enqueued) requests."""
        assert not self._started
        self._started = True
        pending = self.journal.replay()
        self.journal.compact(pending)
        self._known_ids = self.journal.known_ids() | set(self._results)
        for item in pending:
            self.board.admit(item, force=True)
            self.telemetry.record(ev.SUBMITTED, "request", item.request_id,
                                  detail=f"{item.lane},replayed")
        self._replayed = len(pending)
        worker_count = sum(self.board.capacity.values())
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(worker_count)]
        return self._replayed

    async def stop(self) -> None:
        """Graceful stop: no new dispatch, running requests finish and
        publish, queued requests stay journaled for the next start."""
        self.board.close()
        if self._workers:
            await asyncio.gather(*self._workers)
        self._dump_telemetry()

    def request_shutdown(self) -> None:
        self.shutdown_requested.set()

    # -- admission -----------------------------------------------------------

    def _new_id(self) -> str:
        while True:
            self._seq += 1
            candidate = f"r{self._seq:05d}"
            if candidate not in self._known_ids:
                return candidate

    async def submit(self, message: dict,
                     outbox: Optional[asyncio.Queue] = None) -> dict:
        """Admit one ``submit`` message; returns the ``accepted`` reply.
        Raises :class:`~repro.serve.protocol.ProtocolError` on validation
        failure, duplicate id, or backpressure.  ``outbox`` (when given)
        receives the request's ``event`` stream and ``result``."""
        request = normalize_submit(message)
        request_id = request["id"] or self._new_id()
        if request_id in self._known_ids:
            raise ProtocolError("duplicate_id",
                                f"request id {request_id!r} already exists",
                                request_id)
        request["id"] = request_id
        item = QueueItem(request_id=request_id, lane=request["lane"],
                         namespace=request["namespace"], request=request,
                         enqueued_wall=time.time())
        try:
            depth = self.board.admit(item)
        except QueueFull as exc:
            raise ProtocolError("backpressure", str(exc), request_id)
        try:
            self.journal.append_enqueue(item)   # durable-then-ack
        except BaseException:
            self.board.retract(item)
            raise
        self._known_ids.add(request_id)
        if outbox is not None:
            self._subscribers.setdefault(request_id, []).append(outbox)
        self.telemetry.record(ev.SUBMITTED, "request", request_id,
                              detail=item.lane)
        return {"reply": "accepted", "id": request_id, "lane": item.lane,
                "namespace": item.namespace, "queue_depth": depth,
                "durable": self.journal.durable}

    # -- waiting / status ----------------------------------------------------

    async def wait(self, request_id: str) -> dict:
        """The terminal ``result`` reply for ``request_id`` -- immediately
        if it already finished (this process or, via the result store, a
        previous one), else once it completes."""
        cached = self._results.get(request_id)
        if cached is not None:
            return cached
        stored = self.journal.load_result(request_id)
        if stored is not None:
            return stored
        if request_id not in self._known_ids:
            raise ProtocolError("unknown_id",
                                f"no request {request_id!r}", request_id)
        future = asyncio.get_running_loop().create_future()
        self._watchers.setdefault(request_id, []).append(future)
        return await future

    def status(self) -> dict:
        lanes = self.board.snapshot()
        for lane, samples in self._latencies.items():
            lanes[lane]["latency_p50_seconds"] = percentile(samples, 0.50)
            lanes[lane]["latency_p95_seconds"] = percentile(samples, 0.95)
        return {
            "reply": "status",
            "protocol": PROTOCOL_VERSION,
            "durable": self.journal.durable,
            "replayed": self._replayed,
            "lanes": lanes,
            "pending": self.board.pending_ids(),
            "namespaces": len(self.tenants),
            "tenants": self.tenants.snapshot(),
            "results_held": len(self._results),
        }

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            picked = await self.board.next_item()
            if picked is None:
                return
            lane, item = picked
            try:
                await self._run_item(lane, item)
            finally:
                self.board.task_done(lane)

    async def _run_item(self, lane: str, item: QueueItem) -> None:
        request_id = item.request_id
        loop = asyncio.get_running_loop()
        self.telemetry.record(ev.STARTED, "request", request_id,
                              detail=lane)
        request_telemetry = Telemetry()

        def forward(event, _rid=request_id):
            loop.call_soon_threadsafe(self._publish_event, _rid, event)

        subscription = request_telemetry.subscribe(forward)
        tenant = self.tenants.get(item.namespace)
        # Monotonic delta: wall-clock steps between admission and dispatch
        # must not distort the latency (the old wall-time delta needed a
        # max(0, ...) clamp that silently swallowed backward steps and
        # just as silently inflated forward ones).
        queue_seconds = time.monotonic() - item.enqueued_mono
        started = time.perf_counter()
        try:
            payload = await asyncio.to_thread(
                execute_request, item.request, tenant, request_telemetry,
                self.config.default_exec)
            status, error = "ok", None
        except RequestFailed as exc:
            status, error, payload = "error", str(exc), None
        except Exception as exc:   # noqa: BLE001 - worker fault boundary:
            # an unexpected execution failure must become a client-visible
            # error reply, never a dead worker slot
            status, payload = "error", None
            error = f"{type(exc).__name__}: {exc}"
        finally:
            subscription.close()
        run_seconds = time.perf_counter() - started
        tenant.requests_served += 1

        message = {
            "reply": "result", "id": request_id, "status": status,
            "kind": item.request["kind"], "lane": lane,
            "namespace": item.namespace,
            "queue_seconds": queue_seconds, "run_seconds": run_seconds,
            "exec_stats": request_telemetry.stats().to_json(),
        }
        if payload is not None:
            message["result"] = payload
        if error is not None:
            message["error"] = error

        self.journal.write_result(request_id, message)
        self.journal.append_done(request_id, status)
        self._results[request_id] = message
        self._latencies[lane].append(queue_seconds + run_seconds)
        self.telemetry.record(
            ev.FINISHED if status == "ok" else ev.ERRORED, "request",
            request_id, wall=run_seconds, detail=lane)
        self._publish_result(request_id, message)
        self._dump_telemetry()

    # -- streaming -----------------------------------------------------------

    def _publish_event(self, request_id: str, event) -> None:
        outboxes = self._subscribers.get(request_id)
        if not outboxes:
            return
        message = {"reply": "event", "id": request_id,
                   "event": event.to_json()}
        for outbox in outboxes:
            outbox.put_nowait(message)

    def _publish_result(self, request_id: str, message: dict) -> None:
        for outbox in self._subscribers.pop(request_id, []):
            outbox.put_nowait(message)
        for future in self._watchers.pop(request_id, []):
            if not future.done():
                future.set_result(message)

    # -- metrics -------------------------------------------------------------

    def _dump_telemetry(self) -> None:
        """Atomically publish the service telemetry (the harness's
        ``results/telemetry.json`` schema plus a ``serve`` context block)
        after every terminal request and at shutdown."""
        out = self.config.telemetry_out
        if out is None:
            return
        lanes = self.board.snapshot()
        for lane, samples in self._latencies.items():
            lanes[lane]["latency_p50_seconds"] = percentile(samples, 0.50)
            lanes[lane]["latency_p95_seconds"] = percentile(samples, 0.95)
        self.telemetry.dump_json(out, context={
            "serve": {
                "durable": self.journal.durable,
                "replayed": self._replayed,
                "max_queue": self.config.max_queue,
                "lanes": lanes,
                "namespaces": len(self.tenants),
                "tenants": self.tenants.snapshot(),
            },
            "default_exec": self.config.default_exec.to_json(),
        })
