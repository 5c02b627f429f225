"""Multi-tenant warm caches: one isolated cache pair per namespace.

Each client namespace owns a private :class:`~repro.exec.ResultCache`
(proof verdicts, content-addressed on package text × VC fingerprint ×
prover config) and a private :class:`~repro.logic.NormalizationCache`
(normal forms, keyed on ``simplifier_rules_key`` ×
:func:`~repro.logic.canon.fingerprint`).  Both stay warm across requests
of the same namespace -- the second proof of an already-proved package
replays from cache -- and the isolation guarantee is structural, not
key-based: namespaces map to *distinct cache instances* (and distinct
on-disk directories under ``state_dir/cache/<namespace>``), so no key
collision, however contrived, can leak one tenant's entries to another.
Within a namespace the entries are fingerprint-scoped exactly as in the
batch harness, which is what makes warm hits sound (DESIGN.md §8, §13).

The service must therefore *always* pass a tenant's caches into the
``ExecConfig`` it executes with -- ``cache=None`` would silently select
the process-wide default cache and merge every tenant into one pool.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..exec.cache import ResultCache
from ..incr.manifest import ManifestStore
from ..logic.normcache import NormalizationCache

__all__ = ["TenantCaches", "TenantRegistry"]


@dataclass
class TenantCaches:
    """The warm state of one namespace."""

    namespace: str
    result_cache: ResultCache
    norm_cache: NormalizationCache
    #: Per-tenant run manifests (``state_dir/manifest/<namespace>``) for
    #: incremental re-verification; ``None`` on a non-durable daemon.
    manifest_store: Optional[ManifestStore] = None
    requests_served: int = 0

    def snapshot(self) -> dict:
        return {
            "namespace": self.namespace,
            "requests_served": self.requests_served,
            "result_entries": len(self.result_cache),
            "result_hits": self.result_cache.hits,
            "result_misses": self.result_cache.misses,
            "norm_entries": len(self.norm_cache),
            "norm_hits": self.norm_cache.hits,
            "norm_misses": self.norm_cache.misses,
        }


class TenantRegistry:
    """Lazily materializes and hands out per-namespace cache pairs.

    ``state_dir`` (when given) adds a per-tenant on-disk result-cache
    tier under ``state_dir/cache/<namespace>``, so warm verdicts survive
    daemon restarts -- a replayed request after ``kill -9`` re-proves
    only what was never finished.
    """

    def __init__(self, state_dir: Optional[Path] = None):
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantCaches] = {}

    def get(self, namespace: str) -> TenantCaches:
        """The namespace's caches, created on first use.  The namespace
        string is validated at the protocol layer (path-safe)."""
        with self._lock:
            tenant = self._tenants.get(namespace)
            if tenant is None:
                disk = None
                manifests = None
                if self.state_dir is not None:
                    disk = self.state_dir / "cache" / namespace
                    manifests = ManifestStore(
                        self.state_dir / "manifest" / namespace)
                tenant = TenantCaches(
                    namespace=namespace,
                    result_cache=ResultCache(disk_dir=disk),
                    norm_cache=NormalizationCache(),
                    manifest_store=manifests)
                self._tenants[namespace] = tenant
            return tenant

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {name: tenant.snapshot()
                    for name, tenant in sorted(self._tenants.items())}
