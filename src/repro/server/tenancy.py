"""Per-tenant namespaces: tenant-prefixed stream ids → per-tenant runtimes.

A multi-tenant deployment serves several independent
:class:`~repro.runtime.Runtime` instances — each with its own registry,
update planes and shards (PR 3's multi-model serving, one level up) — behind
one HTTP listener.  The router owns the name → runtime map and resolves each
wire stream id by its ``tenant/`` prefix.

The *full* wire stream id (prefix included) is what reaches the tenant's
runtime: stripping the prefix would re-route streams (shard assignment
hashes the id) and break the bitwise-parity contract between HTTP ingest and
direct library calls.  Isolation is by construction — a resolved submission
only ever touches its own tenant's runtime, so one tenant's drift-triggered
publishes can never move another tenant's ``model_version``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from .wire import WireError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import Runtime

__all__ = ["TenantRouter"]


class TenantRouter:
    """Resolve wire stream ids to tenant runtimes by prefix.

    Parameters
    ----------
    tenants:
        ``name -> Runtime`` map.  Names must not contain the separator.
    default:
        Optional tenant name that un-prefixed stream ids (and ids whose
        prefix is not a registered tenant) fall back to.  Without a default,
        such ids are refused with a 404 — in a strict multi-tenant
        deployment an unknown prefix is a client addressing error, not a new
        namespace to silently create.
    separator:
        The prefix delimiter in wire stream ids (``tenant/stream``).
    """

    def __init__(
        self,
        tenants: Mapping[str, "Runtime"],
        *,
        default: Optional[str] = None,
        separator: str = "/",
    ) -> None:
        if not separator:
            raise ValueError("separator must be non-empty")
        self.separator = separator
        self._tenants: Dict[str, "Runtime"] = {}
        for name, runtime in tenants.items():
            self.register(name, runtime)
        if not self._tenants:
            raise ValueError("tenants must not be empty")
        if default is not None and default not in self._tenants:
            raise ValueError(f"default tenant {default!r} is not registered")
        self.default = default

    def register(self, name: str, runtime: "Runtime") -> None:
        """Add one tenant (names are unique; the separator is reserved)."""
        if not name or self.separator in name:
            raise ValueError(
                f"tenant name must be non-empty and must not contain "
                f"{self.separator!r}, got {name!r}"
            )
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        self._tenants[name] = runtime

    def items(self) -> List[Tuple[str, "Runtime"]]:
        """``(name, runtime)`` pairs in registration order."""
        return list(self._tenants.items())

    def group(self, stream_ids: Sequence[str]) -> List[Tuple["Runtime", List[int]]]:
        """The positions of ``stream_ids`` per owning runtime, tenants in
        order of first appearance; :class:`WireError` 404 as :meth:`resolve`."""
        if len(self._tenants) == 1 and self.default is not None:
            return [(self._tenants[self.default], list(range(len(stream_ids))))]
        groups: Dict[int, Tuple["Runtime", List[int]]] = {}
        for position, stream_id in enumerate(stream_ids):
            runtime = self.resolve(stream_id)
            groups.setdefault(id(runtime), (runtime, []))[1].append(position)
        return list(groups.values())

    def resolve(self, stream_id: str) -> "Runtime":
        """The runtime owning ``stream_id``; :class:`WireError` 404 if none."""
        prefix, found, _ = stream_id.partition(self.separator)
        if found and prefix in self._tenants:
            return self._tenants[prefix]
        if self.default is not None:
            return self._tenants[self.default]
        raise WireError(
            404,
            f"stream {stream_id!r} does not resolve to a registered tenant",
        )
