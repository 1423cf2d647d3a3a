"""Declarative component-graph specifications.

A :class:`TopologySpec` describes the simulated machine as a graph of typed
nodes — caches, TLBs, page-table walkers, cores and a DRAM sink — joined by
two kinds of edges:

* ``next_level`` — where a cache forwards misses (another cache or DRAM),
  and where a walker issues its PTE reads (a cache);
* core *links* — which structures a core's front end, load/store path and
  MMU use (``l1i``, ``l1d``, ``itlb``, ``dtlb``, ``stlb``, optional
  ``istlb``, ``walker``).

Sharing is expressed by reference: two cores whose ``l2c`` chains point at
the same LLC node share that LLC; two cores linking the same ``l2c`` node
share the L2C itself (the ``shared-l2`` preset).  Nothing is wired by hand
anywhere else — every driver builds a machine by handing one of these
specs (usually via :mod:`repro.topology.presets`) to
:class:`repro.core.system.System`.

Specs are frozen, serializable (``to_dict``/``from_dict``) and carry a
stable :meth:`~TopologySpec.content_hash` used by the experiment result
cache: two jobs with identical :class:`SystemConfig` but different
topologies can never collide, because the hash covers every node and edge.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..common.params import CacheConfig, DRAMConfig, PSCConfig, TLBConfig

#: Node kinds and the config dataclass each carries (``core`` nodes carry
#: no config of their own — their behaviour comes from ``SystemConfig``).
KIND_CACHE = "cache"
KIND_TLB = "tlb"
KIND_DRAM = "dram"
KIND_WALKER = "walker"
KIND_CORE = "core"

CONFIG_TYPES = {
    KIND_CACHE: CacheConfig,
    KIND_TLB: TLBConfig,
    KIND_DRAM: DRAMConfig,
    KIND_WALKER: PSCConfig,
}

#: Links every core node must provide (``istlb`` is the optional seventh).
REQUIRED_CORE_LINKS = ("l1i", "l1d", "itlb", "dtlb", "stlb", "walker")
OPTIONAL_CORE_LINKS = ("istlb",)

NodeConfig = Union[CacheConfig, TLBConfig, DRAMConfig, PSCConfig, None]


class TopologyError(ValueError):
    """A topology spec is malformed (bad edge, cycle, missing node, ...)."""


@dataclass(frozen=True)
class NodeSpec:
    """One component of the machine graph.

    ``policy`` and ``prefetcher`` name registry entries
    (:data:`repro.replacement.registry.CACHE_POLICIES`,
    :data:`repro.tlb.policies.registry.TLB_POLICIES`,
    :func:`repro.cache.prefetch.make_prefetcher`); a ``None`` prefetcher
    falls back to the one named in the node's :class:`CacheConfig`.
    ``stats_name`` is the :class:`LevelStats` bucket the structure reports
    into — distinct nodes may share a bucket (both halves of a split STLB
    report as ``STLB``; per-core TLBs of a multicore aggregate likewise).
    ``links`` is only used by ``core`` nodes (role → node name).
    """

    name: str
    kind: str
    config: NodeConfig = None
    policy: Optional[str] = None
    prefetcher: Optional[str] = None
    next_level: Optional[str] = None
    stats_name: Optional[str] = None
    links: Tuple[Tuple[str, str], ...] = ()

    def link(self, role: str) -> Optional[str]:
        """Target node name for a core link role, or ``None``."""
        for key, value in self.links:
            if key == role:
                return value
        return None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.config is not None:
            data["config"] = asdict(self.config)
        if self.policy is not None:
            data["policy"] = self.policy
        if self.prefetcher is not None:
            data["prefetcher"] = self.prefetcher
        if self.next_level is not None:
            data["next_level"] = self.next_level
        if self.stats_name is not None:
            data["stats_name"] = self.stats_name
        if self.links:
            data["links"] = dict(self.links)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeSpec":
        kind = data["kind"]
        config: NodeConfig = None
        if "config" in data:
            config_type = CONFIG_TYPES.get(kind)
            if config_type is None:
                raise TopologyError(f"node kind {kind!r} does not take a config")
            config = config_type(**data["config"])
        links = data.get("links", {})
        return cls(
            name=data["name"],
            kind=kind,
            config=config,
            policy=data.get("policy"),
            prefetcher=data.get("prefetcher"),
            next_level=data.get("next_level"),
            stats_name=data.get("stats_name"),
            links=tuple(sorted(links.items())),
        )


def node(name: str, kind: str, links: Optional[Mapping[str, str]] = None, **kw: Any) -> NodeSpec:
    """Convenience constructor accepting ``links`` as a mapping."""
    return NodeSpec(
        name=name, kind=kind, links=tuple(sorted((links or {}).items())), **kw
    )


@dataclass(frozen=True)
class TopologySpec:
    """The full machine graph: a named, ordered collection of nodes.

    Node order is preserved (it fixes construction and stats-level creation
    order) but is *not* part of the content hash — two specs that differ
    only in node ordering or in their label hash identically.
    """

    name: str
    nodes: Tuple[NodeSpec, ...] = field(default=())

    # -- lookups -------------------------------------------------------- #

    def node(self, name: str) -> NodeSpec:
        for candidate in self.nodes:
            if candidate.name == name:
                return candidate
        raise TopologyError(f"topology {self.name!r} has no node {name!r}")

    def nodes_of_kind(self, kind: str) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind == kind)

    def cores(self) -> Tuple[NodeSpec, ...]:
        return self.nodes_of_kind(KIND_CORE)

    @property
    def num_cores(self) -> int:
        return len(self.cores())

    def cache_path(self, start: str) -> List[NodeSpec]:
        """The ``next_level`` chain from ``start`` down to (excluding) DRAM."""
        path: List[NodeSpec] = []
        current: Optional[str] = start
        seen = set()
        while current is not None:
            if current in seen:
                raise TopologyError(
                    f"topology {self.name!r}: next_level cycle through {current!r}"
                )
            seen.add(current)
            spec = self.node(current)
            if spec.kind == KIND_DRAM:
                break
            path.append(spec)
            current = spec.next_level
        return path

    # -- serialization -------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "nodes": [n.to_dict() for n in self.nodes]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        return cls(
            name=data["name"],
            nodes=tuple(NodeSpec.from_dict(n) for n in data["nodes"]),
        )

    def content_hash(self) -> str:
        """Stable identity of the graph's *content* (nodes + edges).

        Nodes are canonicalized by name and keys are sorted, so the hash is
        insensitive to node ordering and to the spec's label — and therefore
        safe as a cache-key component: equal hash ⇒ identical machine.
        """
        canonical = sorted((n.to_dict() for n in self.nodes), key=lambda d: d["name"])
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- validation ----------------------------------------------------- #

    def validate(self) -> "TopologySpec":
        """Check graph well-formedness; returns ``self`` for chaining.

        Enforces: unique node names, known kinds with matching config
        types, exactly one DRAM sink, resolving edges of the right kinds,
        acyclic ``next_level`` chains that all terminate at the DRAM node,
        and complete core link sets.  Geometry (power-of-two sets, size
        divisibility) is enforced by the config dataclasses themselves at
        construction; policy/prefetcher names are resolved — with their own
        error messages — when the graph is built.
        """
        names = [n.name for n in self.nodes]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise TopologyError(
                f"topology {self.name!r}: duplicate node names {duplicates}"
            )

        drams = self.nodes_of_kind(KIND_DRAM)
        if len(drams) != 1:
            raise TopologyError(
                f"topology {self.name!r}: expected exactly one DRAM sink, "
                f"found {len(drams)}"
            )
        dram_name = drams[0].name

        for spec in self.nodes:
            if spec.kind not in (KIND_CACHE, KIND_TLB, KIND_DRAM, KIND_WALKER, KIND_CORE):
                raise TopologyError(
                    f"topology {self.name!r}: node {spec.name!r} has unknown "
                    f"kind {spec.kind!r}"
                )
            expected = CONFIG_TYPES.get(spec.kind)
            if expected is not None and not isinstance(spec.config, expected):
                raise TopologyError(
                    f"topology {self.name!r}: node {spec.name!r} ({spec.kind}) "
                    f"needs a {expected.__name__} config"
                )
            if spec.kind == KIND_CORE and spec.config is not None:
                raise TopologyError(
                    f"topology {self.name!r}: core node {spec.name!r} takes no config"
                )

        for spec in self.nodes:
            if spec.kind == KIND_CACHE:
                self._check_edge(spec, spec.next_level, (KIND_CACHE, KIND_DRAM))
            elif spec.kind == KIND_WALKER:
                self._check_edge(spec, spec.next_level, (KIND_CACHE,))
            elif spec.next_level is not None:
                raise TopologyError(
                    f"topology {self.name!r}: {spec.kind} node {spec.name!r} "
                    "does not take a next_level edge"
                )

        # Acyclicity + single-sink: every cache chain must reach the DRAM.
        for spec in self.nodes_of_kind(KIND_CACHE):
            path = self.cache_path(spec.name)  # raises on cycles
            tail = path[-1].next_level
            if tail != dram_name:
                raise TopologyError(
                    f"topology {self.name!r}: cache {spec.name!r} does not "
                    f"drain into the DRAM sink {dram_name!r}"
                )

        cores = self.cores()
        if not cores:
            raise TopologyError(f"topology {self.name!r}: needs at least one core")
        link_kinds = {
            "l1i": KIND_CACHE,
            "l1d": KIND_CACHE,
            "itlb": KIND_TLB,
            "dtlb": KIND_TLB,
            "stlb": KIND_TLB,
            "istlb": KIND_TLB,
            "walker": KIND_WALKER,
        }
        for core in cores:
            roles = dict(core.links)
            for role in REQUIRED_CORE_LINKS:
                if role not in roles:
                    raise TopologyError(
                        f"topology {self.name!r}: core {core.name!r} is missing "
                        f"the {role!r} link"
                    )
            for role, target in roles.items():
                if role not in link_kinds:
                    raise TopologyError(
                        f"topology {self.name!r}: core {core.name!r} has unknown "
                        f"link role {role!r}"
                    )
                self._check_edge(core, target, (link_kinds[role],), role=role)
        return self

    def _check_edge(
        self,
        spec: NodeSpec,
        target: Optional[str],
        kinds: Tuple[str, ...],
        role: str = "next_level",
    ) -> None:
        if target is None:
            raise TopologyError(
                f"topology {self.name!r}: {spec.kind} node {spec.name!r} "
                f"needs a {role} edge"
            )
        try:
            target_spec = self.node(target)
        except TopologyError:
            raise TopologyError(
                f"topology {self.name!r}: node {spec.name!r} links {role} to "
                f"missing node {target!r}"
            ) from None
        if target_spec.kind not in kinds:
            raise TopologyError(
                f"topology {self.name!r}: node {spec.name!r} links {role} to "
                f"{target!r} ({target_spec.kind}); expected {' or '.join(kinds)}"
            )
