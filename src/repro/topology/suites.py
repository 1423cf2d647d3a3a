"""Table 2 techniques as first-class policy suites.

A :class:`PolicySuite` names one column of the paper's Table 2: which
replacement policy runs at each structure (structures not listed use LRU).
The :data:`SUITES` registry is the single source of truth — the
``POLICY_MATRIX`` mapping in :mod:`repro.experiments.runner` and the
``config_for`` technique lookup are both derived from it, so the technique
list, its ordering and the unknown-technique error message can never drift
apart.

Suites compose with topologies: a suite picks the policies, a
:class:`~repro.topology.spec.TopologySpec` preset picks the graph.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.params import SystemConfig
from ..common.registry import Registry
from dataclasses import dataclass


@dataclass(frozen=True)
class PolicySuite:
    """One Table 2 technique: a named set of per-structure policies."""

    name: str
    stlb: Optional[str] = None
    l2c: Optional[str] = None
    llc: Optional[str] = None
    description: str = ""

    def policies(self) -> Dict[str, str]:
        """The non-default structure → policy assignments."""
        return {
            key: value
            for key, value in (("stlb", self.stlb), ("l2c", self.l2c), ("llc", self.llc))
            if value is not None
        }

    def apply(self, config: SystemConfig) -> SystemConfig:
        """A copy of ``config`` with this suite's policies substituted."""
        return config.with_policies(stlb=self.stlb, l2c=self.l2c, llc=self.llc)

    def summary(self) -> str:
        """Short human-readable policy listing for ``--list`` output."""
        policies = self.policies()
        return ", ".join(f"{k}={v}" for k, v in policies.items()) or "all-LRU baseline"


#: The process-wide technique registry, in Table 2 order.
SUITES: Registry[PolicySuite] = Registry("technique")

for _suite in (
    PolicySuite("lru", description="all-LRU baseline"),
    PolicySuite("tdrrip", l2c="tdrrip", description="TLB-aware DRRIP at the L2C"),
    PolicySuite("ptp", l2c="ptp", description="PTE-priority insertion at the L2C"),
    PolicySuite("chirp", stlb="chirp", description="history-based instruction reuse STLB"),
    PolicySuite("chirp+tdrrip", stlb="chirp", l2c="tdrrip",
                description="CHiRP with TLB-aware DRRIP"),
    PolicySuite("chirp+ptp", stlb="chirp", l2c="ptp", description="CHiRP with PTP"),
    PolicySuite("itp", stlb="itp", description="instruction-aware STLB replacement"),
    PolicySuite("itp+tdrrip", stlb="itp", l2c="tdrrip", description="iTP with TLB-aware DRRIP"),
    PolicySuite("itp+ptp", stlb="itp", l2c="ptp", description="iTP with PTP"),
    PolicySuite("itp+xptp", stlb="itp", l2c="xptp",
                description="the paper's full cooperative proposal"),
):
    SUITES.register(_suite.name, _suite)


def suite_for(technique: str) -> PolicySuite:
    """Look up a Table 2 technique; unknown names list every known suite."""
    return SUITES.get(technique)
