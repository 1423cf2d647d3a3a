"""Rule registry for ``repro.lint``."""

from __future__ import annotations

from typing import List

from .allocations import AllocationRule
from .base import Rule
from .construction import TopologyConstructionRule
from .enumcmp import EnumComparisonRule
from .params import ParamsImmutabilityRule
from .slots import SlotsRule
from .stats_reset import StatsResetRule


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [
        AllocationRule(),
        SlotsRule(),
        EnumComparisonRule(),
        StatsResetRule(),
        ParamsImmutabilityRule(),
        TopologyConstructionRule(),
    ]


__all__ = [
    "AllocationRule",
    "EnumComparisonRule",
    "ParamsImmutabilityRule",
    "Rule",
    "SlotsRule",
    "StatsResetRule",
    "TopologyConstructionRule",
    "all_rules",
]
