"""Statistics collection.

Each hardware structure owns a stats object; the simulator aggregates them
into a flat report at the end of a run.  MPKI-style metrics are computed
against the committed-instruction counter held by :class:`SimStats`.

The categories mirror Figure 4 of the paper: data (dMPKI), instruction
(iMPKI), data-translation page-walk (dtMPKI) and instruction-translation
page-walk (itMPKI) misses.

Hot-path design: :class:`LevelStats` is a slotted class whose counters are
plain integer fields plus two *pre-seeded* category dicts (``cat_accesses``
/ ``cat_misses`` always hold all four category keys), so the per-access
paths in the cache/TLB code can increment them directly —
``stats.accesses += 1`` / ``stats.cat_accesses[cat] += 1`` — without a
method call or a ``dict.get`` default dance.  The string-keyed
:meth:`SimStats.bump` counter dict is reserved for cold counters (page-walk
events, prefetch fills, adaptive-controller windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .types import AccessType, MemoryRequest, RequestType

#: The paper's four MPKI categories (Figure 4).
CATEGORIES = ("d", "i", "dt", "it")


def categorize(req: MemoryRequest) -> str:
    """Bucket a request into the paper's four MPKI categories."""
    if req.is_pte:
        return "dt" if req.translation_type is AccessType.DATA else "it"
    if req.req_type is RequestType.IFETCH:
        return "i"
    return "d"


class LevelStats:
    """Hit/miss/latency counters for one cache or TLB level.

    All counters are mutable in place and survive as the same objects
    across :meth:`reset`, so hot paths (and tests) may hold direct
    references to the seeded category dicts.
    """

    __slots__ = (
        "name",
        "accesses",
        "hits",
        "misses",
        "miss_latency_sum",
        "cat_accesses",
        "cat_misses",
        "evictions",
        "writebacks",
        "prefetch_fills",
        "prefetch_hits",
        "prefetch_requests",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.miss_latency_sum = 0
        # Seeded with every category so hot paths can `[cat] += 1` directly.
        self.cat_accesses: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)
        self.cat_misses: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)
        self.evictions = 0
        self.writebacks = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.prefetch_requests = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LevelStats({self.name!r}, accesses={self.accesses}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    # Compatibility views: the pre-optimization dataclass exposed dicts that
    # contained only the categories actually observed.
    @property
    def category_accesses(self) -> Dict[str, int]:
        return {k: v for k, v in self.cat_accesses.items() if v}

    @property
    def category_misses(self) -> Dict[str, int]:
        return {k: v for k, v in self.cat_misses.items() if v}

    def record_access(self, category: str, hit: bool, miss_latency: int = 0) -> None:
        """Cold-path convenience; hot paths increment the fields directly."""
        self.accesses += 1
        self.cat_accesses[category] += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.miss_latency_sum += miss_latency
            self.cat_misses[category] += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def avg_miss_latency(self) -> float:
        return self.miss_latency_sum / self.misses if self.misses else 0.0

    def mpki(self, instructions: int) -> float:
        return 1000.0 * self.misses / instructions if instructions else 0.0

    def category_mpki(self, category: str, instructions: int) -> float:
        if not instructions:
            return 0.0
        return 1000.0 * self.cat_misses.get(category, 0) / instructions

    def reset(self) -> None:
        """Zero every counter *in place*.

        The category dicts are cleared by rewriting their values rather than
        rebinding, so code holding a reference to them (hot-path aliases,
        tests) can never observe stale pre-warmup totals.
        """
        self.accesses = self.hits = self.misses = 0
        self.miss_latency_sum = 0
        for key in self.cat_accesses:
            self.cat_accesses[key] = 0
        for key in self.cat_misses:
            self.cat_misses[key] = 0
        self.evictions = self.writebacks = 0
        self.prefetch_fills = self.prefetch_hits = self.prefetch_requests = 0


@dataclass
class SimStats:
    """Whole-simulation statistics: instruction/cycle counts plus per-level stats."""

    instructions: int = 0
    cycles: float = 0.0
    levels: Dict[str, LevelStats] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    per_thread_instructions: Dict[int, int] = field(default_factory=dict)
    #: Hot integer counter: front-end stall cycles accumulated per record by
    #: the core (was a string-keyed ``bump`` per record).  Reported as
    #: ``core.front_stall_cycles``.
    front_stall_cycles: int = 0

    def level(self, name: str) -> LevelStats:
        if name not in self.levels:
            self.levels[name] = LevelStats(name)
        return self.levels[name]

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def reset(self) -> None:
        """Reset all counters (used at the warmup/measurement boundary).

        Dicts are cleared in place — not rebound — so references held by
        callers stay valid across the boundary.
        """
        self.instructions = 0
        self.cycles = 0.0
        self.front_stall_cycles = 0
        self.counters.clear()
        self.per_thread_instructions.clear()
        for lvl in self.levels.values():
            lvl.reset()

    def report(self) -> Dict[str, float]:
        """Flatten everything into a single metric dictionary."""
        out: Dict[str, float] = {
            "instructions": float(self.instructions),
            "cycles": float(self.cycles),
            "ipc": self.ipc,
        }
        for name, lvl in self.levels.items():
            key = name.lower()
            out[f"{key}.accesses"] = float(lvl.accesses)
            out[f"{key}.misses"] = float(lvl.misses)
            out[f"{key}.mpki"] = lvl.mpki(self.instructions)
            out[f"{key}.hit_rate"] = lvl.hit_rate
            out[f"{key}.avg_miss_latency"] = lvl.avg_miss_latency
            for cat in CATEGORIES:
                out[f"{key}.{cat}mpki"] = lvl.category_mpki(cat, self.instructions)
        if self.instructions:
            # Matches the pre-optimization behaviour where the key appeared
            # once the first record had been executed.
            out["core.front_stall_cycles"] = float(self.front_stall_cycles)
        for cname, value in self.counters.items():
            out[cname] = float(value)
        return out
