"""Extended Page Table Prioritization (xPTP) — Section 4.2 of the paper.

xPTP is LRU with one change: the eviction policy protects cache blocks that
hold **data** PTEs.  Following Figure 6:

a. the LRU victim is identified at the bottom of the recency stack;
b. in parallel, an alternative victim is identified — the block closest to
   the LRU end that does *not* hold a data PTE (``ALT_VICTIMpos``);
c. if the alternative sits **more than** ``K`` positions above the LRU end
   (i.e. it is too recently used to be a good victim), the plain LRU
   victim is evicted; an alternative at exactly ``K`` is still taken;
d. otherwise the alternative (non-data-PTE) block is evicted.

Insertion and promotion are plain LRU; insertion additionally records the
Type bit carried by the request (done by the cache when it fills the line).

``enabled`` implements the iTP+xPTP adaptive switch (Section 4.3.1): when
False, steps a–d are skipped and the policy degenerates to exact LRU, so no
separate LRU implementation is needed — as the paper notes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..common.types import AccessType, MemoryRequest
from .lru import LRUPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.line import CacheLine


_DATA = AccessType.DATA


class XPTPPolicy(LRUPolicy):
    name = "xptp"

    def __init__(self, num_sets: int, associativity: int, k: int = 8) -> None:
        super().__init__(num_sets, associativity)
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = k
        self.enabled = True
        self.protected_evictions_avoided = 0

    def reset_stats(self) -> None:
        """Clear counters at the warmup/measurement boundary (state is kept)."""
        self.protected_evictions_avoided = 0

    def victim(self, set_index: int, lines: Sequence[CacheLine], req: MemoryRequest) -> int:
        stack = self.stacks[set_index]
        lru_way = stack.lru_way
        line = lines[lru_way]
        # ``CacheLine.is_data_pte``, read field by field (no property call).
        if not self.enabled or not (line.is_pte and line.translation_type is _DATA):
            # Fast path: the LRU block is not a protected data PTE anyway.
            return lru_way
        for height, way in enumerate(stack.ways_from_lru()):
            line = lines[way]
            if not (line.is_pte and line.translation_type is _DATA):
                if height > self.k:
                    # Step (c): alternative more than K above LRU — evict LRU.
                    return lru_way
                self.protected_evictions_avoided += 1
                return way
        return lru_way
