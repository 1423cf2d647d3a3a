"""Cache line (block) metadata.

Besides the usual valid/tag/dirty state, every line carries the xPTP ``Type``
information: whether the block holds page-table entries and, if so, whether
they serve instruction or data translations (Figure 7 of the paper writes
this bit back from the L2C MSHR when the fill completes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.types import AccessType


@dataclass(slots=True)
class CacheLine:
    valid: bool = False
    tag: int = 0
    dirty: bool = False
    is_pte: bool = False
    translation_type: Optional[AccessType] = None
    prefetched: bool = False
    # Replacement-policy scratch state (RRPV, SHiP signature/outcome,
    # Mockingjay ETA...).  Owned by the policy attached to the cache.
    rrpv: int = 0
    signature: int = 0
    outcome: bool = False
    eta: int = 0

    @property
    def is_data_pte(self) -> bool:
        return self.is_pte and self.translation_type is AccessType.DATA

    @property
    def is_instr_pte(self) -> bool:
        return self.is_pte and self.translation_type is AccessType.INSTRUCTION
