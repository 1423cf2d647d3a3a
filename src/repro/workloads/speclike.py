"""SPEC-CPU-like synthetic workloads (DESIGN.md §3 substitution).

SPEC 2006/2017 binaries have instruction footprints of tens of KB — they
fit comfortably in a 64-entry ITLB (Figures 1–2 measure ≈0.03 % of cycles
in instruction translation and near-zero instruction STLB MPKI).  Their
memory behaviour is data-dominated: loops over large arrays with strided
and hot-set access.

The generator runs a small set of tight loops (a handful of code pages)
against a large data footprint, giving exactly that contrast with
:class:`ServerWorkload`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..common.types import CACHE_LINE_BYTES, PAGE_BYTES, TraceRecord
from ._rand import BatchedInts, BatchedUniform
from .base import CODE_BASE, DATA_BASE, SyntheticWorkload


class SpecLikeWorkload(SyntheticWorkload):
    """Small-code, data-dominated workload generator."""

    def __init__(
        self,
        name: str,
        seed: int,
        code_pages: int = 6,
        data_pages: int = 4000,
        hot_data_pages: int = 128,
        loop_lines: int = 24,
        instrs_per_line: int = 4,
        load_probability: float = 0.5,
        store_probability: float = 0.12,
        hot_fraction: float = 0.5,
        stride_lines: int = 1,
        large_page_percent: int = 0,
    ) -> None:
        super().__init__(name, seed, large_page_percent)
        if hot_data_pages > data_pages:
            raise ValueError("hot set cannot exceed the data footprint")
        self.code_pages = code_pages
        self.data_pages = data_pages
        self.hot_data_pages = hot_data_pages
        self.loop_lines = loop_lines
        self.instrs_per_line = instrs_per_line
        self.load_probability = load_probability
        self.store_probability = store_probability
        self.hot_fraction = hot_fraction
        self.stride_lines = stride_lines

    def record_stream(self) -> Iterator[TraceRecord]:
        rng = np.random.default_rng(self.seed + 1)
        lines_total = self.code_pages * (PAGE_BYTES // CACHE_LINE_BYTES)
        coin = BatchedUniform(rng)
        pick_hot = BatchedInts(rng, self.hot_data_pages)
        pick_offset = BatchedInts(rng, PAGE_BYTES // 8)
        pick_loop_start = BatchedInts(rng, max(1, lines_total - self.loop_lines))
        pick_trip = BatchedInts(rng, 48)

        hot_bytes = self.hot_data_pages * PAGE_BYTES
        stream_bytes = (self.data_pages - self.hot_data_pages) * PAGE_BYTES
        cursor = 0

        # Hot-loop bindings, as in ServerWorkload.record_stream: one record
        # per iteration, so every attribute lookup here is paid per record.
        coin_next = coin.next
        pick_hot_next = pick_hot.next
        pick_offset_next = pick_offset.next
        pick_loop_start_next = pick_loop_start.next
        pick_trip_next = pick_trip.next
        loop_lines = self.loop_lines
        instrs_per_line = self.instrs_per_line
        load_probability = self.load_probability
        store_probability = self.store_probability
        hot_fraction = self.hot_fraction
        stride_bytes = self.stride_lines * CACHE_LINE_BYTES
        stream_base = DATA_BASE + hot_bytes

        while True:
            start = pick_loop_start_next()
            trip_count = 8 + pick_trip_next()
            for _ in range(trip_count):
                for line in range(start, start + loop_lines):
                    pc = CODE_BASE + (line % lines_total) * CACHE_LINE_BYTES
                    loads: Tuple[int, ...] = ()
                    stores: Tuple[int, ...] = ()
                    if coin_next() < load_probability:
                        if coin_next() < hot_fraction:
                            addr = (
                                DATA_BASE
                                + pick_hot_next() * PAGE_BYTES
                                + pick_offset_next() * 8
                            )
                        else:
                            addr = stream_base + cursor
                            cursor = (cursor + stride_bytes) % stream_bytes
                        loads = (addr,)
                    if coin_next() < store_probability:
                        stores = (
                            DATA_BASE + pick_hot_next() * PAGE_BYTES + pick_offset_next() * 8,
                        )
                    yield TraceRecord(pc, instrs_per_line, loads, stores)


def spec_suite(count: int = 5, *, base_seed: int = 500) -> list:
    """A spread of SPEC-like workloads for the motivation studies."""
    suite = []
    for i in range(count):
        suite.append(
            SpecLikeWorkload(
                name=f"spec_{i:02d}",
                seed=base_seed + i,
                code_pages=4 + 2 * (i % 3),
                data_pages=3000 + 1500 * (i % 3),
                hot_data_pages=96 + 32 * (i % 4),
                loop_lines=16 + 8 * (i % 3),
            )
        )
    return suite
