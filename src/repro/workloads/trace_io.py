"""Trace serialization.

The paper's artifact ships ``*.champsimtrace.xz`` files; our equivalent is
a compact binary format for captured synthetic traces, so experiments can
be replayed bit-identically without regenerating them.

Format: little-endian records of
``<pc:u64><num_instrs:u8><num_loads:u8><num_stores:u8>`` followed by
``num_loads + num_stores`` u64 addresses.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, Union

from ..common.types import TraceRecord
from .base import SyntheticWorkload

_HEADER = struct.Struct("<QBBB")
_ADDR = struct.Struct("<Q")
#: ``_ADDRS[n]`` unpacks a record's block of ``n`` addresses in one call.
_ADDRS = tuple(struct.Struct(f"<{n}Q") for n in range(2 * 255 + 1))
MAGIC = b"RPTR1\x00"


def write_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records to ``path``; returns the number of records written."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for record in records:
            if not 0 < record.num_instrs < 256:
                raise ValueError("num_instrs must fit in a byte and be positive")
            fh.write(
                _HEADER.pack(
                    record.pc, record.num_instrs, len(record.loads), len(record.stores)
                )
            )
            for addr in record.loads:
                fh.write(_ADDR.pack(addr))
            for addr in record.stores:
                fh.write(_ADDR.pack(addr))
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records back from a trace file."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a repro trace file")
        while True:
            header = fh.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                raise ValueError(f"{path}: truncated record header")
            pc, num_instrs, num_loads, num_stores = _HEADER.unpack(header)
            block = _ADDRS[num_loads + num_stores]
            raw = fh.read(block.size)
            if len(raw) < block.size:
                raise ValueError(f"{path}: truncated address list")
            addrs = block.unpack_from(raw)
            yield TraceRecord(pc, num_instrs, addrs[:num_loads], addrs[num_loads:])


class FileTraceWorkload(SyntheticWorkload):
    """A workload replayed from a trace file written by :func:`write_trace`.

    The stream loops over the file so warmup + measurement windows longer
    than the capture are still serviceable.
    """

    def __init__(
        self, name: str, path: Union[str, Path], large_page_percent: int = 0, seed: int = 0
    ) -> None:
        super().__init__(name, seed, large_page_percent)
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(self.path)

    def record_stream(self) -> Iterator[TraceRecord]:
        while True:
            empty = True
            for record in read_trace(self.path):
                empty = False
                yield record
            if empty:
                raise ValueError(f"{self.path}: trace contains no records")


def capture(workload: SyntheticWorkload, path: Union[str, Path], records: int) -> int:
    """Capture the first ``records`` records of ``workload`` to ``path``."""
    stream = workload.record_stream()
    return write_trace(path, (next(stream) for _ in range(records)))
