"""Pins the batched RNG layer (``repro.workloads._rand``) value for value.

Each trace generator shares one NumPy ``Generator`` among five or six
batched helpers, so the values a helper hands out depend on every helper's
batch size, draw call and refill moment.  ``tests/test_golden.py`` runs too
few records to reach most refills, so the digests here drain each helper
across several refills (interleaved with a second helper on the same
``Generator``) and the three synthetic generators across 200k records.  Any
change to a batch size, a draw call, a value's type or the moment a batch
is refilled changes a digest, and with it every trace and cached result.

The memory tests keep the buffers unboxed: a helper retains one batch of
at most 8 bytes per value, and a live generator stream a few of them.
"""

import gc
import hashlib
import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.workloads._rand import BatchedChoice, BatchedInts, BatchedUniform
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload

SEED = 20241


def _zipf(count):
    weights = 1.0 / np.power(np.arange(1, count + 1), 1.1)
    return weights / weights.sum()


ZIPF_3000 = _zipf(3000)

#: ``(primary factory, primary draws, secondary factory, secondary draws per
#: primary draw)``.  Each primary drains past its third refill, and each
#: secondary refills at least once in between.
HELPER_CASES = {
    "uniform": (
        lambda rng: BatchedUniform(rng), 3 * 65536 + 7,
        lambda rng: BatchedChoice(rng, 5, [0.4, 0.3, 0.15, 0.1, 0.05]), 1,
    ),
    "choice": (
        lambda rng: BatchedChoice(rng, 3000, ZIPF_3000), 3 * 16384 + 7,
        lambda rng: BatchedInts(rng, 1 << 40), 2,
    ),
    "ints": (
        lambda rng: BatchedInts(rng, 48), 3 * 65536 + 7,
        lambda rng: BatchedUniform(rng), 2,
    ),
    "ints_wide": (
        lambda rng: BatchedInts(rng, 1 << 40), 3 * 65536 + 7,
        lambda rng: BatchedInts(rng, 65536, batch=16384), 1,
    ),
}

HELPER_DIGESTS = {
    "uniform": "13236cdd5bce411dccf9e41c22f3053fdfc35c50f78bee2d9f98815384f7dede",
    "choice": "c76b261a16dc7f4f323452bce67204843a53d9967a63029a9c9d2a9166a3a76e",
    "ints": "501dfac0c06e974805c53e7e99e057d6b82a79f135266f752ffce8696111bd0c",
    "ints_wide": "6b79b2698d6bd15fdc8355a6e2a327efe61175fdd63bbc1d2854f6094a663983",
}

#: One generator of each kind.  200k records refill every stream's coin
#: (``BatchedUniform``) several times and the SPEC-like hot-page and offset
#: pickers once; the phased stream draws 100k records from each sub-stream.
WORKLOADS = {
    "server": lambda: ServerWorkload("srv", 101),
    "speclike": lambda: SpecLikeWorkload("spec", 501),
    "phased": lambda: PhasedWorkload("ph", 3),
}

RECORD_DIGESTS = {
    "server": "e66b4dee6ca5d0d81509fc1c64e03d110791f48ac389bb8481a0a1aa4fd2c161",
    "speclike": "850bfc75369cc319841d00a54046afd69075ceed8a9058d25d49cea13b40ac57",
    "phased": "35665edce0012bdbff568728bca1f304ce5a2062ecf95d5cf666ab8bcbeb88c4",
}

RECORDS = 200_000

#: Retained-memory bound for one live generator stream (bytes).
STREAM_RETAINED_LIMIT = 2_500_000


def helper_digest(case):
    make_primary, draws, make_secondary, per_draw = HELPER_CASES[case]
    rng = np.random.default_rng(SEED)
    primary = make_primary(rng).next
    secondary = make_secondary(rng).next
    values = []
    for _ in range(draws):
        values.append(primary())
        for _ in range(per_draw):
            values.append(secondary())
    # repr() pins the Python type as well as the value: a NumPy scalar
    # leaking out of a helper prints differently from a plain int/float.
    return hashlib.sha256(repr(values).encode()).hexdigest()


def record_digest(name):
    digest = hashlib.sha256()
    for record in itertools.islice(WORKLOADS[name]().record_stream(), RECORDS):
        digest.update(repr(tuple(record)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(HELPER_CASES))
def test_helper_stream_across_refills(case):
    assert helper_digest(case) == HELPER_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_records(name):
    assert record_digest(name) == RECORD_DIGESTS[name]


def _retained_bytes(build, drain):
    """Bytes still allocated after ``build()`` then ``drain(obj)``, while
    the built object is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        drain(obj)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del obj
    return retained


@pytest.mark.parametrize(
    "make, batch, itemsize",
    [
        (lambda rng: BatchedUniform(rng), 65536, 8),
        (lambda rng: BatchedChoice(rng, 3000, ZIPF_3000), 16384, 2),
        (lambda rng: BatchedInts(rng, 48), 65536, 1),
        (lambda rng: BatchedInts(rng, 1 << 40), 65536, 8),
    ],
    ids=["uniform", "choice", "ints", "ints_wide"],
)
def test_helper_keeps_one_unboxed_batch(make, batch, itemsize):
    rng = np.random.default_rng(SEED)

    def drain(helper):
        draw = helper.next
        for _ in range(2 * batch + batch // 2):
            draw()

    retained = _retained_bytes(lambda: make(rng), drain)
    # ``array`` over-allocates a buffer built from bytes by 1/16.
    assert retained <= 1.25 * batch * itemsize + 4096


@pytest.mark.parametrize("name", ["server", "speclike"])
def test_live_stream_retained_memory(name):
    workload = WORKLOADS[name]()
    retained = _retained_bytes(
        workload.record_stream,
        lambda stream: deque(itertools.islice(stream, 100_000), maxlen=0),
    )
    assert retained <= STREAM_RETAINED_LIMIT


@pytest.mark.parametrize("high", [1, 48, 256, 257, 65536, 65537, 1 << 32, (1 << 32) + 1])
def test_int_helpers_cover_their_range(high):
    rng = np.random.default_rng(SEED)
    draw = BatchedInts(rng, high, batch=4096).next
    values = [draw() for _ in range(4096)]
    reference = np.random.default_rng(SEED).integers(0, high, size=4096).tolist()
    assert values == reference
    assert all(type(v) is int for v in values)
