"""A finished cell's machine is freed by reference counting alone.

Figure sweeps and the SMT runs (Section 5.1) simulate many cells in one
process.  If anything in a built machine refers back to itself, every
cache, line, tag map, recency stack and MSHR file of a finished cell
stays alive until a full garbage collection happens to run.  Each test
here disables the cyclic collector, runs one small cell while keeping its
result, and asserts that ``gc.collect()`` then finds nothing: the result
holds statistics, not the machine, and the machine held no cycle.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.common.params import scaled_config
from repro.core.simulator import Session, simulate, simulate_multicore, simulate_smt
from repro.experiments.runner import config_for
from repro.fabric import ParallelRunner, single
from repro.kernel import ENGINES
from repro.workloads.server import ServerWorkload

WARMUP, MEASURE = 300, 1_500


def small(seed):
    return ServerWorkload(
        f"life{seed}", seed, code_pages=64, data_pages=2000,
        hot_data_pages=64, warm_pages=500, local_pages=32,
    )


@contextmanager
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def garbage_cycles_after(driver, *args, **kwargs):
    """Objects in reference cycles left behind by one ``driver`` cell."""
    with gc_disabled():
        result = driver(*args, **kwargs)
        found = gc.collect()
    assert result.stats.instructions > 0
    return found


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("topology", ["table1", "split-stlb", "no-llc"])
def test_simulate_leaves_no_cycle(topology, engine):
    found = garbage_cycles_after(
        simulate, config_for("itp+xptp"), small(1), WARMUP, MEASURE,
        topology=topology, engine=engine,
    )
    assert found == 0


def test_simulate_smt_leaves_no_cycle():
    found = garbage_cycles_after(
        simulate_smt, config_for("itp+xptp"), [small(1), small(2)], WARMUP, MEASURE,
    )
    assert found == 0


@pytest.mark.parametrize("topology", ["multicore-2", "shared-l2"])
def test_simulate_multicore_leaves_no_cycle(topology):
    found = garbage_cycles_after(
        simulate_multicore, config_for("itp+xptp"), [small(1), small(2)],
        WARMUP, MEASURE, topology=topology,
    )
    assert found == 0


def test_serial_runner_result_does_not_pin_its_machine():
    # The scheduler keeps a small cycle of its own (no machine state), so
    # this asserts on what survives rather than on the collect count.
    runner = ParallelRunner(workers=1)
    job = single(config_for("lru"), small(1), WARMUP, MEASURE, label="lru")
    with gc_disabled():
        (result,) = runner.run([job])
        leaked = [o for o in gc.get_objects() if isinstance(o, SetAssociativeCache)]
    assert result.stats.instructions > 0
    assert leaked == []


def test_session_machine_dies_with_the_session():
    with gc_disabled():
        session = Session(scaled_config(), [small(1)])
        session.warmup(WARMUP)
        session.measure(MEASURE)
        l2c = weakref.ref(session.system.l2c)
        del session
        assert l2c() is None
