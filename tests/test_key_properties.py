"""Hypothesis properties of the two content addresses results are cached by.

``job_key`` names a cell in the result cache and the scheduler's dedup
table; ``TopologySpec.content_hash`` is the topology part of it.  A
collision would silently serve one experiment's result for another, so
both must be stable under every representation change (node order, spec
label, a ``to_dict``/``from_dict`` round trip) and change with every
field that affects a result.
"""

import dataclasses

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.common.params import scaled_config
from repro.fabric import SimJob, job_key
from repro.topology import TopologySpec, make_topology
from repro.workloads.server import ServerWorkload

#: Hash and canonical-form properties run at the top tier (500 examples).
HASH_SETTINGS = settings(max_examples=500, deadline=None)

SINGLE_CORE_PRESETS = ("table1", "split-stlb", "no-llc")
PRESETS = SINGLE_CORE_PRESETS + ("multicore-2", "multicore-4", "shared-l2", "shared-l2-3")


def _changed(value):
    """Strategy for a value of ``value``'s type that differs from it."""
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, str):
        values = st.text(max_size=8)
    elif isinstance(value, int):
        values = st.integers(1, 2 * value + 16)
    else:
        values = st.floats(0.0, 2.0 * value + 2.0, allow_nan=False)
    return values.filter(lambda v: v != value)


def _leaves(obj, prefix=()):
    """``(path, value)`` for every scalar field of a nested dataclass."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, prefix + (f.name,))
        elif isinstance(value, (bool, int, float, str)):
            yield prefix + (f.name,), value


def _replaced(obj, path, value):
    head, *rest = path
    inner = _replaced(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: inner})


def _mutated(data, obj):
    """Draw one scalar field of ``obj`` and give it a different value."""
    path, value = data.draw(st.sampled_from(list(_leaves(obj))))
    try:
        return _replaced(obj, path, data.draw(_changed(value)))
    except ValueError:  # geometry the config dataclasses refuse
        reject()


def _with_node_mutated(data, spec):
    """``spec`` with one parameter of one node changed."""
    nodes = list(spec.nodes)
    index = data.draw(st.integers(0, len(nodes) - 1))
    nodes[index] = _mutated(data, nodes[index])
    return TopologySpec(spec.name, tuple(nodes))


def _shuffled(spec, order, name):
    nodes = list(spec.nodes)
    order.shuffle(nodes)
    return TopologySpec(name, tuple(nodes))


def _job(topology=None, **overrides):
    fields = dict(
        config=scaled_config(), workloads=(ServerWorkload("w", seed=5),),
        warmup=2_000, measure=8_000, label="lru", topology=topology,
    )
    fields.update(overrides)
    return SimJob(**fields)


class TestContentHash:
    @HASH_SETTINGS
    @given(
        preset=st.sampled_from(PRESETS),
        scale=st.sampled_from([1, 2, 4, 8]),
        order=st.randoms(use_true_random=False),
        name=st.text(max_size=8),
    )
    def test_stable_under_node_order_label_and_round_trip(
        self, preset, scale, order, name
    ):
        spec = make_topology(preset, scaled_config(scale))
        digest = spec.content_hash()
        assert _shuffled(spec, order, name).content_hash() == digest
        assert TopologySpec.from_dict(spec.to_dict()).content_hash() == digest

    @HASH_SETTINGS
    @given(preset=st.sampled_from(PRESETS), data=st.data())
    def test_any_node_parameter_changes_hash(self, preset, data):
        spec = make_topology(preset, scaled_config())
        changed = _with_node_mutated(data, spec)
        assert changed.content_hash() != spec.content_hash()


class TestJobKey:
    @HASH_SETTINGS
    @given(
        preset=st.sampled_from(SINGLE_CORE_PRESETS),
        order=st.randoms(use_true_random=False),
        name=st.text(max_size=8),
    )
    def test_stable_under_node_order_and_round_trip(self, preset, order, name):
        spec = make_topology(preset, scaled_config())
        key = job_key(_job(spec))
        assert job_key(_job(_shuffled(spec, order, name))) == key
        assert job_key(_job(TopologySpec.from_dict(spec.to_dict()))) == key
        assert job_key(_job(preset)) == key

    @HASH_SETTINGS
    @given(data=st.data())
    def test_config_field_changes_key(self, data):
        base = _job()
        assert job_key(_job(config=_mutated(data, base.config))) != job_key(base)

    @HASH_SETTINGS
    @given(field=st.sampled_from(["warmup", "measure", "label"]), data=st.data())
    def test_window_or_label_changes_key(self, field, data):
        base = _job()
        changed = _job(**{field: data.draw(_changed(getattr(base, field)))})
        assert job_key(changed) != job_key(base)

    @HASH_SETTINGS
    @given(preset=st.sampled_from(SINGLE_CORE_PRESETS), seed=st.integers(0, 2**16))
    def test_engine_changes_key(self, preset, seed):
        workloads = (ServerWorkload("w", seed=seed),)
        keys = {
            job_key(_job(preset, workloads=workloads, engine=engine))
            for engine in ("spec", "batched")
        }
        assert len(keys) == 2

    @HASH_SETTINGS
    @given(preset=st.sampled_from(SINGLE_CORE_PRESETS), data=st.data())
    def test_topology_node_parameter_changes_key(self, preset, data):
        spec = make_topology(preset, scaled_config())
        changed = _with_node_mutated(data, spec)
        assert job_key(_job(changed)) != job_key(_job(spec))
