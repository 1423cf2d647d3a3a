"""Unit tests for STLB replacement policies — iTP semantics per Figure 5."""

import random

import pytest

from repro.common.params import ITPConfig
from repro.common.types import AccessType
from repro.tlb.entry import TLBEntry
from repro.tlb.policies.chirp import CHiRPPolicy, CONF_THRESHOLD
from repro.tlb.policies.itp import ITPPolicy
from repro.tlb.policies.lru import TLBLRUPolicy
from repro.tlb.policies.probabilistic import ProbabilisticLRUPolicy
from repro.tlb.policies.registry import available_tlb_policies, make_tlb_policy

I = AccessType.INSTRUCTION
D = AccessType.DATA


def entries(n=12):
    return [TLBEntry(valid=True, vpn=i) for i in range(n)]


def fill(policy, ents, types):
    for way, t in enumerate(types):
        ents[way].access_type = t
        policy.on_insert(0, way, ents, t)


def victim_trace(policy, steps=400):
    """The victims ``policy`` picks on one full set of mixed translations
    under a fixed stream of hits and misses."""
    stream = random.Random(0)
    ents = entries(policy.associativity)
    fill(policy, ents, [stream.choice((I, D)) for _ in ents])
    victims = []
    for step in range(steps):
        t = stream.choice((I, D))
        if stream.random() < 0.5:
            way = stream.randrange(len(ents))
            policy.on_hit(0, way, ents, ents[way].access_type)
            continue
        policy.on_miss(0, step << 12, t)
        way = policy.victim(0, ents)
        policy.on_evict(0, way, ents)
        ents[way].access_type, ents[way].vpn = t, 1_000 + step
        policy.on_insert(0, way, ents, t)
        victims.append(way)
    return victims


class TestTLBLRU:
    def test_victim_is_lru(self):
        policy = TLBLRUPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D, D, D, D])
        assert policy.victim(0, ents) == 0

    def test_hit_promotes(self):
        policy = TLBLRUPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D] * 4)
        policy.on_hit(0, 0, ents, D)
        assert policy.victim(0, ents) == 1


class TestITPInsertion:
    """Figure 5, steps 1-4."""

    def make(self, assoc=12, n=4, m=8):
        return ITPPolicy(1, assoc, ITPConfig(insert_depth_n=n, data_promote_m=m))

    def test_data_inserted_at_lru(self):
        policy = self.make()
        ents = entries()
        fill(policy, ents, [I] * 11 + [D])
        # Step 1: the fresh data entry has highest eviction priority.
        assert policy.victim(0, ents) == 11

    def test_instruction_inserted_n_below_mru(self):
        policy = self.make(n=4)
        ents = entries()
        fill(policy, ents, [I] * 12)
        # The last-inserted instruction sits at depth N, not MRU.
        assert policy.stacks[0].depth_from_mru(11) == 4

    def test_instruction_insert_resets_freq(self):
        policy = self.make()
        ents = entries()
        ents[0].freq = 5
        ents[0].access_type = I
        policy.on_insert(0, 0, ents, I)
        assert ents[0].freq == 0  # step 3

    def test_insertion_shifts_stack_down(self):
        policy = self.make(n=0)
        ents = entries(4)
        policy2 = ITPPolicy(1, 4, ITPConfig(insert_depth_n=0, data_promote_m=2))
        fill(policy2, ents, [I, I, I, I])
        # step 4: each new MRU insertion pushed the previous ones down.
        assert policy2.stacks[0].order() == [3, 2, 1, 0]


class TestITPPromotion:
    """Figure 5, steps i-iv."""

    def make(self, assoc=12, n=4, m=8, freq_bits=3):
        return ITPPolicy(
            1, assoc, ITPConfig(insert_depth_n=n, data_promote_m=m, freq_bits=freq_bits)
        )

    def test_unsaturated_instruction_promotes_to_n(self):
        policy = self.make(n=4)
        ents = entries()
        fill(policy, ents, [I] * 12)
        policy.on_hit(0, 0, ents, I)
        assert policy.stacks[0].depth_from_mru(0) == 4  # step i
        assert ents[0].freq == 1                         # step iii

    def test_saturated_instruction_promotes_to_mru(self):
        policy = self.make(n=4)
        ents = entries()
        fill(policy, ents, [I] * 12)
        ents[0].freq = 7
        policy.on_hit(0, 0, ents, I)
        assert policy.stacks[0].depth_from_mru(0) == 0   # step ii
        assert ents[0].freq == 7                          # not incremented past max

    def test_freq_saturates_after_max_hits(self):
        policy = self.make()
        ents = entries()
        fill(policy, ents, [I] * 12)
        for _ in range(20):
            policy.on_hit(0, 0, ents, I)
        assert ents[0].freq == 7

    def test_data_hit_promotes_m_above_lru(self):
        policy = self.make(m=8)
        ents = entries()
        fill(policy, ents, [I] * 11 + [D])
        policy.on_hit(0, 11, ents, D)
        assert policy.stacks[0].height_from_lru(11) == 8  # step iv

    def test_eviction_rule_is_lru(self):
        policy = self.make()
        ents = entries()
        fill(policy, ents, [D] * 12)
        assert policy.victim(0, ents) == policy.stacks[0].lru_way

    def test_mru_reserved_for_saturated_instructions(self):
        # A freshly inserted instruction can never land at MRU directly.
        policy = self.make(n=4)
        ents = entries()
        fill(policy, ents, [I] * 12)
        assert all(
            policy.stacks[0].depth_from_mru(w) != 0 or ents[w].freq == 0
            for w in range(12)
        )
        # the MRU way got there only because deeper insertions pushed it? No:
        # with N=4 the top 4 positions hold the oldest entries.
        assert policy.stacks[0].depth_from_mru(11) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ITPPolicy(1, 12, ITPConfig(insert_depth_n=12, data_promote_m=13))
        with pytest.raises(ValueError):
            ITPPolicy(1, 12, ITPConfig(insert_depth_n=4, data_promote_m=4))
        with pytest.raises(ValueError):
            ITPPolicy(1, 12, ITPConfig(insert_depth_n=4, data_promote_m=12))


class TestProbabilisticLRU:
    def test_p1_always_evicts_data(self):
        policy = ProbabilisticLRUPolicy(1, 4, p_evict_data=1.0)
        ents = entries(4)
        fill(policy, ents, [D, I, D, I])
        for _ in range(10):
            victim = policy.victim(0, ents)
            assert ents[victim].access_type == D

    def test_p0_always_evicts_instruction(self):
        policy = ProbabilisticLRUPolicy(1, 4, p_evict_data=0.0)
        ents = entries(4)
        fill(policy, ents, [D, I, D, I])
        for _ in range(10):
            victim = policy.victim(0, ents)
            assert ents[victim].access_type == I

    def test_falls_back_when_type_absent(self):
        policy = ProbabilisticLRUPolicy(1, 4, p_evict_data=1.0)
        ents = entries(4)
        fill(policy, ents, [I, I, I, I])
        assert policy.victim(0, ents) == 0  # overall LRU

    def test_victim_is_lru_of_chosen_type(self):
        policy = ProbabilisticLRUPolicy(1, 4, p_evict_data=1.0)
        ents = entries(4)
        fill(policy, ents, [D, D, I, I])
        assert policy.victim(0, ents) == 0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ProbabilisticLRUPolicy(1, 4, p_evict_data=1.5)


class TestCHiRP:
    def test_signature_depends_on_history(self):
        policy = CHiRPPolicy(1, 4)
        sig0 = policy.signature(100)
        policy.observe_fetch_page(7)
        policy.observe_fetch_page(13)
        sig1 = policy.signature(100)
        assert sig0 != sig1

    def test_confident_signature_inserts_mru(self):
        policy = CHiRPPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D] * 4)
        ents[0].vpn = 999
        sig = policy.signature(999)
        policy.table[sig] = CONF_THRESHOLD
        policy.on_insert(0, 0, ents, D)
        assert policy.stacks[0].depth_from_mru(0) == 0

    def test_unconfident_signature_inserts_distant(self):
        policy = CHiRPPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D] * 4)
        ents[0].vpn = 999
        policy.table[policy.signature(999)] = 0
        policy.on_insert(0, 0, ents, D)
        assert policy.stacks[0].depth_from_mru(0) == policy._distant_depth

    def test_reuse_trains_up_once(self):
        policy = CHiRPPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D] * 4)
        sig = ents[0].signature
        before = policy.table[sig]
        policy.on_hit(0, 0, ents, D)
        policy.on_hit(0, 0, ents, D)
        assert policy.table[sig] == before + 1
        assert ents[0].reused

    def test_dead_eviction_trains_down(self):
        policy = CHiRPPolicy(1, 4)
        ents = entries(4)
        fill(policy, ents, [D] * 4)
        sig = ents[0].signature
        before = policy.table[sig]
        policy.on_evict(0, 0, ents)
        assert policy.table[sig] == before - 1


class TestTLBRegistry:
    def test_all_names(self):
        for name in available_tlb_policies():
            policy = make_tlb_policy(name, 8, 12)
            assert policy.num_sets == 8

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown TLB policy"):
            make_tlb_policy("optimal", 8, 4)

    def test_itp_config_passthrough(self):
        policy = make_tlb_policy("itp", 8, 12, itp_config=ITPConfig(insert_depth_n=1, data_promote_m=2))
        assert policy.config.insert_depth_n == 1

    @pytest.mark.parametrize("name", available_tlb_policies())
    def test_victims_are_a_function_of_the_arguments(self, name):
        # A cell's result must depend on the job alone: two policies built
        # alike, driven alike, evict alike (an unseeded RNG would not).
        first, second = (
            victim_trace(make_tlb_policy(name, 1, 12, p_evict_data=0.5))
            for _ in range(2)
        )
        assert first == second
        assert len(set(first)) > 1

    def test_problru_p_passthrough(self):
        policy = make_tlb_policy("problru", 8, 4, p_evict_data=0.3)
        assert policy.p_evict_data == 0.3
