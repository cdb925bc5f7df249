"""Tests for Remy memory tracking and whisker tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.remy.memory import DOMAIN, EWMA_ALPHA, Memory, MemoryTracker
from repro.remy.whisker import Action, WhiskerTable


def memory_strategy():
    return st.builds(
        Memory,
        ack_ewma=st.floats(min_value=0, max_value=2),
        send_ewma=st.floats(min_value=0, max_value=2),
        rtt_ratio=st.floats(min_value=0.5, max_value=32),
        util=st.floats(min_value=-0.5, max_value=1.5),
    )


class TestMemory:
    def test_initial_at_rest(self):
        memory = Memory.initial()
        assert memory.ack_ewma == 0.0
        assert memory.rtt_ratio == 1.0
        assert memory.util == 0.0

    def test_clamped_within_domain(self):
        memory = Memory(ack_ewma=5.0, send_ewma=-1.0, rtt_ratio=100.0, util=2.0)
        clamped = memory.clamped()
        assert clamped.ack_ewma == DOMAIN["ack_ewma"][1]
        assert clamped.send_ewma == DOMAIN["send_ewma"][0]
        assert clamped.rtt_ratio == DOMAIN["rtt_ratio"][1]
        assert clamped.util == 1.0

    @given(memory_strategy())
    @settings(max_examples=80)
    def test_clamp_idempotent(self, memory):
        once = memory.clamped()
        assert once.clamped() == once


class TestMemoryTracker:
    def test_first_ack_sets_no_intervals(self):
        tracker = MemoryTracker()
        memory = tracker.on_ack(1.0, 0.9, last_rtt=0.1, min_rtt=0.1)
        assert memory.ack_ewma == 0.0
        assert memory.rtt_ratio == pytest.approx(1.0)

    def test_ack_interarrival_ewma(self):
        tracker = MemoryTracker()
        tracker.on_ack(1.0, 0.9, 0.1, 0.1)
        memory = tracker.on_ack(1.2, 1.1, 0.1, 0.1)
        assert memory.ack_ewma == pytest.approx(EWMA_ALPHA * 0.2)

    def test_rtt_ratio_tracks_inflation(self):
        tracker = MemoryTracker()
        memory = tracker.on_ack(1.0, 0.8, last_rtt=0.3, min_rtt=0.1)
        assert memory.rtt_ratio == pytest.approx(3.0)

    def test_util_provider_feeds_memory(self):
        tracker = MemoryTracker(util_provider=lambda: 0.66)
        memory = tracker.on_ack(1.0, 0.9, 0.1, 0.1)
        assert memory.util == pytest.approx(0.66)

    def test_util_clamped(self):
        tracker = MemoryTracker(util_provider=lambda: 1.7)
        assert tracker.on_ack(1.0, 0.9, 0.1, 0.1).util == 1.0

    def test_reset(self):
        tracker = MemoryTracker()
        tracker.on_ack(1.0, 0.9, 0.1, 0.1)
        tracker.on_ack(1.5, 1.4, 0.2, 0.1)
        tracker.reset()
        assert tracker.memory == Memory.initial()


class TestAction:
    def test_apply_floor(self):
        action = Action(window_increment=-5, window_multiple=0.5)
        assert action.apply(2.0) == 1.0

    def test_apply_formula(self):
        action = Action(window_increment=3, window_multiple=2.0, intersend_s=0.01)
        assert action.apply(10.0) == 23.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Action(window_multiple=5.0)
        with pytest.raises(ValueError):
            Action(intersend_s=0.0)

    def test_neighbours_valid_and_distinct(self):
        action = Action.default()
        neighbours = action.neighbours()
        assert len(neighbours) == 12
        for n in neighbours:
            assert n != action or True  # all constructable
            assert 0.1 <= n.window_multiple <= 2.0
            assert 0.0001 <= n.intersend_s <= 1.0

    def test_neighbours_clamped_at_bounds(self):
        action = Action(window_increment=20.0, window_multiple=2.0, intersend_s=1.0)
        for n in action.neighbours():
            assert n.window_increment <= 20.0
            assert n.window_multiple <= 2.0
            assert n.intersend_s <= 1.0


class TestWhiskerTable:
    def test_default_table_covers_domain(self):
        table = WhiskerTable()
        assert len(table) == 1
        assert table.find(Memory.initial()) is table.whiskers[0]

    def test_a_table_with_a_gap_refuses_the_memory_it_misses(self):
        table = WhiskerTable()
        table.whiskers = []
        with pytest.raises(LookupError, match="no whisker covers memory"):
            table.find(Memory.initial())

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            WhiskerTable(("ack_ewma", "bogus"))

    def test_act_records_use(self):
        table = WhiskerTable()
        table.act(Memory.initial())
        table.act(Memory.initial())
        assert table.whiskers[0].use_count == 2

    @given(memory_strategy())
    @settings(max_examples=100)
    def test_exactly_one_whisker_matches(self, memory):
        table = WhiskerTable.partitioned(WhiskerTable.PHI_DIMENSIONS, "util", 4)
        clamped = memory.clamped()
        matches = [w for w in table.whiskers if w.contains(clamped)]
        assert len(matches) == 1

    def test_partitioned_along_util(self):
        table = WhiskerTable.partitioned(
            WhiskerTable.PHI_DIMENSIONS, "util", n_parts=4
        )
        assert len(table) == 4
        low = table.find(Memory(util=0.1))
        high = table.find(Memory(util=0.9))
        assert low is not high

    def test_partitioned_validation(self):
        with pytest.raises(ValueError):
            WhiskerTable.partitioned(WhiskerTable.CLASSIC_DIMENSIONS, "util", 2)
        with pytest.raises(ValueError):
            WhiskerTable.partitioned(WhiskerTable.PHI_DIMENSIONS, "util", 0)

    def test_copy_is_independent(self):
        table = WhiskerTable()
        clone = table.copy()
        clone.whiskers[0].action = Action(window_increment=9.0)
        assert table.whiskers[0].action.window_increment != 9.0

    def test_domain_top_edge_covered(self):
        table = WhiskerTable.partitioned(WhiskerTable.CLASSIC_DIMENSIONS, "rtt_ratio", 2)
        top = Memory(ack_ewma=1.0, send_ewma=1.0, rtt_ratio=16.0)
        assert table.find(top) is table.whiskers[1]
