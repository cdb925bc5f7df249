"""Tests for ensemble prioritization: weights, weighted senders, controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prioritization import (
    EnsembleAllocator,
    FlowClass,
    PriorityController,
    WeightedRenoSender,
)
from repro.simnet import (
    DumbbellConfig,
    DumbbellTopology,
    FlowIdAllocator,
    FlowSpec,
    Simulator,
)

CLASSES = [FlowClass("hd-video", 4.0), FlowClass("bulk", 1.0)]


class TestFlowClass:
    def test_importance_positive(self):
        with pytest.raises(ValueError):
            FlowClass("x", 0.0)


class TestEnsembleAllocator:
    def test_requires_classes(self):
        with pytest.raises(ValueError):
            EnsembleAllocator([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            EnsembleAllocator([FlowClass("a", 1), FlowClass("a", 2)])

    def test_weights_sum_to_n(self):
        allocator = EnsembleAllocator(CLASSES)
        assignments = allocator.allocate({1: "hd-video", 2: "bulk", 3: "bulk"})
        total = sum(a.weight for a in assignments)
        assert total == pytest.approx(3.0, rel=0.05)

    def test_important_flows_get_larger_weights(self):
        allocator = EnsembleAllocator(CLASSES)
        assignments = {
            a.flow_id: a for a in allocator.allocate({1: "hd-video", 2: "bulk"})
        }
        assert assignments[1].weight > assignments[2].weight
        assert assignments[1].weight / assignments[2].weight == pytest.approx(
            4.0, rel=0.05
        )

    def test_uniform_classes_get_unit_weights(self):
        allocator = EnsembleAllocator(CLASSES)
        assignments = allocator.allocate({i: "bulk" for i in range(5)})
        assert all(a.weight == pytest.approx(1.0) for a in assignments)

    def test_unknown_class_rejected(self):
        allocator = EnsembleAllocator(CLASSES)
        with pytest.raises(ValueError):
            allocator.allocate({1: "nope"})

    def test_empty_allocation(self):
        allocator = EnsembleAllocator(CLASSES)
        assert allocator.allocate({}) == []

    def test_weight_bounds_clamped(self):
        allocator = EnsembleAllocator([FlowClass("huge", 1000.0), FlowClass("tiny", 0.001)])
        assignments = allocator.allocate({1: "huge", 2: "tiny"})
        for a in assignments:
            assert 0.1 <= a.weight <= 8.0

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=100),
            st.sampled_from(["hd-video", "bulk"]),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_ensemble_friendliness_invariant(self, flows):
        allocator = EnsembleAllocator(CLASSES)
        assignments = allocator.allocate(flows)
        # Ensemble-friendly: the weights sum to ~n.
        total = sum(a.weight for a in assignments)
        assert total == pytest.approx(len(assignments), rel=0.05)


class TestWeightedSender:
    def test_weight_validation(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        with pytest.raises(ValueError):
            WeightedRenoSender(sim, top.senders[0], spec, 1000, weight=0.0)

    def test_growth_scales_with_weight(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        heavy = WeightedRenoSender(sim, top.senders[0], spec, 10_000_000, weight=4.0)
        heavy.cwnd = 10.0
        heavy.ssthresh = 1.0
        heavy._on_ack_congestion_avoidance(1.0)
        assert heavy.cwnd == pytest.approx(10.4)

    def test_decrease_gentler_for_heavy_flows(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        heavy = WeightedRenoSender(sim, top.senders[0], spec, 10_000, weight=4.0)
        heavy.cwnd = 80.0
        heavy._on_loss_event()
        assert heavy.cwnd == pytest.approx(80.0 * (1 - 1 / 8.0))

    def test_unit_weight_is_standard_reno(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        unit = WeightedRenoSender(sim, top.senders[0], spec, 10_000, weight=1.0)
        unit.cwnd = 80.0
        unit._on_loss_event()
        assert unit.cwnd == pytest.approx(40.0)


class TestPriorityController:
    def test_capacity_split_follows_importance(self):
        sim = Simulator()
        config = DumbbellConfig(
            n_senders=4, bottleneck_bandwidth_bps=10e6, rtt_s=0.08
        )
        top = DumbbellTopology(sim, config)
        allocator = EnsembleAllocator(CLASSES)
        controller = PriorityController(sim, allocator)
        pairs = [(top.senders[i], top.receivers[i]) for i in range(4)]
        classes = ["hd-video", "hd-video", "bulk", "bulk"]
        controller.launch(pairs, classes, FlowIdAllocator())
        sim.run(until=40.0)
        by_class = controller.throughput_by_class(40.0)
        # HD flows (importance 4) should clearly out-throughput bulk.
        assert by_class["hd-video"] > 1.5 * by_class["bulk"]
        controller.finish_all()

    def test_mismatched_lengths_rejected(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        controller = PriorityController(sim, EnsembleAllocator(CLASSES))
        with pytest.raises(ValueError):
            controller.launch(
                [(top.senders[0], top.receivers[0])], ["bulk", "bulk"],
                FlowIdAllocator(),
            )

    def test_finish_all_groups_by_class(self):
        sim = Simulator()
        top = DumbbellTopology(sim, DumbbellConfig(n_senders=2))
        controller = PriorityController(sim, EnsembleAllocator(CLASSES))
        pairs = [(top.senders[i], top.receivers[i]) for i in range(2)]
        controller.launch(pairs, ["hd-video", "bulk"], FlowIdAllocator())
        sim.run(until=5.0)
        by_class = controller.finish_all()
        assert set(by_class) == {"hd-video", "bulk"}
        assert all(len(stats) == 1 for stats in by_class.values())

    def test_duration_validation(self):
        sim = Simulator()
        controller = PriorityController(sim, EnsembleAllocator(CLASSES))
        with pytest.raises(ValueError):
            controller.throughput_by_class(0.0)
