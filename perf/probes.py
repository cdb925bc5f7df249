"""Isolated probes: one layer's public calls in a timed loop, min of 5.

The traced pass says where a *workload's* time goes; a probe says what
one layer costs with nothing else running, so a per-layer change can be
seen before it is diluted by the rest of a run.  Each probe builds its
objects fresh, times only the loop, and keeps the fastest of
:data:`REPEATS` (host noise only ever adds time).  Sizes are small on
purpose: every traced run pays for all of them.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict

from repro.experiments import TABLE3_REMY, ScenarioPreset, run_cubic_fixed
from repro.phi import (
    ChannelConfig,
    ConnectionReport,
    ContextServer,
    ControlChannel,
    FailoverChannel,
    FailoverConfig,
    ReplicatedContextService,
    ReplicationConfig,
)
from repro.runner import DiskCache, SweepJournal, SweepPoint, SweepSpec, evaluate_point
from repro.simnet import (
    MSS_BYTES,
    DropTailQueue,
    DumbbellConfig,
    Host,
    Link,
    Router,
    Simulator,
    make_ack_packet,
    make_data_packet,
)
from repro.transport import CubicParams

REPEATS = 5
CAPACITY_BPS = 15e6
WINDOW_S = 10.0

PROBES = (
    "simnet.engine.churn_events_per_s",
    "simnet.engine.rearm_events_per_s",
    "simnet.link.fwd_ns_per_hop_mss",
    "simnet.link.fwd_ns_per_hop_ack",
    "simnet.link.fwd_ns_per_hop_queued",
    "transport.single_flow_us_per_segment",
    "phi.server.lookup_us_w100",
    "phi.server.lookup_us_w5000",
    "phi.server.report_us_w100",
    "phi.server.report_us_w5000",
    "phi.channel.rpc_us",
    "phi.failover.rpc_us",
    "phi.failover.rpc_us_cut",
    "phi.replication.tick_ms",
    "runner.cache_put_ms",
    "runner.cache_hit_ms",
    "runner.journal_append_ms",
    "runner.journal_load_ms_per_point",
)


def _fastest(build: Callable[[], Callable[[], float]]) -> float:
    """Min over REPEATS of: build fresh state, then run the timed loop.

    ``build()`` returns the loop; the loop returns how many units of
    work it did.  The result is seconds per unit.
    """
    best = float("inf")
    for _ in range(REPEATS):
        loop = build()
        started = time.perf_counter()
        units = loop()
        best = min(best, (time.perf_counter() - started) / units)
    return best


# ----------------------------------------------------------------------
# simnet.engine
# ----------------------------------------------------------------------
def _churn(n_events: int) -> Callable[[], float]:
    """Self-rescheduling events on 32 lanes: the bare heap's ceiling."""
    sim = Simulator()
    remaining = [n_events]

    def tick(lane: int) -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001 * (lane + 1), tick, lane)

    for lane in range(32):
        sim.schedule(0.001, tick, lane)

    def loop() -> float:
        sim.run()
        return sim.events_processed

    return loop


def _rearm(n_events: int) -> Callable[[], float]:
    """Every event cancels a far-future timer and arms a new one (RTO)."""
    sim = Simulator()
    remaining = [n_events]
    timers = [sim.schedule(1000.0, int) for _ in range(32)]

    def tick(lane: int) -> None:
        timers[lane].cancel()
        timers[lane] = sim.schedule(1000.0, int)
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001 * (lane + 1), tick, lane)

    for lane in range(32):
        sim.schedule(0.001, tick, lane)

    def loop() -> float:
        sim.run(until=500.0)
        return sim.events_processed

    return loop


# ----------------------------------------------------------------------
# simnet.link
# ----------------------------------------------------------------------
def _forwarding(n_packets: int, *, ack: bool, burst: int) -> Callable[[], float]:
    """Host.send -> Link -> Router -> Link -> Host, no transport.

    ``burst == 1`` paces packets so no queue ever forms; a larger burst
    goes into a bounded drop-tail queue that holds half of it.
    """
    sim = Simulator()
    src, router, dst = Host("a"), Router("r"), Host("b")
    size = 40 if ack else MSS_BYTES + 40
    queue = None
    if burst > 1:
        queue = DropTailQueue(size * burst // 2, lambda: sim.now)
    first = Link(sim, "a-r", CAPACITY_BPS, 0.001, queue)
    second = Link(sim, "r-b", CAPACITY_BPS, 0.001)
    first.attach(router)
    second.attach(dst)
    src.set_uplink(first)
    router.set_default_route(second)
    dst.set_default_handler(lambda packet: None)
    if ack:
        packets = [make_ack_packet(1, "a", "b", i) for i in range(n_packets)]
    else:
        packets = [make_data_packet(1, "a", "b", i * MSS_BYTES) for i in range(n_packets)]
    packets.reverse()
    # A burst is offered at once, then the wire gets 1.25 bursts' time:
    # paced traffic never queues, bursts overflow the queue every time.
    gap = 1.25 * burst * size * 8.0 / CAPACITY_BPS

    def emit() -> None:
        for _ in range(min(burst, len(packets))):
            src.send(packets.pop())
        if packets:
            sim.schedule(gap, emit)

    sim.schedule(0.0, emit)

    def loop() -> float:
        sim.run()
        return first.packets_offered + second.packets_offered

    return loop


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------
def _single_flow(seed: int, duration_s: float) -> float:
    """One persistent Cubic flow end to end: seconds per goodput segment."""
    preset = ScenarioPreset(
        name="perf-single-flow",
        config=DumbbellConfig(n_senders=1),
        workload=None,
        duration_s=duration_s,
        description="one persistent flow on the default dumbbell",
    )
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_cubic_fixed(CubicParams.default(), preset, seed)
        elapsed = time.perf_counter() - started
        segments = sum(
            stats.bytes_goodput for sender in result.per_sender_stats for stats in sender
        ) / MSS_BYTES
        best = min(best, elapsed / segments)
    return best


# ----------------------------------------------------------------------
# phi
# ----------------------------------------------------------------------
def _report(index: int, at: float) -> ConnectionReport:
    return ConnectionReport(
        flow_id=index,
        reported_at=at,
        bytes_transferred=3000 + index % 7,
        duration_s=0.05,
        mean_rtt_s=0.024,
        min_rtt_s=0.020,
        loss_indicator=0.0,
    )


def _resident(sim: Simulator, sinks, n_reports: int) -> None:
    """Fill each sink's 10 s window with ``n_reports`` evenly spread reports."""
    step = WINDOW_S / n_reports
    for index in range(n_reports):
        sim.run(until=sim.now + step)
        for sink in sinks:
            sink.report(_report(index, sim.now))


def _server(n_resident: int, n_calls: int, op: str) -> Callable[[], float]:
    sim = Simulator()
    server = ContextServer(sim, CAPACITY_BPS, window_s=WINDOW_S)
    _resident(sim, [server], n_resident)
    step = WINDOW_S / n_resident

    def lookups() -> float:
        for _ in range(n_calls):
            server.lookup()
        return n_calls

    def reports() -> float:
        # The clock moves one slot per report, so one old report ages
        # out as each new one lands: the resident count holds.
        for index in range(n_calls):
            sim.run(until=sim.now + step)
            server.report(_report(index, sim.now))
        return n_calls

    return lookups if op == "lookup" else reports


def _rpc_pairs(sim: Simulator, channel, n_pairs: int) -> Callable[[], float]:
    """Lookup + report through ``channel``, 10 sim-ms apart."""

    def loop() -> float:
        for index in range(n_pairs):
            sim.run(until=sim.now + 0.010)
            channel.call_lookup()
            channel.call_report(_report(index, sim.now))
        return 2 * n_pairs

    return loop


def _channel(n_pairs: int) -> Callable[[], float]:
    sim = Simulator()
    server = ContextServer(sim, CAPACITY_BPS, window_s=WINDOW_S)
    _resident(sim, [server], 100)
    return _rpc_pairs(sim, ControlChannel(sim, server, config=ChannelConfig()), n_pairs)


def _replicas(sim: Simulator, period_s: float) -> ReplicatedContextService:
    return ReplicatedContextService(
        sim,
        CAPACITY_BPS,
        config=ReplicationConfig(n_replicas=3, anti_entropy_period_s=period_s),
        window_s=WINDOW_S,
        lease_ttl_s=60.0,
    )


def _failover(n_pairs: int, *, cut: bool) -> Callable[[], float]:
    sim = Simulator()
    # No anti-entropy inside the loop: tick_ms measures that on its own.
    service = _replicas(sim, period_s=1e9)
    _resident(sim, service.handles, 100)
    channels = [
        ControlChannel(sim, service.handle(index), config=ChannelConfig())
        for index in range(3)
    ]
    if cut:
        channels[0].mark_down()
    failover = FailoverChannel(
        sim, channels, config=FailoverConfig(suspend_jitter=0.0)
    )
    return _rpc_pairs(sim, failover, n_pairs)


def _tick(n_fresh: int) -> Callable[[], float]:
    """One anti-entropy tick with ``n_fresh`` unreplicated reports per replica."""
    sim = Simulator()
    service = _replicas(sim, period_s=1.0)
    sim.run(until=0.5)
    for replica in range(3):
        for index in range(n_fresh):
            service.handle(replica).report(_report(replica * n_fresh + index, sim.now))

    def loop() -> float:
        sim.run(until=1.0)
        if service.anti_entropy_merges != 1:
            raise RuntimeError("the anti-entropy tick did not run")
        return 1

    return loop


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _runner(seed: int, tmp_dir: str, duration_s: float) -> Dict[str, float]:
    spec = SweepSpec(preset=TABLE3_REMY, duration_s=duration_s)
    grid = [CubicParams(2.0, 16.0, 0.5), CubicParams(64.0, 128.0, 0.8)]
    points = [
        evaluate_point(spec, SweepPoint(params=params, run_index=0, seed=seed))
        for params in grid
    ]
    n = len(points)
    rounds = iter(range(4 * REPEATS))

    def cache_put() -> Callable[[], float]:
        cache = DiskCache(os.path.join(tmp_dir, f"probe-cache-{next(rounds)}"))

        def loop() -> float:
            for point in points:
                cache.put(point)
            return n

        return loop

    def cache_hit() -> Callable[[], float]:
        cache = DiskCache(os.path.join(tmp_dir, f"probe-cache-{next(rounds)}"))
        for point in points:
            cache.put(point)

        def loop() -> float:
            for point in points:
                if cache.get(point.key) is None:
                    raise RuntimeError("cache probe missed")
            return n

        return loop

    def journal(load: bool) -> Callable[[], float]:
        path = os.path.join(tmp_dir, f"probe-journal-{next(rounds)}.jsonl")
        log = SweepJournal(path, fsync=True)

        def append() -> float:
            with log:
                for point in points:
                    log.append(point)
            return n

        def reload() -> float:
            if len(log.load()) != n:
                raise RuntimeError("journal probe lost a record")
            return n

        if load:
            append()
            return reload
        return append

    return {
        "runner.cache_put_ms": _fastest(cache_put) * 1e3,
        "runner.cache_hit_ms": _fastest(cache_hit) * 1e3,
        "runner.journal_append_ms": _fastest(lambda: journal(False)) * 1e3,
        "runner.journal_load_ms_per_point": _fastest(lambda: journal(True)) * 1e3,
    }


def run_all(seed: int, tmp_dir: str, short: bool = False) -> Dict[str, float]:
    """Every probe, by metric name."""
    k = 10 if short else 1
    values = {
        "simnet.engine.churn_events_per_s": 1.0 / _fastest(lambda: _churn(50_000 // k)),
        "simnet.engine.rearm_events_per_s": 1.0 / _fastest(lambda: _rearm(30_000 // k)),
        "simnet.link.fwd_ns_per_hop_mss": 1e9
        * _fastest(lambda: _forwarding(8_000 // k, ack=False, burst=1)),
        "simnet.link.fwd_ns_per_hop_ack": 1e9
        * _fastest(lambda: _forwarding(8_000 // k, ack=True, burst=1)),
        "simnet.link.fwd_ns_per_hop_queued": 1e9
        * _fastest(lambda: _forwarding(8_000 // k, ack=False, burst=32)),
        "transport.single_flow_us_per_segment": 1e6
        * _single_flow(seed, 1.0 if short else 3.0),
        "phi.server.lookup_us_w100": 1e6 * _fastest(lambda: _server(100, 500 // k, "lookup")),
        "phi.server.lookup_us_w5000": 1e6
        * _fastest(lambda: _server(5000 // k, 50, "lookup")),
        "phi.server.report_us_w100": 1e6 * _fastest(lambda: _server(100, 2000 // k, "report")),
        "phi.server.report_us_w5000": 1e6
        * _fastest(lambda: _server(5000 // k, 2000 // k, "report")),
        "phi.channel.rpc_us": 1e6 * _fastest(lambda: _channel(300 // k)),
        "phi.failover.rpc_us": 1e6 * _fastest(lambda: _failover(300 // k, cut=False)),
        "phi.failover.rpc_us_cut": 1e6 * _fastest(lambda: _failover(300 // k, cut=True)),
        "phi.replication.tick_ms": 1e3 * _fastest(lambda: _tick(500 // k)),
    }
    values.update(_runner(seed, tmp_dir, 1.0 if short else 3.0))
    return values
