"""Control-plane accounting and breaker laws, over seeded call programs.

A :class:`ControlChannel` reports each call once, through four readers
that must agree: the caller's count of calls made, ``ChannelStats``, the
``phi.rpc_calls`` counters and the flight recorder's ``rpc`` records.
Its breaker moves only along CLOSED → OPEN → HALF_OPEN → {CLOSED, OPEN},
and every edge into OPEN is a counted trip.  Hypothesis draws programs of
lookups and reports over nested outages (``mark_down`` / ``mark_up`` and
scheduled windows), message loss, latency jitter beyond the timeout,
backoff jitter and a backend that refuses; the laws are checked after
every operation, with metrics and the recorder on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import ChannelConfig, CircuitBreaker, ControlChannel, RpcStatus
from repro.phi.context import CongestionContext
from repro.phi.server import ConnectionReport
from repro.simnet import Outage, Simulator

#: Every edge the breaker may record.
BREAKER_EDGES = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
}


class RefusableBackend:
    """Answers, or refuses like a replica without quorum."""

    def __init__(self):
        self.refusing = False

    def lookup(self):
        if self.refusing:
            raise ConnectionError("no quorum")
        return CongestionContext.idle()

    def report(self, report):
        if self.refusing:
            raise ConnectionError("no quorum")


def _report(flow_id, at):
    return ConnectionReport(
        flow_id=flow_id,
        reported_at=at,
        bytes_transferred=3000,
        duration_s=0.05,
        mean_rtt_s=0.024,
        min_rtt_s=0.020,
        loss_indicator=0.0,
    )


#: Calls, and the faults that fail them.  Outages nest, so ``up`` is
#: drawn as often as ``down``.
OPS = ("lookup",) * 4 + ("report",) * 3 + (
    "down", "up", "outage", "refuse", "serve", "serve", "wait", "wait"
)

CONFIGS = st.builds(
    ChannelConfig,
    loss_probability=st.sampled_from([0.0, 0.2, 0.6]),
    jitter_s=st.sampled_from([0.0, 0.3]),  # 0.3 can push an attempt past the timeout
    max_retries=st.integers(0, 3),
    backoff_jitter=st.sampled_from([0.0, 0.5]),
    deadline_s=st.sampled_from([0.6, 2.0]),
)


def _check_laws(channel, calls_made, tele, rec):
    stats = channel.stats
    by_status = stats.by_status
    counters = tele.registry.snapshot()["counters"]
    metered = sum(v for k, v in counters.items() if k.startswith("phi.rpc_calls{"))
    records = list(iter_layer(rec.records(), "phi"))
    rpc_records = [r for r in records if r["kind"] == "rpc"]
    assert calls_made == stats.calls == sum(by_status.values()) == metered == len(rpc_records)
    assert stats.successes == by_status.get(RpcStatus.OK.value, 0)
    assert stats.fast_failures == by_status.get(RpcStatus.CIRCUIT_OPEN.value, 0)
    assert stats.successes + stats.failures == stats.calls
    edges = [(r["detail"]["from"], r["detail"]["to"]) for r in records if r["kind"] == "breaker"]
    assert set(edges) <= BREAKER_EDGES, edges
    assert sum(to == "open" for _, to in edges) == channel.breaker.trips
    return edges


def _run_program(config, threshold, reset_s, seed, n_ops):
    """Run one seeded program, checking the laws after every operation;
    return the statuses and breaker edges it reached."""
    rng = random.Random(seed)
    sim = Simulator()
    backend = RefusableBackend()
    with telemetry.use() as tele, flightrec.use() as rec:
        channel = ControlChannel(
            sim,
            backend,
            config=config,
            rng=random.Random(seed + 1),
            breaker=CircuitBreaker(
                lambda: sim.now, failure_threshold=threshold, reset_timeout_s=reset_s
            ),
        )
        calls_made = 0
        edges = []
        for step in range(n_ops):
            op = rng.choice(OPS)
            if op == "lookup":
                channel.call_lookup()
                calls_made += 1
            elif op == "report":
                channel.call_report(_report(step, sim.now))
                calls_made += 1
            elif op == "down":
                channel.mark_down()
            elif op == "up":
                channel.mark_up()
            elif op == "outage":
                Outage(
                    sim, sim.now + rng.choice((0.0, 0.2)), rng.choice((0.1, 1.0)),
                    targets=[channel],
                )
            elif op == "refuse":
                backend.refusing = True
            elif op == "serve":
                backend.refusing = False
            else:
                sim.run(until=sim.now + rng.choice((0.05, 0.3, 1.5)))
            edges = _check_laws(channel, calls_made, tele, rec)
    return set(channel.stats.by_status), set(edges)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    config=CONFIGS,
    threshold=st.integers(1, 3),
    reset_s=st.sampled_from([0.2, 1.0]),
    seed=st.integers(0, 2**16),
    n_ops=st.integers(1, 120),
)
def test_accounting_and_breaker_laws(config, threshold, reset_s, seed, n_ops):
    _run_program(config, threshold, reset_s, seed, n_ops)


def test_programs_reach_every_status_and_edge():
    """The generator does what the property relies on: a handful of fixed
    programs reach every terminal status, the refusal included, and every
    breaker edge."""
    statuses, edges = set(), set()
    for seed in range(4):
        config = ChannelConfig(
            loss_probability=0.2, jitter_s=0.3, max_retries=seed % 4,
            backoff_jitter=0.5, deadline_s=0.6 if seed % 2 else 2.0,
        )
        reached = _run_program(config, 3 if seed % 2 else 1, 0.2, seed, 120)
        statuses |= reached[0]
        edges |= reached[1]
    assert statuses == {status.value for status in RpcStatus}
    assert edges == BREAKER_EDGES
