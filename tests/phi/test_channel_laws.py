"""Control-plane accounting and breaker laws, over seeded call programs.

A :class:`ControlChannel` reports each call once, through three readers
that must agree: the caller's count of calls made, the ``phi.rpc_calls``
counters and the flight recorder's ``rpc`` records, status by status; the
channel's own ``fast_failures`` is their ``circuit_open`` count.
Its breaker moves only along CLOSED → OPEN → HALF_OPEN → {CLOSED, OPEN},
and the recorder and ``phi.breaker_transitions`` count the same edges.
Hypothesis draws programs of lookups and reports over nested outages
(``mark_down`` / ``mark_up`` and scheduled windows) and breaker
cool-downs; the laws are checked after every operation,
with metrics and the recorder on.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import ChannelConfig, ControlChannel, RpcStatus
from repro.phi.server import ConnectionReport
from repro.simnet import Outage, Simulator

from .conftest import IDLE

#: Every edge the breaker may record.
BREAKER_EDGES = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
}


class Backend:
    """Answers every call; the channel's marks and breaker fail them."""

    def lookup(self):
        return IDLE

    def report(self, report):
        pass


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
    "down", "up", "outage", "wait", "wait"
)

def _check_laws(channel, calls_made, tele, rec):
    counters = tele.registry.snapshot()["counters"]
    metered = Counter()
    for key, value in counters.items():
        if key.startswith("phi.rpc_calls{"):
            metered[key.rsplit("status=", 1)[1].rstrip("}")] += int(value)
    records = list(iter_layer(rec.records(), "phi"))
    by_status = Counter(r["detail"]["status"] for r in records if r["kind"] == "rpc")
    assert calls_made == sum(by_status.values())
    assert metered == by_status
    assert channel.fast_failures == by_status[RpcStatus.CIRCUIT_OPEN.value]
    edges = [(r["detail"]["from"], r["detail"]["to"]) for r in records if r["kind"] == "breaker"]
    assert set(edges) <= BREAKER_EDGES, edges
    metered_edges = {
        k: v for k, v in counters.items() if k.startswith("phi.breaker_transitions{")
    }
    assert metered_edges == {
        f"phi.breaker_transitions{{from_state={a},to_state={b}}}": float(edges.count((a, b)))
        for a, b in set(edges)
    }
    return by_status, edges


def _run_program(reset_s, seed, n_ops):
    """Run one seeded program, checking the laws after every operation;
    return the statuses and breaker edges it reached."""
    rng = random.Random(seed)
    sim = Simulator()
    backend = Backend()
    with telemetry.use() as tele, flightrec.use() as rec:
        channel = ControlChannel(sim, backend, config=ChannelConfig(breaker_reset_s=reset_s))
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
            else:
                sim.run(until=sim.now + rng.choice((0.05, 0.3, 1.5)))
            by_status, edges = _check_laws(channel, calls_made, tele, rec)
    return set(by_status), set(edges)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    reset_s=st.sampled_from([0.2, 1.0]),
    seed=st.integers(0, 2**16),
    n_ops=st.integers(1, 120),
)
def test_accounting_and_breaker_laws(reset_s, seed, n_ops):
    _run_program(reset_s, seed, n_ops)


def test_programs_reach_every_status_and_edge():
    """The generator does what the property relies on: a handful of fixed
    programs reach every terminal status and every breaker edge."""
    statuses, edges = set(), set()
    for seed in range(4):
        reached = _run_program(0.2, seed, 120)
        statuses |= reached[0]
        edges |= reached[1]
    assert statuses == {status.value for status in RpcStatus}
    assert edges == BREAKER_EDGES
