"""Control-plane accounting laws, over seeded call programs.

A :class:`ControlChannel` reports each call once, through three readers
that must agree: the channel calls made, the ``phi.rpc_calls`` counters
and the flight recorder's ``rpc`` records, status by status.  Every
plane puts a :class:`FailoverChannel` over its channels, one replica for
a single server, so the programs call through a one-replica failover
channel: a call it refuses while the server is benched makes no channel
call, and is counted once each by its ``fast_failures``, an
``all_suspended`` record and ``phi.replica_rpc_calls{replica=none}``.
Hypothesis draws programs of lookups and reports over nested outages
(``mark_down`` / ``mark_up`` and scheduled windows) and waits that let
the bench lapse; the laws are checked after every operation, with
metrics and the recorder on.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flightrec, telemetry
from repro.flightrec import iter_layer
from repro.phi.channel import ControlChannel, RpcStatus
from repro.phi.failover import FailoverChannel, FailoverConfig
from repro.phi.server import ConnectionReport
from repro.simnet import Outage, Simulator

from .conftest import IDLE


class Backend:
    """Answers every call; the channel's marks fail them."""

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

def _check_laws(failover, calls_made, tele, rec):
    counters = tele.registry.snapshot()["counters"]
    metered = Counter()
    by_replica = Counter()
    for key, value in counters.items():
        status = key.rsplit("status=", 1)[-1].rstrip("}")
        if key.startswith("phi.rpc_calls{"):
            metered[status] += int(value)
        elif key.startswith("phi.replica_rpc_calls{"):
            by_replica[status] += int(value)
    records = list(iter_layer(rec.records(), "phi"))
    by_status = Counter(r["detail"]["status"] for r in records if r["kind"] == "rpc")
    refused = sum(1 for r in records if r["kind"] == "all_suspended")
    assert calls_made == sum(by_status.values()) + refused
    assert metered == by_status
    assert failover.stats.fast_failures == refused
    assert by_replica == by_status + Counter(
        {RpcStatus.ALL_SUSPENDED.value: refused} if refused else {}
    )
    return set(by_status) | ({RpcStatus.ALL_SUSPENDED.value} if refused else set())


def _run_program(jitter, seed, n_ops):
    """Run one seeded program, checking the laws after every operation;
    return the statuses it reached."""
    rng = random.Random(seed)
    sim = Simulator()
    backend = Backend()
    with telemetry.use() as tele, flightrec.use() as rec:
        channel = ControlChannel(sim, backend)
        failover = FailoverChannel(
            sim, [channel], rng=random.Random(seed),
            config=FailoverConfig(suspend_jitter=jitter),
        )
        calls_made = 0
        for step in range(n_ops):
            op = rng.choice(OPS)
            if op == "lookup":
                failover.call_lookup()
                calls_made += 1
            elif op == "report":
                failover.call_report(_report(step, sim.now))
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
            statuses = _check_laws(failover, calls_made, tele, rec)
    return statuses


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    jitter=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
    n_ops=st.integers(1, 120),
)
def test_accounting_laws(jitter, seed, n_ops):
    _run_program(jitter, seed, n_ops)


def test_programs_reach_every_status():
    """The generator does what the property relies on: a handful of fixed
    programs reach every terminal status."""
    statuses = set()
    for seed in range(4):
        statuses |= _run_program(0.5, seed, 120)
    assert statuses == {status.value for status in RpcStatus}
