"""A control flit is built once per chain of hops, not once per hop.

Acknowledgments, path and resume tokens, kills and tail
acknowledgments propagate router by router; each arrival sends the
*same* :class:`ControlFlit` on (``repro.sim.control.relay``), so the engine
constructs one per chain started — a header hop, a backtrack, or the
first hop of a propagating token — while ``control_flits_sent`` still
counts every hop crossed.  The pinned run below exercises every
propagating kind the Two-Phase protocol emits (conservative K=3 with
static and dynamic faults, tail acknowledgments and retransmission),
and its simulated result is pinned too: relaying instead of re-minting
must not move a single cycle.
"""

import dataclasses
import hashlib
import json
from collections import Counter

from repro.network.link import ControlPlane
from repro.sim.config import FaultConfig, RecoveryConfig, SimulationConfig
from repro.sim import control
from repro.sim.message import ControlFlit, ControlKind
from repro.sim.simulator import NetworkSimulator

#: Kinds that travel more than one hop as one chain.
RELAYED = {
    ControlKind.ACK_POS, ControlKind.PATH_ACK, ControlKind.RESUME,
    ControlKind.KILL_UP, ControlKind.KILL_DOWN, ControlKind.TAIL_ACK,
}


def _cfg():
    return SimulationConfig(
        k=6, n=2, protocol="tp", protocol_params={"k_unsafe": 3},
        offered_load=0.10, message_length=8,
        warmup_cycles=150, measure_cycles=800, drain_cycles=4000, seed=4,
        faults=FaultConfig(static_node_faults=3, dynamic_faults=4,
                           dynamic_start=150),
        recovery=RecoveryConfig(tail_ack=True, retransmit=True),
    )


#: control_flits_sent and the RunResult digest of ``_cfg()``, recorded
#: when every hop still built a fresh flit.
CONTROL_FLITS_SENT = 3275
RESULT_DIGEST = (
    "307935a7fddf5ccf43da21b47a659c799fa0ee48fdedd9ccdf29e21f7649b504"
)


def test_one_control_flit_per_chain(monkeypatch):
    built = 0
    sends = 0
    relays = Counter()
    delivering = []  # (kind, message) of the token being delivered

    init = ControlFlit.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    deliver = control.deliver

    def tracking_deliver(engine, token):
        delivering.append((token.kind, token.message))
        try:
            deliver(engine, token)
        finally:
            delivering.pop()

    def counting_send(send):
        # Every flit is handed to the one send at birth and at every
        # relay; a send of the kind being delivered, for the same
        # message, during that delivery is the chain's next hop.
        def wrapped(engine, token, channel_id):
            nonlocal sends
            sends += 1
            if delivering and delivering[-1] == (token.kind, token.message):
                relays[token.kind] += 1
            send(engine, token, channel_id)
        return wrapped

    monkeypatch.setattr(ControlFlit, "__init__", counting_init)
    monkeypatch.setattr(control, "deliver", tracking_deliver)
    monkeypatch.setattr(control, "push", counting_send(control.push))

    sim = NetworkSimulator(_cfg())
    result = sim.run()

    chains = sends - sum(relays.values())
    assert built == chains
    assert set(relays) == RELAYED  # every propagating kind relayed
    assert built < sim.engine.control_flits_sent
    assert sim.engine.control_flits_sent == CONTROL_FLITS_SENT
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RESULT_DIGEST


def test_relayed_token_is_requeued_in_place(monkeypatch):
    """A relayed token comes back to the plane as the same object, one
    hop on, ready the cycle after it arrived."""
    sim = NetworkSimulator(_cfg())
    engine = sim.engine
    queued = {}  # token -> [(cycle, kind, position, ready_cycle)]
    push = ControlPlane.push

    def recording_push(self, channel_id, token):
        queued.setdefault(token, []).append(
            (engine.cycle, token.kind, token.position, token.ready_cycle)
        )
        push(self, channel_id, token)

    monkeypatch.setattr(ControlPlane, "push", recording_push)
    engine.run(600)
    chains = [hops for hops in queued.values() if len(hops) > 1]
    assert chains
    for hops in chains:
        kinds = {kind for _, kind, _, _ in hops}
        assert len(kinds) == 1 and kinds <= RELAYED
        step = 1 if hops[0][1] is ControlKind.KILL_DOWN else -1
        for (_, _, pos, _), (cycle, _, nxt, ready) in zip(hops, hops[1:]):
            assert nxt == pos + step
            assert ready == cycle + 1
