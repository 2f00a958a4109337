#!/usr/bin/env python
"""Dynamic fault recovery with kill flits and tail acknowledgments.

Reproduces the Figure 16 scenario: a physical link fails *while a
message pipeline occupies it*.  Kill flits travel to the source and the
destination, releasing every reserved virtual channel.  With reliable
delivery enabled (Figure 17's "with TAck"), the source holds a copy
until the tail acknowledgment arrives and retransmits the interrupted
message.

Run:  python examples/dynamic_fault_recovery.py
"""

from repro.faults.injection import DynamicFaultSchedule, FaultEvent
from repro.network.topology import KAryNCube, PLUS
from repro.sim.config import RecoveryConfig
from repro.sim.simulator import idle_engine


def run_scenario(reliable: bool) -> None:
    topo = KAryNCube(8, 2)
    src = topo.node_id((0, 0))
    dst = topo.node_id((3, 0))
    # The link (1,0) -> (2,0) on the minimal path fails at cycle 10,
    # while the 32-flit pipeline occupies it.
    victim_link = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
    engine = idle_engine(
        "tp", message_length=32,
        recovery=RecoveryConfig(
            tail_ack=reliable, retransmit=reliable, max_retransmits=3
        ),
        dynamic_schedule=DynamicFaultSchedule(
            events=[FaultEvent(cycle=10, kind="link", target=victim_link)]
        ),
    )
    msg = engine.inject(src, dst, length=32)
    engine.drain(5000)

    mode = "reliable (with TAck)" if reliable else "recovery-only"
    print(f"--- {mode} ---")
    print(f"  original message : {msg.status.name} "
          f"({msg.killed_flits} flits destroyed by kill flits)")
    final = [r for r in engine.records if not r.superseded]
    outcome = final[-1]
    print(f"  final outcome    : {outcome.status}"
          + (f" after {outcome.retransmits} retransmission(s)"
             if outcome.retransmits else ""))
    print(f"  control flits    : {engine.control_flits_sent} "
          f"(headers, kills, acks)")
    print(f"  all channels free: {engine.channels.all_free()}")
    print()


def main() -> None:
    print("A 32-flit message is crossing link (1,0)->(2,0) when the link")
    print("fails at cycle 10 (the paper's Figure 16 scenario).\n")
    run_scenario(reliable=False)
    run_scenario(reliable=True)
    print("Without tail acknowledgments the message is torn down and")
    print("lost (rare, accepted by design); with them the source still")
    print("holds the message and retransmits it over a healthy path.")


if __name__ == "__main__":
    main()
