"""Tracer coverage of conservative scouting behaviour around faults."""

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.sim.simulator import idle_engine
from repro.sim.trace import MessageTracer


def traced_faulty_run(k_unsafe=3):
    topo = KAryNCube(8, 2)
    faults = FaultState(topo)
    for y in (7, 0, 1):
        faults.fail_node(topo.node_id((2, y)))
    engine = idle_engine(
        "tp", {"k_unsafe": k_unsafe}, fault_state=faults, k=8,
        message_length=12,
    )
    msg = engine.inject(0, topo.node_id((3, 0)), length=12)
    tracer = MessageTracer(engine, msg)
    tracer.run(800)
    return tracer


class TestConservativeTrace:
    def test_acks_visible_after_sr_switch(self):
        tracer = traced_faulty_run(k_unsafe=3)
        assert tracer.message.status.name == "DELIVERED"
        # Conservative TP generates acknowledgment traffic after the
        # probe crosses unsafe channels.
        assert any(s.ack_positions for s in tracer.samples)

    def test_aggressive_trace_shows_resume_not_hop_acks(self):
        tracer = traced_faulty_run(k_unsafe=0)
        assert tracer.message.status.name == "DELIVERED"
        # K = 0 aggressive: ack-kind tokens only from detour resume /
        # path acknowledgment — far fewer than conservative.
        agg_tokens = sum(len(s.ack_positions) for s in tracer.samples)
        cons = traced_faulty_run(k_unsafe=3)
        cons_tokens = sum(len(s.ack_positions) for s in cons.samples)
        assert agg_tokens < cons_tokens

    def test_backtrack_marks_render(self):
        tracer = traced_faulty_run(k_unsafe=3)
        if tracer.message.backtrack_count:
            assert any(s.backtracking for s in tracer.samples)

    def test_sample_cycles_strictly_increasing(self):
        tracer = traced_faulty_run()
        cycles = [s.cycle for s in tracer.samples]
        assert cycles == sorted(set(cycles))

    def test_final_sample_terminal(self):
        tracer = traced_faulty_run()
        assert tracer.samples[-1].status == "DELIVERED"
        assert not tracer.samples[-1].data_at
