"""End-to-end observation of a Two-Phase detour (Figure 7's scenario)."""

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube
from repro.sim.simulator import idle_engine
from repro.sim.trace import MessageTracer

from tests.conftest import drain_engine


def walled_engine(k_unsafe=0):
    """Source (0,0) -> dst (3,0) with a node wall at x = 2."""
    topo = KAryNCube(8, 2)
    faults = FaultState(topo)
    for y in (7, 0, 1):
        faults.fail_node(topo.node_id((2, y)))
    engine = idle_engine(
        "tp", {"k_unsafe": k_unsafe}, fault_state=faults, k=8,
        message_length=16,
    )
    return engine, topo


class TestDetourLifecycle:
    def test_header_enters_and_leaves_detour_mode(self):
        engine, topo = walled_engine()
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        saw_detour = False
        for _ in range(600):
            engine.step()
            if msg.header.detour:
                saw_detour = True
            if msg.is_terminal():
                break
        assert saw_detour, "the wall must force a detour"
        assert msg.status.name == "DELIVERED"
        assert not msg.header.detour  # completed, reset to DP
        assert not msg.header.detour
        assert msg.detour_count >= 1

    def test_detour_channels_held_until_resume(self):
        """While the detour bit is set, no data advances onto the
        channels reserved in detour mode ('all channels (or none)')."""
        engine, topo = walled_engine()
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        for _ in range(600):
            engine.step()
            if msg.header.detour:
                for idx, held in enumerate(msg.held):
                    if held:
                        assert msg.buffered[idx] == 0, (
                            "data crossed a held detour channel"
                        )
            if msg.is_terminal():
                break
        assert msg.status.name == "DELIVERED"

    def test_detour_uses_only_adaptive_channels(self):
        from repro.network.channel import VCClass

        engine, topo = walled_engine()
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        detour_classes = set()
        was_detour = False
        prev_len = 0
        for _ in range(600):
            engine.step()
            if len(msg.path) > prev_len and msg.header.detour:
                detour_classes.add(msg.path[-1].vclass)
            was_detour = msg.header.detour
            prev_len = len(msg.path)
            if msg.is_terminal():
                break
        assert detour_classes <= {VCClass.ADAPTIVE}

    def test_trace_shows_backtrack_or_misroute(self):
        engine, topo = walled_engine()
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        tracer = MessageTracer(engine, msg)
        tracer.run(600)
        assert msg.status.name == "DELIVERED"
        assert msg.misroute_total >= 1
        text = tracer.render()
        assert "H" in text

    def test_conservative_detour_also_delivers(self):
        engine, topo = walled_engine(k_unsafe=3)
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"
        assert engine.channels.all_free()

    def test_sr_bit_sticky_once_set(self):
        engine, topo = walled_engine(k_unsafe=3)
        msg = engine.inject(0, topo.node_id((3, 0)), length=16)
        sr_set_cycle = None
        for _ in range(600):
            engine.step()
            if msg.header.sr and sr_set_cycle is None:
                sr_set_cycle = engine.cycle
            if sr_set_cycle is not None:
                assert msg.header.sr, "SR bit must remain set"
            if msg.is_terminal():
                break
        assert sr_set_cycle is not None

