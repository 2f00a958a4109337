"""Scouting-mechanism dynamics: gaps, stalls, counters (Section 2.2).

Exercises the acknowledgment machinery beyond the closed-form minimums:
the header/data gap while advancing, data creep when the header stalls,
and negative-acknowledgment bookkeeping during backtracking.
"""

import pytest

from repro.network.topology import KAryNCube, PLUS
from repro.sim.simulator import idle_engine
from repro.sim.trace import MessageTracer

from tests.conftest import drain_engine


def scouting_engine(k=12, length=16, K=3):
    return idle_engine(
        "det", {"flow": "sr", "k": K}, k=k, message_length=length,
    )


class TestAdvancingGap:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_gap_never_exceeds_2k(self, K):
        """While the header advances, the data head trails it by at
        most 2K links (the paper: the gap grows up to 2K - 1 while
        advancing; one extra transient hop at the boundary)."""
        engine = scouting_engine(K=K)
        msg = engine.inject(0, 5, length=16)
        tracer = MessageTracer(engine, msg)
        tracer.run(300)
        for s in tracer.samples:
            if s.header_router is None or not s.data_at:
                continue
            head = max(s.data_at)
            assert s.header_router - head <= 2 * K

    def test_data_waits_k_acks_at_source(self):
        K = 3
        engine = scouting_engine(K=K)
        msg = engine.inject(0, 6, length=16)
        first_injection = None
        for cycle in range(1, 60):
            engine.step()
            if msg.injected_cycle is not None:
                first_injection = msg.injected_cycle
                break
        # First data flit leaves during cycle 2K + 1.
        assert first_injection == 2 * K + 1
        drain_engine(engine)


class TestStalledHeader:
    def test_data_stops_short_of_blocked_header(self):
        """When the header blocks, data creeps up and halts with a gap
        of K - 1 links (the counters encode distance-to-header)."""
        K = 3
        engine = scouting_engine(k=24, K=K)  # +x path of 10 is minimal
        topo = engine.topology
        # Block the path at hop 8 by parking a phantom reservation on
        # the deterministic VCs of the next channel.
        block_node = 8
        block_ch = topo.channel_id(block_node, 0, PLUS)
        for vc in engine.channels.vcs(block_ch):
            vc.reserve(9999)
        msg = engine.inject(0, 10, length=16)
        for _ in range(80):
            engine.step()
        assert msg.header_router == block_node  # header blocked
        # Data head halted K-1 links behind the stalled header.
        head_router = msg.head_link + 1
        assert block_node - head_router == K - 1
        # Unblock and finish.
        for vc in engine.channels.vcs(block_ch):
            vc.release()
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"


class TestCounters:
    def test_acks_annihilate_at_data_head(self):
        """No acknowledgment token survives past the first data flit:
        after the run every counter at/below the head was touched and
        the network drains with no stray tokens."""
        engine = scouting_engine(K=2)
        msg = engine.inject(0, 6, length=8)
        drain_engine(engine)
        assert not engine.control_out

    def test_ack_traffic_proportional_to_path(self):
        """SR sends one positive ack per non-destination hop."""
        counts = {}
        for links in (3, 6):
            engine = scouting_engine(K=2)
            msg = engine.inject(0, links, length=8)
            drain_engine(engine)
            counts[links] = engine.control_flits_sent
        # Longer path -> strictly more control flits.
        assert counts[6] > counts[3]

    def test_no_acks_with_k_zero_tp(self):
        engine = idle_engine("tp", k=8, message_length=8)
        msg = engine.inject(0, 4, length=8)
        drain_engine(engine)
        # Fault-free TP with K=0: only the 4 header hops cross the
        # control channels — no acknowledgments at all (Section 6.1).
        assert engine.control_flits_sent == 4


class TestBacktrackCounters:
    def test_negative_acks_rebalance_counters(self):
        """A conservative-TP run over faults: after delivery all
        in-flight tokens are consumed and channels are free, proving
        positive/negative ack bookkeeping stayed consistent."""
        from repro.faults.model import FaultState

        topo = KAryNCube(8, 2)
        faults = FaultState(topo)
        for y in (7, 0, 1):
            faults.fail_node(topo.node_id((3, y)))
        engine = idle_engine(
            "tp", {"k_unsafe": 3}, fault_state=faults, k=8,
            message_length=12,
        )
        msg = engine.inject(0, topo.node_id((4, 0)), length=12)
        drain_engine(engine)
        assert msg.status.name == "DELIVERED"
        assert engine.channels.all_free()
        assert not engine.control_out
