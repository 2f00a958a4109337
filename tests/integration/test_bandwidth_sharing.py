"""Physical-channel bandwidth sharing between virtual channels.

Dally's virtual-channel flow control [6]: messages on different VCs of
one physical channel share its bandwidth flit-by-flit, demand-driven.
Two equal-length messages forced onto the same physical link must
interleave — each gets ~half the link — and control flits must steal
exactly the slots they occupy.
"""

from repro.core.latency_model import t_wormhole
from repro.network.channel import VCClass
from repro.network.topology import KAryNCube, PLUS
from repro.sim.simulator import idle_engine

from tests.conftest import drain_engine


def shared_link_engine(length=16):
    """Two messages whose minimal paths share the link (1,0)->(2,0)."""
    engine = idle_engine("tp", k=8, message_length=length)
    topo = engine.topology
    # Both start on row 0, two hops apart, same destination direction:
    # a: (1,0) -> (3,0), b: (0,0) -> (3,0); both must cross (1,0)->(2,0)
    # wait: a starts at (1,0); b reaches (1,0) one hop later.
    a = engine.inject(topo.node_id((1, 0)), topo.node_id((4, 0)),
                      length=length)
    b = engine.inject(topo.node_id((0, 0)), topo.node_id((4, 0)),
                      length=length)
    return engine, topo, a, b


class TestInterleaving:
    def test_both_delivered_with_shared_link(self):
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        assert a.status.name == "DELIVERED"
        assert b.status.name == "DELIVERED"

    def test_sharing_slows_both_past_idle_floor(self):
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        lat_a = a.delivered_cycle - a.created_cycle
        lat_b = b.delivered_cycle - b.created_cycle
        # Idle floors: a over 3 links, b over 4 links (16 flits).
        assert lat_a > t_wormhole(3, 16) or lat_b > t_wormhole(4, 16)

    def test_shared_channel_carries_both_messages(self):
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        ch = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        owners_grants = [
            vc.grants for vc in engine.channels.vcs(ch) if vc.grants
        ]
        # Two distinct VCs of the channel moved flits (one per message).
        assert len(owners_grants) >= 2

    def test_total_crossings_conserved(self):
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        ch = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        total = sum(vc.grants for vc in engine.channels.vcs(ch))
        # Both messages' 16 data flits crossed this link exactly once.
        assert total == 32

    def test_single_adaptive_vc_serializes(self):
        """One adaptive VC per channel: the second message over the
        shared link cannot share it and takes an escape VC instead —
        blocking onto the escape layer, not loss."""
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        assert a.status.name == "DELIVERED"
        assert b.status.name == "DELIVERED"
        ch = topo.channel_id(topo.node_id((1, 0)), 0, PLUS)
        classes = [vc.vclass for vc in engine.channels.vcs(ch) if vc.grants]
        assert len(classes) == 2
        assert classes.count(VCClass.ADAPTIVE) == 1

    def test_fairness_latency_gap_bounded(self):
        engine, topo, a, b = shared_link_engine()
        drain_engine(engine)
        lat_a = a.delivered_cycle - a.created_cycle
        lat_b = b.delivered_cycle - b.created_cycle
        # Round-robin sharing: neither message starves.
        assert max(lat_a, lat_b) < 2.5 * min(lat_a, lat_b)
