"""Unit tests for the time-space diagram tracer."""

from repro.core.latency_model import t_pcs, t_scouting, t_wormhole
from repro.sim.simulator import idle_engine
from repro.sim.trace import MessageTracer, trace_single_message


class TestTraceSingleMessage:
    def test_wr_trace_terminates_delivered(self):
        tracer = trace_single_message("det", 0, 3, length=4,
                                      protocol_params={"flow": "wr"})
        assert tracer.message.status.name == "DELIVERED"
        assert tracer.samples[-1].status == "DELIVERED"

    def test_sample_count_matches_latency(self):
        tracer = trace_single_message("det", 0, 3, length=4,
                                      protocol_params={"flow": "wr"})
        # One initial sample plus one per cycle until delivery.
        assert len(tracer.samples) == t_wormhole(3, 4) + 1

    def test_header_advances_monotonically_wr(self):
        tracer = trace_single_message("det", 0, 4, length=4,
                                      protocol_params={"flow": "wr"})
        headers = [
            s.header_router for s in tracer.samples
            if s.header_router is not None
        ]
        assert headers == sorted(headers)
        assert headers[-1] == 4

    def test_scouting_trace_shows_acks(self):
        tracer = trace_single_message("det", 0, 4, length=4,
                                      protocol_params={"flow": "sr", "k": 2})
        assert any(s.ack_positions for s in tracer.samples)
        assert len(tracer.samples) == t_scouting(4, 4, 2) + 1

    def test_pcs_data_waits_for_setup(self):
        tracer = trace_single_message("det", 0, 4, length=4,
                                      protocol_params={"flow": "pcs"})
        # No data beyond the source before the header reaches the
        # destination (cycle 4).
        for s in tracer.samples:
            if s.cycle <= 4:
                assert not s.data_at
        assert len(tracer.samples) == t_pcs(4, 4) + 1

    def test_scouting_gap_bounded_by_2k_minus_1(self):
        k = 2
        tracer = trace_single_message("det", 0, 6, length=8,
                                      protocol_params={"flow": "sr", "k": k})
        for s in tracer.samples:
            if s.header_router is None or not s.data_at:
                continue
            if s.header_router >= s.path_len and s.status == "ACTIVE":
                head = max(s.data_at)
                if s.header_router > head:
                    assert s.header_router - head <= 2 * k


class TestRendering:
    def test_render_contains_header_and_legend(self):
        tracer = trace_single_message("det", 0, 3, length=4,
                                      protocol_params={"flow": "wr"})
        text = tracer.render()
        assert "cycle" in text and "legend" in text
        assert "H" in text

    def test_render_empty(self):
        from repro.sim.simulator import idle_engine

        engine = idle_engine("tp", k=4)
        msg = engine.inject(0, 1)
        assert MessageTracer(engine, msg).render() == "(no samples)"

    def test_render_width_cap(self):
        tracer = trace_single_message("det", 0, 3, length=2,
                                      protocol_params={"flow": "wr"})
        text = tracer.render(max_width=2)
        assert "R0" in text and "R3" not in text


class TestHardwareAcks:
    @staticmethod
    def _diagram(hardware_acks: bool) -> str:
        engine = idle_engine(
            "det", {"flow": "sr", "k": 3}, k=8, message_length=8,
            hardware_acks=hardware_acks,
        )
        tracer = MessageTracer(engine, engine.inject(0, 5, length=8))
        tracer.sample()
        tracer.run(200)
        assert tracer.message.status.name == "DELIVERED"
        return tracer.render()

    def test_acks_on_their_own_wires_are_drawn(self):
        """The ack wires run opposite to the data, so a lone message
        keeps its timing and its diagram — acknowledgments included —
        whichever wires carry them."""
        shared = self._diagram(hardware_acks=False)
        assert "<" in shared.split("legend")[0]
        assert self._diagram(hardware_acks=True) == shared
