"""Cross-checks between the flow-control model and theorem constants."""

from repro.core.flow_control import (
    K_INFINITE,
    FlowControlConfig,
    FlowControlKind,
    gate_open,
)
from repro.core.latency_model import t_pcs, t_scouting
from repro.core.theorems import (
    cmu_counter_bits,
    sufficient_scouting_distance,
)


class TestConservativeDefaults:
    def test_conservative_tp_uses_theorem_k(self):
        from repro.core.two_phase import TwoPhaseProtocol
        from repro.experiments.figures import CONSERVATIVE_K

        proto = TwoPhaseProtocol(k_unsafe=CONSERVATIVE_K)
        assert proto.flow_control.k_unsafe == sufficient_scouting_distance()

    def test_theorem_k_fits_paper_counter(self):
        # The paper's 2-bit CMU counter holds exactly K = 3.
        assert cmu_counter_bits(sufficient_scouting_distance()) == 2

    def test_aggressive_tp_sends_no_acks(self):
        from repro.core.two_phase import TwoPhaseProtocol

        fc = TwoPhaseProtocol().flow_control
        assert fc.k_for(True) == 0
        assert fc.k_for(False) == 0

    def test_misroute_budget_fits_header_field(self):
        from repro.core.header import MAX_MISROUTES
        from repro.core.theorems import SUFFICIENT_MISROUTES
        from repro.core.two_phase import TwoPhaseProtocol

        assert TwoPhaseProtocol().misroute_limit == SUFFICIENT_MISROUTES
        assert SUFFICIENT_MISROUTES <= MAX_MISROUTES


class TestSpectrumInterpolation:
    """SR(K) spans WR..PCS monotonically — the configurability claim."""

    def test_latency_monotone_in_k(self):
        l, L = 6, 32
        latencies = [t_scouting(l, L, k) for k in range(0, l + 1)]
        assert latencies == sorted(latencies)
        assert latencies[0] == l + L            # WR end
        assert latencies[-1] == t_pcs(l, L)     # PCS end

    def test_gate_spectrum(self):
        # K=0: open immediately; K=INF: only the path event opens it.
        assert gate_open(0, 0, False)
        assert not gate_open(10**6, K_INFINITE, False)
        assert gate_open(0, K_INFINITE, True)

    def test_config_k_for_covers_all_kinds(self):
        assert FlowControlConfig.wormhole().k_for(True) == 0
        assert FlowControlConfig.pcs().k_for(False) == K_INFINITE
        sr = FlowControlConfig.scouting(k_safe=1, k_unsafe=3)
        assert (sr.k_for(False), sr.k_for(True)) == (1, 3)
        assert sr.kind is FlowControlKind.SCOUTING
