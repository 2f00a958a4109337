"""E3–E7, E9–E11: every figure of the evaluation, run and checked.

One benchmark per :data:`repro.experiments.figures.FIGURES` entry
(``-k <name>`` picks one): it runs the figure at the
``experiment_scale()``, writes its report under
``benchmarks/results/<scale>/`` and checks the figure's
:data:`CLAIMS` — the paper's expected shape (who wins, by roughly what
relation), each claim named by the EXPERIMENTS.md section it backs.
"""

import pytest

from repro.experiments.figures import FIGURES

from .conftest import run_and_report


def _pts(exp, label):
    return exp.series_by_label(label).points


def _lat0(exp, label):
    """Latency at a curve's first point (lowest load or fault count)."""
    return _pts(exp, label)[0].latency


def _sat(exp, label):
    return exp.series_by_label(label).saturation_throughput()


def _lat_by_k(exp):
    return {int(p.extra["K"]): p.latency for p in _pts(exp, "K sweep")}


def _length_ratios(exp):
    """MB-m/TP latency ratio at each message length."""
    return [m.latency / t.latency
            for t, m in zip(_pts(exp, "TP"), _pts(exp, "MB-m"))]


#: Each figure's claims: ``(text, check)``, where ``check(exp)`` is
#: true when the claim holds on the measured ``Experiment``.
CLAIMS = {
    "12": [
        ("E3: TP's zero-load latency matches DP's",
         lambda e: _lat0(e, "TP") <= _lat0(e, "DP") * 1.05),
        ("E3: MB-m pays a visible path-setup penalty",
         lambda e: _lat0(e, "MB-m") > _lat0(e, "DP") * 1.1),
        ("E3: MB-m saturates no later than TP",
         lambda e: _sat(e, "MB-m") <= _sat(e, "TP") * 1.05),
    ],
    "13": [
        ("E4: TP beats MB-m at low load with 1, 10 and 20 faults",
         lambda e: all(_lat0(e, f"TP ({c}F)") < _lat0(e, f"MB-m ({c}F)")
                       for c in (1, 10, 20))),
        ("E4: TP's latency at the lowest load grows from 1 to 20 faults",
         lambda e: _lat0(e, "TP (20F)") > _lat0(e, "TP (1F)")),
    ],
    "14": [
        ("E5: MB-m's latency at load (1) is roughly flat across faults",
         lambda e: max(p.latency for p in _pts(e, "MB-m (1)"))
         < min(p.latency for p in _pts(e, "MB-m (1)")) * 1.6),
        ("E5: TP beats MB-m at load (10) with the fewest faults",
         lambda e: _lat0(e, "TP (10)") < _lat0(e, "MB-m (10)")),
        ("E5: at load (50) TP's throughput drops as faults grow",
         lambda e: _pts(e, "TP (50)")[-1].throughput
         < _pts(e, "TP (50)")[0].throughput),
    ],
    "15": [
        ("E6: with one fault at low load the variants coincide",
         lambda e: abs(_lat0(e, "Aggressive (1F)")
                       - _lat0(e, "Conservative (1F)"))
         < 0.1 * _lat0(e, "Conservative (1F)")),
        ("E6: with 20 faults the aggressive variant is at least as good",
         lambda e: _sat(e, "Aggressive (20F)")
         >= _sat(e, "Conservative (20F)") * 0.95),
    ],
    "17": [
        ("E7: low-load latencies are close (recovery is near-free)",
         lambda e: abs(_lat0(e, "w/o TAck (1F)") - _lat0(e, "with TAck (1F)"))
         < 0.15 * _lat0(e, "w/o TAck (1F)")),
        ("E7: reliable delivery saturates no later than recovery-only",
         lambda e: _sat(e, "with TAck (20F)")
         <= _sat(e, "w/o TAck (20F)") * 1.05),
        ("E7: reliable mode loses nothing",
         lambda e: all(p.killed == 0 for p in _pts(e, "with TAck (20F)"))),
    ],
    "ablation": [
        ("E9: every K still delivers traffic",
         lambda e: all(p.delivered > 0 for p in _pts(e, "K sweep"))),
        ("E9: every m still delivers traffic",
         lambda e: all(p.delivered > 0 for p in _pts(e, "m sweep"))),
        ("E9: K=0 is no slower than K=5 under load near faults",
         lambda e: _lat_by_k(e)[0] <= _lat_by_k(e)[5] * 1.1),
    ],
    "hw-acks": [
        ("E10: low-load behaviour is identical",
         lambda e: abs(_lat0(e, "Flit acks") - _lat0(e, "HW acks"))
         < 0.08 * _lat0(e, "Flit acks")),
        ("E10: dedicated wires never reduce saturation throughput",
         lambda e: _sat(e, "HW acks") >= _sat(e, "Flit acks") * 0.97),
    ],
    "length": [
        ("E11: the PCS penalty is relatively largest for the shortest "
         "messages",
         lambda e: _length_ratios(e)[0] > _length_ratios(e)[-1]),
        ("E11: MB-m is over 1.2x TP's latency at the shortest length",
         lambda e: _length_ratios(e)[0] > 1.2),
    ],
}


@pytest.mark.parametrize("name", FIGURES)
def test_bench_figure(benchmark, name):
    figure = FIGURES[name]
    # Reports: fig12 … fig17, ablation, hw-acks, length.
    exp = run_and_report(benchmark, figure.run, figure.render,
                         name=f"fig{name}" if name.isdigit() else name)
    assert [text for text, check in CLAIMS[name] if not check(exp)] == []
