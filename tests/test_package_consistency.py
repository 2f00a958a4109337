"""Package/documentation consistency checks.

Keeps the deliverables honest: every module DESIGN.md promises exists,
every public symbol re-exported from ``repro`` is importable, every
benchmark has a figure driver, and the paper's headline constants stay
pinned where the docs say they are.
"""

import importlib
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent

DESIGN_MODULES = [
    "repro.network.topology",
    "repro.network.channel",
    "repro.network.link",
    "repro.faults.model",
    "repro.faults.injection",
    "repro.core.flow_control",
    "repro.core.two_phase",
    "repro.core.detour",
    "repro.core.header",
    "repro.core.latency_model",
    "repro.core.theorems",
    "repro.routing.base",
    "repro.routing.dimension_order",
    "repro.routing.duato",
    "repro.routing.mb",
    "repro.routing.oblivious",
    "repro.routing.selection",
    "repro.router.model",
    "repro.router.rcu",
    "repro.router.cmu",
    "repro.router.lcu",
    "repro.router.buffers",
    "repro.router.crossbar",
    "repro.sim.engine",
    "repro.sim.simulator",
    "repro.sim.message",
    "repro.sim.traffic",
    "repro.sim.stats",
    "repro.sim.config",
    "repro.sim.trace",
    "repro.sim.validation",
    "repro.experiments.common",
    "repro.experiments.report",
    "repro.experiments.io",
    "repro.experiments.fig12_fault_free",
    "repro.experiments.fig13_static_faults",
    "repro.experiments.fig14_fault_sweep",
    "repro.experiments.fig15_aggressive_vs_conservative",
    "repro.experiments.fig17_dynamic_faults",
    "repro.experiments.formula_table",
    "repro.experiments.theorem_table",
    "repro.experiments.ablation_k",
    "repro.experiments.ablation_hw_acks",
    "repro.experiments.message_length_sweep",
    "repro.cli",
]


@pytest.mark.parametrize("module", DESIGN_MODULES)
def test_design_module_importable(module):
    importlib.import_module(module)


def test_every_module_has_docstring():
    import repro

    src = pathlib.Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        rel = path.relative_to(src.parent)
        mod = str(rel.with_suffix("")).replace("/", ".")
        if mod.endswith(".__init__"):
            mod = mod[: -len(".__init__")]
        loaded = importlib.import_module(mod)
        assert loaded.__doc__, f"{mod} lacks a module docstring"


def test_public_api_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_import_stays_light():
    """Every ``run_configs`` worker and CLI start pays for ``import
    repro``; the array library the removed SoA kernel pulled in cost
    ~130 ms and ~10 MiB there."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmarks_cover_every_figure():
    bench = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    expected = {
        "test_bench_latency_formulas.py",
        "test_bench_theorems.py",
        "test_bench_fig12.py",
        "test_bench_fig13.py",
        "test_bench_fig14.py",
        "test_bench_fig15.py",
        "test_bench_fig17.py",
        "test_bench_ablation.py",
        "test_bench_extensions.py",
    }
    assert expected <= bench


def test_docs_exist_and_mention_the_paper():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (ROOT / name).read_text()
        assert "Fault-Tolerant" in text, name
    assert "ISCA" in (ROOT / "README.md").read_text()


def test_paper_constants_pinned():
    """The documented hardware constants of Section 5.0."""
    from repro.core.header import MISROUTE_FIELD_BITS, header_bits
    from repro.core.theorems import (
        SUFFICIENT_MISROUTES,
        cmu_counter_bits,
        fault_budget,
    )

    assert MISROUTE_FIELD_BITS == 3
    assert SUFFICIENT_MISROUTES == 6
    assert fault_budget(2) == 3
    assert cmu_counter_bits(3) == 2
    assert header_bits(16, 2) == 17


def test_version_declared():
    import repro

    assert repro.__version__ == "1.0.0"
