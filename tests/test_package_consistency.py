"""Package/documentation consistency checks.

Keeps the deliverables honest: every module DESIGN.md promises exists,
every public symbol re-exported from ``repro`` is importable, every
figure has claims in the figure bench, and the paper's headline
constants stay pinned where the docs say they are.
"""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _design_modules():
    """Modules named in DESIGN.md's §2 inventory and §4 experiment index.

    Names are taken from the tables' module columns, with or without the
    ``repro.`` prefix; a ``.*`` entry names the package itself.
    """
    text = (ROOT / "DESIGN.md").read_text()
    names = set()
    for section, column in (("## 2.", "Package / module"), ("## 4.", "Modules")):
        body = text.split(section, 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in body.splitlines()
                if line.startswith("|")]
        col = [cell.strip() for cell in rows[0]].index(column)
        for row in rows[2:]:
            for name in re.findall(r"`([a-z_]+(?:\.(?:[a-z_0-9]+|\*))+)`",
                                   row[col]):
                name = name.removesuffix(".*").removeprefix("repro.")
                names.add(f"repro.{name}")
    return sorted(names)


@pytest.mark.parametrize("module", _design_modules())
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
    """The figure bench states at least one claim for every figure, and
    the E1 / E2 tables have their own benches."""
    from benchmarks.test_bench_figures import CLAIMS
    from repro.experiments.figures import FIGURES

    assert CLAIMS.keys() == FIGURES.keys()
    assert [name for name, claims in CLAIMS.items() if not claims] == []
    for table in ("latency_formulas", "theorems"):
        assert (ROOT / "benchmarks" / f"test_bench_{table}.py").exists()


def test_every_claim_names_an_experiment():
    """Each figure claim opens with the EXPERIMENTS.md section it backs."""
    from benchmarks.test_bench_figures import CLAIMS

    text = (ROOT / "EXPERIMENTS.md").read_text()
    headings = set(re.findall(r"^## (E\d+) ", text, re.M))
    named = [re.match(r"(E\d+): ", claim) for claims in CLAIMS.values()
             for claim, _ in claims]
    assert None not in named
    assert {m.group(1) for m in named} <= headings


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


# ---------------------------------------------------------------------------
# Documentation that must not rot: commands, section references, paths
# ---------------------------------------------------------------------------
def _documented_commands():
    """Every ``repro-sim …`` command line in README's code blocks and in
    ``repro.cli``'s docstring, continuations joined, leading environment
    assignments and trailing comments dropped."""
    import shlex

    import repro.cli

    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
    texts = blocks + [repro.cli.__doc__]
    commands = []
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            if not re.match(r"\s*([A-Z_]+=\S*\s+)*repro-sim\b", line):
                continue
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                words.pop(0)
            if words and words[0] == "repro-sim":
                commands.append(words[1:])
    return commands


def test_documented_commands_parse():
    from repro.cli import build_parser

    commands = _documented_commands()
    assert len(commands) >= 20
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse: {argv}")


def _design_headings():
    text = (ROOT / "DESIGN.md").read_text()
    return {int(n) for n in re.findall(r"^## (\d+)\.", text, re.M)}


def test_design_section_references_name_a_heading():
    """Each ``DESIGN.md §N`` in the code, the tests, README and the
    examples names a numbered DESIGN.md section."""
    files = [ROOT / "README.md"]
    for folder in ("src", "tests", "examples"):
        files += sorted((ROOT / folder).rglob("*.py"))
    headings = _design_headings()
    refs = []
    for path in files:
        text = path.read_text()
        for group in re.findall(r"DESIGN\.md[\s#*]*((?:§\d+(?:/|,\s*)?)+)",
                                text):
            refs += [(path.name, int(n)) for n in re.findall(r"§(\d+)", group)]
    assert len(refs) >= 20
    assert [r for r in refs if r[1] not in headings] == []


def _design_section(number):
    text = (ROOT / "DESIGN.md").read_text()
    return text.split(f"\n## {number}.", 1)[1].split("\n## ", 1)[0]


def test_design_layout_paths_exist():
    paths = re.findall(r"`([\w./-]*/[\w./-]*)`", _design_section(5))
    assert len(paths) >= 10
    assert [p for p in paths if not (ROOT / p).exists()] == []


def test_design_names_existing_tests():
    """Every invariant in DESIGN.md names the test that pins it; each
    named test file, class and function exists."""
    text = (ROOT / "DESIGN.md").read_text()
    defined = {
        path.relative_to(ROOT).as_posix(): set(re.findall(
            r"^\s*(?:def|class) (\w+)", path.read_text(), re.M))
        for path in (ROOT / "tests").rglob("*.py")
    }
    anywhere = set().union(*defined.values())
    missing = []
    for ref in re.findall(r"`((?:tests/[\w/]+\.py|test_\w+|Test\w+)"
                          r"(?:::\w+)*)`", text):
        path, *names = ref.split("::")
        if not path.endswith(".py"):
            path, names = None, [path, *names]
        names_here = anywhere if path is None else defined.get(path)
        if names_here is None or not set(names) <= names_here:
            missing.append(ref)
    assert missing == []
