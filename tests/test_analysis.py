"""Tests for the repro.analysis static analyzer.

Every rule gets a fires / must-not-fire fixture pair, written into a
``tmp_path`` tree (DET001 scoping keys off a ``src`` path component, so
fixtures that must be "sim-reachable" live under ``tmp/src/``).  The
final test runs the analyzer over the real tree — the burn-down
acceptance gate: zero findings, forever.
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import run_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.fault_table import (
    BEGIN_MARK,
    END_MARK,
    check_fault_table,
    render_fault_table,
    write_fault_table,
)
from repro.analysis.rules_registry import load_fault_registry
from repro.analysis.waivers import parse_waivers

REPO = Path(__file__).resolve().parents[1]
PLAN = REPO / "src" / "repro" / "faults" / "plan.py"

#: Marks a fixture module as event-scheduling for DET002/SIM001 scope.
SIM_IMPORT = "from repro.sim import Environment\n"


def analyze(tmp_path, source, filename="src/mod.py", sim=False):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    text = textwrap.dedent(source)
    if sim:
        text = SIM_IMPORT + text
    path.write_text(text)
    # Nonexistent design doc: fixture runs must not drift-check the real
    # DESIGN.md (that has its own test below).
    return run_paths(
        [tmp_path],
        design_doc=tmp_path / "NO_DESIGN.md",
        fault_registry=PLAN,
    )


def codes(result):
    return [f.code for f in result.findings]


# ------------------------------------------------------------------- DET001


def test_det001_fires_on_wall_clock_in_sim_scope(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert codes(result) == ["DET001"]
    assert "time.time" in result.findings[0].message


def test_det001_sees_through_import_aliases(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time as clk
        from random import randint

        def draw():
            return clk.monotonic() + randint(1, 6)
        """,
    )
    assert codes(result) == ["DET001", "DET001"]


def test_det001_ignores_seeded_substreams(tmp_path):
    result = analyze(
        tmp_path,
        """
        import random

        def draw(seed):
            return random.Random(seed).random()
        """,
    )
    assert result.ok


def test_det001_out_of_scope_outside_src(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
        filename="benchmarks/mod.py",
    )
    assert result.ok


# ------------------------------------------------------------------- DET002


def test_det002_fires_on_set_iteration_in_scheduling_module(tmp_path):
    result = analyze(
        tmp_path,
        """
        def drain(pending):
            ready = {1, 2, 3}
            for item in ready:
                pending.append(item)
        """,
        sim=True,
    )
    assert "DET002" in codes(result)


def test_det002_accepts_sorted_sets_and_nonscheduling_modules(tmp_path):
    sorted_ok = analyze(
        tmp_path,
        """
        def drain(pending):
            for item in sorted({1, 2, 3}):
                pending.append(item)
        """,
        sim=True,
    )
    assert sorted_ok.ok
    no_sim = analyze(
        tmp_path,
        """
        def drain(pending):
            for item in {1, 2, 3}:
                pending.append(item)
        """,
        filename="src/other.py",
    )
    assert no_sim.ok


def test_det002_tracks_set_typed_locals_through_unions(tmp_path):
    result = analyze(
        tmp_path,
        """
        def fanout(a, b):
            targets = set(a) | set(b)
            return [t for t in targets]
        """,
        sim=True,
    )
    assert "DET002" in codes(result)


# ------------------------------------------------------------------- SIM001


def test_sim001_fires_on_blocking_call_in_generator(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def worker(env):
            time.sleep(0.1)
            yield env.timeout(5)
        """,
        sim=True,
    )
    assert "SIM001" in codes(result)
    assert "worker" in next(f for f in result.findings if f.code == "SIM001").message


def test_sim001_ignores_plain_functions(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def host_side_tool():
            time.sleep(0.1)
        """,
        # Scheduling module, but not a generator: host tooling may block.
        filename="benchmarks/tool.py",
        sim=True,
    )
    assert result.ok


# ------------------------------------------------------------------- RES001


def test_res001_fires_without_release(tmp_path):
    result = analyze(
        tmp_path,
        """
        def mover(crediter):
            yield from crediter.acquire()
        """,
        filename="benchmarks/mover.py",
    )
    assert codes(result) == ["RES001"]
    assert "no release()" in result.findings[0].message


def test_res001_fires_when_release_not_exception_safe(tmp_path):
    result = analyze(
        tmp_path,
        """
        def mover(crediter, packet):
            yield from crediter.acquire()
            packet.send()
            crediter.release()
        """,
        filename="benchmarks/mover.py",
    )
    assert codes(result) == ["RES001"]
    assert "exception paths" in result.findings[0].message


def test_res001_accepts_try_finally_pairing(tmp_path):
    result = analyze(
        tmp_path,
        """
        def mover(crediter, packet):
            yield from crediter.acquire()
            try:
                packet.send()
            finally:
                crediter.release()
        """,
        filename="benchmarks/mover.py",
    )
    assert result.ok


def test_res001_ignores_non_credit_receivers(tmp_path):
    result = analyze(
        tmp_path,
        """
        def host_tool(lock):
            lock.acquire()
        """,
        filename="benchmarks/tool.py",
    )
    assert result.ok


# ------------------------------------------------------------------- FLT001


def test_flt001_fires_on_unknown_sites_with_suggestion(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.faults import FaultPlan, FaultRule

        def build(injector):
            injector.fires("net.dorp")
            FaultRule(site="gpu.meltdown")
            return FaultPlan.build(seed=1, net_dropp=0.5)
        """,
        filename="benchmarks/chaos.py",
    )
    assert codes(result) == ["FLT001", "FLT001", "FLT001"]
    assert "did you mean 'net.drop'" in result.findings[0].message


def test_flt001_accepts_registered_sites(tmp_path):
    result = analyze(
        tmp_path,
        """
        from repro.faults import FaultPlan, FaultRule

        def build(injector):
            injector.fires("net.drop")
            FaultRule(site="icap.crc")
            return FaultPlan.build(seed=1, net_drop=0.5, hbm_ecc_single=0.1)
        """,
        filename="benchmarks/chaos.py",
    )
    assert result.ok


def test_registry_loads_all_sites_from_plan():
    from repro.faults import FAULT_SITES

    docs = load_fault_registry(PLAN)
    assert set(docs) == set(FAULT_SITES)
    # The AST extraction carries the doc tuple, not just the key.
    assert docs["net.drop"][0] == "net.switch.Switch"


# ------------------------------------------------------------------- TEL001


def test_tel001_fires_on_flat_metric_names(tmp_path):
    result = analyze(
        tmp_path,
        """
        def record(registry):
            registry.counter("replays").inc()
            registry.gauge("pcie.in_flight").set(3)
        """,
        filename="benchmarks/metrics.py",
    )
    assert codes(result) == ["TEL001"]
    assert "'replays'" in result.findings[0].message


# ------------------------------------------------------------------- waivers


def test_waiver_on_same_line_suppresses(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[DET001] fixture says so
        """,
    )
    assert result.ok
    assert result.waivers_honoured == 1


def test_waiver_on_line_above_suppresses(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            # repro: allow[DET001] fixture says so
            return time.time()
        """,
    )
    assert result.ok


def test_file_scope_waiver_covers_every_line(tmp_path):
    result = analyze(
        tmp_path,
        """
        # repro: allow-file[DET001] this whole fixture is wall-clock tooling
        import time

        def stamp():
            return time.time() + time.monotonic()
        """,
    )
    assert result.ok
    assert result.waivers_honoured == 2


def test_waiver_without_justification_is_wai001(tmp_path):
    result = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[DET001]
        """,
    )
    assert codes(result) == ["WAI001"]


def test_unused_waiver_is_wai002(tmp_path):
    result = analyze(
        tmp_path,
        """
        def stamp():
            return 42  # repro: allow[DET001] nothing to suppress here
        """,
    )
    assert codes(result) == ["WAI002"]


def test_waiver_examples_in_docstrings_are_not_waivers():
    source = [
        '"""Docs showing the syntax: # repro: allow[DET001] like this."""',
        "x = 1",
    ]
    assert parse_waivers("doc.py", source) == []


def test_waiver_with_unknown_rule_is_flagged(tmp_path):
    result = analyze(
        tmp_path,
        """
        def stamp():
            return 42  # repro: allow[ZZZ999] no such rule
        """,
    )
    assert codes(result) == ["WAI002"]
    assert "unknown rule" in result.findings[0].message


# ----------------------------------------------------------------- CLI / doc


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n")
    assert analysis_main([str(clean)]) == 0

    dirty = tmp_path / "src"
    dirty.mkdir()
    (dirty / "bad.py").write_text("import time\nt = time.time()\n")
    assert analysis_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "fix:" in out


def test_cli_explain(capsys):
    assert analysis_main(["--explain", "RES001"]) == 0
    out = capsys.readouterr().out
    assert "RES001" in out and "waive" in out
    assert analysis_main(["--explain", "NOPE99"]) == 1


def test_fault_table_roundtrip_and_drift(tmp_path):
    docs = load_fault_registry(PLAN)
    doc = tmp_path / "DESIGN.md"
    doc.write_text(f"# doc\n\n{BEGIN_MARK}\n{END_MARK}\n")
    assert write_fault_table(doc, docs)
    assert check_fault_table(doc, docs) == []
    assert render_fault_table(docs) in doc.read_text()

    # Tamper -> DOC001; missing markers -> DOC001.
    doc.write_text(doc.read_text().replace("net.drop", "net.dorp"))
    drifted = check_fault_table(doc, docs)
    assert [f.code for f in drifted] == ["DOC001"]
    doc.write_text("# no markers\n")
    assert [f.code for f in check_fault_table(doc, docs)] == ["DOC001"]


def test_unparsable_file_is_an_error_not_a_crash(tmp_path):
    (tmp_path / "broken.py").write_text("def nope(:\n")
    result = run_paths([tmp_path], design_doc=tmp_path / "NO_DESIGN.md")
    assert not result.ok
    assert result.errors and "broken.py" in result.errors[0]


# --------------------------------------------------------------- acceptance


@pytest.fixture(scope="module")
def whole_tree():
    """One analysis of the repo's own sources, and how long it took."""
    start = time.perf_counter()
    result = run_paths(
        [REPO / "src", REPO / "tests", REPO / "benchmarks"],
        design_doc=REPO / "DESIGN.md",
        fault_registry=PLAN,
    )
    return result, time.perf_counter() - start


def test_real_tree_is_clean(whole_tree):
    """The burn-down gate: the repo's own sources carry zero findings."""
    result, _ = whole_tree
    assert result.ok, result.render()


def test_analyzer_runtime_budget(whole_tree):
    """The whole-repo run — per-module rules plus the interprocedural
    index — must stay fast enough to sit in every pre-commit loop.  The
    bound is ~10x the wall clock measured at introduction (about 5s for
    190 files), so it only trips on an accidental complexity blow-up
    (e.g. the DLK001 cycle search going super-linear), not on CI noise.
    """
    result, elapsed = whole_tree
    assert result.files_checked > 100  # the budget covers the real tree
    assert elapsed < 60.0, f"analyzer took {elapsed:.1f}s on {result.files_checked} files"
