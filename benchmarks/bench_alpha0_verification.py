"""Section 6.3 — verification of the pipelined Alpha0.

The paper condenses the Alpha0 (4-bit datapath, ALU restricted to
and/or/cmpeq, a single observed register) and reports 23 minutes for the
unpipelined simulation and 43 minutes for the pipelined simulation on a
SPARCstation 10, with k = 5 and d = 1 and the simulation-information
file ``r 0 0 1 0 0``.

The benchmark runs the same condensed verification (register file and
data memory folded to four entries) through the campaign engine, and
additionally a memory-class pass (loads in the ordinary slots),
mirroring the per-instruction-class runs the paper's cofactoring
strategy implies.  The two passes use different slot plans, so they
pool to separate managers; within a campaign, manager reuse applies to
same-shape runs (see the bug-injection benchmark).
"""

from dataclasses import replace

import pytest

from repro.engine import alpha0_memory_scenario, alpha0_operate_scenario
from repro.strings import NORMAL, format_filter

from _bench_utils import (
    CONDENSED_ALPHA0_SPEC,
    SMOKE_ALPHA0_SPEC,
    campaign_runner,
    record_paper_comparison,
)


def test_alpha0_beta_relation_verification(benchmark):
    runner = campaign_runner()
    scenario = alpha0_operate_scenario(alpha0=CONDENSED_ALPHA0_SPEC)

    def run():
        runner.clear_memo()
        return runner.run_one(scenario)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.passed, outcome.mismatches
    structure = outcome.structure
    assert structure["specification_cycles"] == 26   # k^2 + r
    assert structure["implementation_cycles"] == 11  # 2k-1 + r + c*d
    spec_line = format_filter(structure["specification_filter"])
    impl_line = format_filter(structure["implementation_filter"])
    assert spec_line.endswith("1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1")
    assert impl_line.endswith("1 0 0 0 0 1 1 1 0 1 1")
    record_paper_comparison(
        benchmark,
        experiment="Section 6.3 (Alpha0 verification, operate class)",
        paper_unpipelined_seconds=23 * 60.0,
        paper_pipelined_seconds=43 * 60.0,
        paper_platform="Sun SPARCstation 10 (condensed to one observed register)",
        measured_unpipelined_seconds=round(outcome.timings["specification_seconds"], 3),
        measured_pipelined_seconds=round(outcome.timings["implementation_seconds"], 3),
        measured_bdd_nodes=outcome.bdd_nodes,
        verdict="PASSED",
    )


def test_alpha0_memory_class_verification(benchmark):
    """A second pass with the ordinary slots carrying loads (memory class)."""
    runner = campaign_runner()
    scenario = alpha0_memory_scenario(
        alpha0=replace(CONDENSED_ALPHA0_SPEC, normal_opcode=0x29)
    )

    def run():
        runner.clear_memo()
        return runner.run_one(scenario)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.passed, outcome.mismatches
    record_paper_comparison(
        benchmark,
        experiment="Section 6.3 (Alpha0 verification, memory class)",
        paper="memory read/write addresses observed",
        measured="ld-class slots verified, PASSED",
    )


def test_alpha0_scaling_shape_vs_vsm(benchmark):
    """Shape check: Alpha0 verification costs more than VSM verification.

    The paper's times (23/43 min vs 175/292 s) show the deeper, wider
    design dominating; the reproduction preserves that ordering.
    """
    from repro.engine import vsm_verification_scenario

    runner = campaign_runner()

    def run():
        runner.clear_memo()
        alpha0_outcome = runner.run_one(
            alpha0_operate_scenario(alpha0=CONDENSED_ALPHA0_SPEC)
        )
        vsm_outcome = runner.run_one(vsm_verification_scenario())
        return alpha0_outcome, vsm_outcome

    alpha0_outcome, vsm_outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert alpha0_outcome.passed and vsm_outcome.passed
    assert alpha0_outcome.seconds > vsm_outcome.seconds * 0.5
    record_paper_comparison(
        benchmark,
        experiment="Section 6.2 vs 6.3 (relative cost)",
        paper="Alpha0 roughly 8-9x more expensive than VSM",
        measured_ratio=round(alpha0_outcome.seconds / max(vsm_outcome.seconds, 1e-9), 2),
    )


@pytest.mark.bench_smoke
def test_smoke_alpha0_verification():
    """Fast tier: a two-slot condensed Alpha0 scenario must verify."""
    from repro.engine import Scenario

    outcome = campaign_runner().run_one(
        Scenario(
            name="smoke/alpha0",
            design="alpha0",
            slots=(NORMAL, NORMAL),
            alpha0=SMOKE_ALPHA0_SPEC,
        )
    )
    assert outcome.passed, outcome.mismatches


@pytest.mark.bench_smoke
def test_smoke_alpha0_operate_pass_cold():
    """Fast tier: the Section 6.3 condensed operate pass (``r 0 0 1 0 0``),
    extracted cold on a fresh runner — affordable for smoke only because
    the relation variables are declared selector-above-data."""
    outcome = campaign_runner().run_one(
        alpha0_operate_scenario(alpha0=CONDENSED_ALPHA0_SPEC)
    )
    assert outcome.passed, outcome.mismatches
    assert outcome.extraction_cache["spec"] == "miss"
    assert outcome.extraction_cache["impl"] == "miss"
    assert outcome.structure["specification_cycles"] == 26
    assert outcome.structure["implementation_cycles"] == 11
