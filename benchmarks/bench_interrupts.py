"""Section 5.5 — interrupts and exceptions via the dynamic beta-relation.

An external event forces a trap into the pipeline; the output filtering
function is edited on the fly so the squashed slot is irrelevant, and
the sampled observations must still match the specification (which takes
the trap atomically).  The sweep runs as an engine campaign of EVENTS
scenarios.
"""

import pytest

from repro.engine import Scenario, event_scenarios, vsm_verification_scenario
from repro.strings import NORMAL

from _bench_utils import campaign_runner, record_paper_comparison


def _event_scenario(slot, slots=(NORMAL,) * 4, broken=False, name=None):
    return Scenario(
        name=name or f"event/slot{slot}" + ("/broken" if broken else ""),
        kind="events",
        slots=slots,
        event_slots=(slot,),
        break_event_link=broken,
    )


@pytest.mark.parametrize("slot", [0, 1, 3])
def test_event_at_each_instruction_slot(benchmark, slot):
    runner = campaign_runner()
    scenario = _event_scenario(slot)

    def run():
        runner.clear_memo()
        return runner.run_one(scenario)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.passed, outcome.mismatches
    assert outcome.structure["extra"] == {"event_slots": [slot]}
    record_paper_comparison(
        benchmark,
        experiment=f"Section 5.5 (event during instruction {slot + 1})",
        paper="the event is simulated in each of the k instruction sequences",
        measured="dynamic beta-relation holds; squashed slot filtered out",
    )


def test_event_combined_with_branch_slot(benchmark):
    runner = campaign_runner()
    scenario = _event_scenario(
        1, slots=vsm_verification_scenario().slots, name="event/with-branch"
    )

    def run():
        runner.clear_memo()
        return runner.run_one(scenario)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.passed
    record_paper_comparison(
        benchmark,
        experiment="Section 5.5 (event plus control transfer in one window)",
        paper="events coexist with branch delay-slot annulment",
        measured="PASSED",
    )


def test_broken_interrupt_link_detected(benchmark):
    runner = campaign_runner()
    scenario = _event_scenario(2, broken=True)

    def run():
        runner.clear_memo()
        return runner.run_one(scenario)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not outcome.passed
    record_paper_comparison(
        benchmark,
        experiment="Section 5.5 (interrupt handling bug)",
        paper="incorrect pipeline-state saving is detected",
        measured="failure to save the interrupted PC reported as a mismatch",
    )


@pytest.mark.bench_smoke
def test_smoke_interrupts():
    """Fast tier: a two-slot event scenario passes; the broken link fails.

    The event hits slot 1 (not 0): the interrupted PC must be non-zero
    for the forgotten link write to be observable.
    """
    runner = campaign_runner()
    report = runner.run(
        [
            _event_scenario(1, slots=(NORMAL, NORMAL), name="smoke/event"),
            _event_scenario(
                1, slots=(NORMAL, NORMAL), broken=True, name="smoke/event-broken"
            ),
        ]
    )
    good, bad = report.outcomes
    assert good.passed and not bad.passed
    assert bad.mismatches


@pytest.mark.bench_smoke
def test_smoke_paper_event_sweep():
    """Fast tier: the paper's full four-slot event sweep, each slot with and
    without the link bug (about a second under the selector-above-data
    stimulus order).

    Every verdict is asserted.  A broken link is invisible at slot 0,
    where the interrupted PC is 0 and so is the unwritten link register;
    it is caught at every later slot.
    """
    runner = campaign_runner()
    report = runner.run(
        event_scenarios(num_slots=4) + event_scenarios(num_slots=4, broken=True)
    )
    verdicts = {outcome.scenario: outcome.passed for outcome in report.outcomes}
    assert all(outcome.error is None for outcome in report.outcomes)
    assert verdicts == {
        **{f"vsm/event/slot{slot}": True for slot in range(4)},
        "vsm/event/slot0/broken-link": True,
        **{f"vsm/event/slot{slot}/broken-link": False for slot in (1, 2, 3)},
    }
