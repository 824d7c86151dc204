"""The benchmark's four campaign workloads.

Each workload builds its scenario list from ``--seed`` (the program
only ever sees the generated scenarios), says how the campaign runs,
and checks every verdict plus the properties that keep the workload
what it claims to be (its *shape*).  ``repro`` is imported lazily: the
fresh-process guard in ``child.py`` must run before any program import.

Why the sizes: a run lasts 30 s and each workload is run many times in
a fixed time budget on a 2-CPU box, so each campaign is scaled to a few
seconds, enough repetitions for a median, while keeping the layer that
dominates it.  See ``baseline.json`` for the composition and the
measured shares.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("alpha0-cold", "alpha0-rehydrate", "vsm-paper", "fuzz-parallel")
#: Workloads that run in parallel, on the runner's affinity scheduler.
PARALLEL = {"fuzz-parallel": 2}
#: Workloads whose verdicts are fixed: the seed does not change them.
FIXED = ("alpha0-cold", "vsm-paper")

#: Fuzz generator classes left out: ``alpha0_case`` is a 16 s straggler
#: that would set the slowest-worker time on its own.
FUZZ_EXCLUDED = ("alpha0_case",)
#: Scenarios kept per fuzz class, and how far into the seed's stream the
#: draw may look for them.
FUZZ_PER_CLASS = 30
FUZZ_STREAM = 1200


def _alpha0_spec():
    from repro.engine import Alpha0Spec

    # Scaled down from the mid-size Alpha0Spec(4, 4, 2), ~40 s cold and
    # ~7 s even at (4, 2, 2): relation extraction still dominates, and a
    # cold campaign takes 2-3.5 s, so a 30 s run makes about eight
    # repetitions on a box whose speed drifts by +-10% within seconds.
    return Alpha0Spec(data_width=3, num_registers=2, memory_words=2)


def alpha0_golden():
    """The golden operate and memory passes.

    They open ``alpha0-cold``, and their relation snapshots seed the
    ``alpha0-rehydrate`` store.
    """
    from dataclasses import replace

    from repro.engine import alpha0_memory_scenario, alpha0_operate_scenario

    spec = _alpha0_spec()
    return [
        alpha0_operate_scenario(alpha0=spec),
        alpha0_memory_scenario(alpha0=replace(spec, normal_opcode=0x29)),
    ]


def alpha0_cold(seed: int):
    """Section 6.3 operate and memory passes plus three bug scenarios."""
    from repro.engine import alpha0_bug_scenarios

    bugs = [
        scenario
        for scenario in alpha0_bug_scenarios(alpha0=_alpha0_spec())
        # store_wrong_word alone is 45 s and 4.8 GB at mid-size.
        if scenario.bug != "store_wrong_word"
    ]
    return alpha0_golden() + bugs


def alpha0_rehydrate(seed: int):
    """New instruction windows on the two golden Alpha0 architectures.

    Operate windows have length 4 with a control transfer at each slot
    (and, drawn from the seed, extra ones elsewhere); memory windows are
    all-ordinary, of lengths other than the seeded pass's 5.  Every slot
    string is distinct, so each window gets its own pooled manager and
    rehydrates both relations from the store.
    """
    from dataclasses import replace

    from repro.strings import CONTROL, NORMAL

    rng = random.Random(f"alpha0-rehydrate:{seed}")
    operate, memory = alpha0_golden()
    scenarios = []
    seen = set()
    for position in range(4):
        while True:
            slots = tuple(
                CONTROL if index == position or rng.random() < 0.25 else NORMAL
                for index in range(4)
            )
            if slots not in seen:
                break
        seen.add(slots)
        scenarios.append(
            replace(
                operate,
                name=f"rehydrate/operate/{''.join(s[0] for s in slots)}",
                slots=slots,
                reset_cycles=rng.choice((1, 2)),
            )
        )
    for length in (3, 4, 6):
        scenarios.append(
            replace(
                memory,
                name=f"rehydrate/memory/len{length}",
                slots=(NORMAL,) * length,
                reset_cycles=rng.choice((1, 2)),
            )
        )
    return scenarios


def vsm_paper(seed: int):
    """Section 6.2: default, bug sweep, variable-k, event and broken-link sweeps.

    The event sweeps keep the paper's four-slot window at slots 0 and 1
    (slots 2 and 3 add ~18 s and ~1 GB), and variable-k runs at k=3.
    """
    from repro.engine import (
        event_scenarios,
        variable_k_scenarios,
        vsm_bug_scenarios,
        vsm_verification_scenario,
    )

    events = event_scenarios(num_slots=4)
    broken = event_scenarios(num_slots=4, broken=True)
    return (
        [vsm_verification_scenario()]
        + vsm_bug_scenarios()
        + variable_k_scenarios(k=3)
        + events[:2]
        + broken[:2]
    )


def _short(scenario) -> bool:
    """Whether a generated scenario has a short window.

    Beta windows of three or more slots and event windows of four or
    more cost 2-30 s each, so a handful of them would decide the
    campaign time alone and make it swing with the seed.
    """
    from repro.engine import BETA, EVENTS

    if scenario.kind == EVENTS:
        return len(scenario.slots) <= 3
    if scenario.kind == BETA:
        return len(scenario.slots) <= 2
    return True


def fuzz_parallel(seed: int):
    """Seeded fuzz campaign, every class but ``alpha0_case``, short windows."""
    from repro import campaigns

    classes = [name for name in campaigns.CLASS_NAMES if name not in FUZZ_EXCLUDED]
    taken: Dict[str, int] = {}
    scenarios = []
    for scenario in campaigns.generate_scenarios(seed, FUZZ_STREAM, classes=classes):
        name = campaigns.planted_class(scenario)
        if _short(scenario) and taken.get(name, 0) < FUZZ_PER_CLASS:
            taken[name] = taken.get(name, 0) + 1
            scenarios.append(scenario)
    return scenarios


BUILDERS = {
    "alpha0-cold": alpha0_cold,
    "alpha0-rehydrate": alpha0_rehydrate,
    "vsm-paper": vsm_paper,
    "fuzz-parallel": fuzz_parallel,
}


def verdict_digest(outcome) -> str:
    blob = json.dumps(outcome.verdict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def wrong_verdicts(workload: str, scenarios, report) -> List[str]:
    """Scenarios that errored or whose verdict is wrong, with the reason."""
    wrong = []
    if workload in FIXED:
        reference = json.loads(REFERENCE.read_text())[workload]
    for scenario, outcome in zip(scenarios, report.outcomes):
        if outcome.error is not None:
            wrong.append(f"{scenario.name}: error {outcome.error}")
        elif workload in FIXED:
            if verdict_digest(outcome) != reference.get(scenario.name):
                wrong.append(f"{scenario.name}: verdict differs from reference.json")
        elif workload == "alpha0-rehydrate":
            if not outcome.passed:
                wrong.append(f"{scenario.name}: golden design refuted")
        else:
            from repro.campaigns import expected_to_fail

            if outcome.passed == expected_to_fail(scenario):
                wrong.append(f"{scenario.name}: verdict contradicts planted expectation")
    if len(report.outcomes) != len(scenarios):
        wrong.append(f"{len(report.outcomes)} outcomes for {len(scenarios)} scenarios")
    return wrong


def shape_errors(workload: str, report) -> List[str]:
    """Violations of the workload's shape (each fails the run)."""
    errors = []
    if workload == "alpha0-rehydrate":
        for outcome in report.outcomes:
            if outcome.store.get("status") != "miss":
                errors.append(f"{outcome.scenario}: verdict record did not miss")
            for role in ("spec", "impl"):
                status = outcome.snapshot.get(role, {}).get("status")
                if status != "restored":
                    errors.append(f"{outcome.scenario}: {role} relation {status}, not restored")
    if workload in FIXED:
        if report.memo_hits:
            errors.append(f"{report.memo_hits} memo hits in a fresh process")
        # Snapshot hits are fine: a bug scenario on its own manager reads
        # the golden relation that an earlier scenario of the campaign
        # wrote.  A verdict hit means the store was not empty.
        if report.store.get("results", {}).get("hits"):
            errors.append("verdict records served from the store")
    return errors
