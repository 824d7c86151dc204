"""The beta-relation verification entry point (paper Figure 8 and Section 5.3).

The engine verifies a pipelined implementation against its unpipelined
specification in four phases:

1. **Stimulus construction.**  For every instruction slot of the
   simulation-information file a fresh vector of symbolic instruction
   variables is created, with the bits fixed by the slot's instruction
   class held constant (the paper's "cofactor the transition relation
   with respect to the inputs" step).  Both machines receive the *same*
   variables for the same slot, and the shared symbolic initial
   architectural state seeds both register files.

2. **Specification simulation.**  The unpipelined machine executes the
   slots one after another, ``k`` cycles per instruction
   (``k**2 + r`` cycles for ``k`` slots); its observables are sampled
   after each instruction per the SH1 filtering function.

3. **Implementation simulation.**  The pipelined machine receives one
   instruction per cycle, with ``d`` fully symbolic (smoothed) delay-slot
   instructions after every control-transfer slot — the machine must
   annul these by itself — and is drained until the last slot retires
   (the report counts the ``2k - 1 + r + c*d`` cycles of SH2).  Its
   observables are sampled where the feed schedule says a slot retires,
   which is the SH2 filtering function: it skips the delay-slot cycles.
   An event plan (Section 5.5) feeds the fetches each trap squashes
   instead, and its filter follows from that schedule the same way.

4. **Comparison.**  The sampled observable formulae are compared
   pairwise as canonical ROBDDs.  Any difference yields a mismatch
   record with a concrete counterexample: the minimal assignment of the
   instruction variables and the initial state in the canonical
   declaration order (:func:`witness_order`), decoded back into
   assembly for the report.

This module keeps the public stimulus API (:class:`StimulusPlan`,
:func:`build_stimulus`, :func:`witness_order`); the simulation
orchestration itself lives in :mod:`repro.engine.executor`, and
:func:`verify_beta_relation` is a thin adapter over that single engine
code path — the same one that campaigns
(:class:`repro.engine.CampaignRunner`) execute and measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import BDDManager
from ..logic import BitVec
from ..strings import CONTROL
from .architectures import Architecture
from .observation import ObservationSpec
from .report import VerificationReport
from .siminfo import SimulationInfo


#: Fetches an event slot's trap squashes: the event is taken when the
#: affected instruction reaches the execute stage, two fetches after it.
EVENT_SQUASHED_WORDS = 2


@dataclass
class StimulusPlan:
    """The symbolic instructions fed to both machines.

    ``delay_instructions[i]`` are the fully symbolic words fed behind
    slot ``i``, named ``behind_labels[i]`` (see :func:`words_behind`).
    ``event_slots`` is ``None`` for a static plan.
    """

    slot_instructions: List[BitVec] = field(default_factory=list)
    delay_instructions: Dict[int, List[BitVec]] = field(default_factory=dict)
    free_variable_count: int = 0
    event_slots: Optional[Tuple[int, ...]] = None
    behind_labels: Dict[int, List[str]] = field(default_factory=dict)

    def labelled_vectors(self) -> List[Tuple[str, BitVec]]:
        """Every stimulus word with its label: slots, then the words behind them."""
        labelled = [
            (f"instr{index}", vector) for index, vector in enumerate(self.slot_instructions)
        ]
        for index, vectors in sorted(self.delay_instructions.items()):
            labelled.extend(zip(self.behind_labels[index], vectors))
        return labelled


def words_behind(
    architecture: Architecture,
    siminfo: SimulationInfo,
    event_slots: Optional[Sequence[int]] = None,
) -> Dict[int, List[str]]:
    """Labels of the fully symbolic words fed behind each slot.

    A static plan (``event_slots is None``) feeds a control slot's ``d``
    delay-slot words ``delay{i}.{j}``, which the pipeline must annul by
    itself.  An event plan feeds the fetches the slot squashes,
    ``squashed{i}.{j}``: the delay slot behind a control slot, and
    :data:`EVENT_SQUASHED_WORDS` behind an event slot.
    """
    prefix = "delay" if event_slots is None else "squashed"
    events = set(event_slots or ())
    labels: Dict[int, List[str]] = {}
    for index, kind in enumerate(siminfo.slots):
        if index in events:
            count = EVENT_SQUASHED_WORDS
        else:
            count = architecture.delay_slots if kind == CONTROL else 0
        if count:
            labels[index] = [f"{prefix}{index}.{j}" for j in range(count)]
    return labels


def build_stimulus(
    manager: BDDManager,
    architecture: Architecture,
    siminfo: SimulationInfo,
    event_slots: Optional[Sequence[int]] = None,
) -> StimulusPlan:
    """Create the per-slot symbolic instruction vectors.

    Slot ``i`` gets variables ``instr{i}[bit]`` for the unconstrained
    bits and constants for the bits fixed by its instruction class; the
    words behind it (:func:`words_behind`) are fully symbolic.  A
    static plan creates each control slot's delay words right after
    that slot; an event plan creates every slot word first, then the
    squashed words by slot.
    """
    plan = StimulusPlan(
        event_slots=None if event_slots is None else tuple(sorted(set(event_slots))),
        behind_labels=words_behind(architecture, siminfo, event_slots),
    )
    width = architecture.instruction_width

    def add_words_behind(index: int) -> None:
        labels = plan.behind_labels[index]
        plan.delay_instructions[index] = [
            BitVec.inputs(manager, label, width) for label in labels
        ]
        plan.free_variable_count += width * len(labels)

    for index, kind in enumerate(siminfo.slots):
        cube = architecture.instruction_class_cube(kind)
        bits = []
        for bit in range(width):
            if bit in cube:
                bits.append(manager.constant(cube[bit]))
            else:
                bits.append(manager.var(f"instr{index}[{bit}]"))
                plan.free_variable_count += 1
        plan.slot_instructions.append(BitVec.from_bits(manager, bits))
        if event_slots is None and index in plan.behind_labels:
            add_words_behind(index)
    if event_slots is not None:
        for index in sorted(plan.behind_labels):
            add_words_behind(index)
    return plan


def witness_order(
    architecture: Architecture,
    siminfo: SimulationInfo,
    event_slots: Optional[Sequence[int]] = None,
) -> Tuple[str, ...]:
    """The canonical variable order counterexamples are picked in.

    It is the declaration order of :func:`build_stimulus` on an empty
    manager, then the architecture's initial state.  Replaying both on
    a throwaway manager makes it equal that order by construction,
    whatever order the verifying manager uses.
    """
    throwaway = BDDManager()
    build_stimulus(throwaway, architecture, siminfo, event_slots)
    architecture.make_initial_state(throwaway)
    return throwaway.variables


def verify_beta_relation(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    relational=None,
) -> VerificationReport:
    """Verify the pipelined implementation against the unpipelined specification.

    This is the top-level entry point of the reproduction: the Figure-8
    algorithm generalised to variable ``k`` (delay slots) per Section 5.3.
    Thin adapter over :func:`repro.engine.executor.run_beta` — the
    campaign engine's code path — so standalone calls and campaign runs
    measure identical work.  By default the check runs on the relational
    backend (:mod:`repro.relational.beta`: per-bit beta-correspondence
    relations, cofactor-specialised products, selector-above-data
    stimulus order); ``relational`` — a
    :class:`~repro.relational.RelationalPolicy` — selects the classical
    compose path (``beta_backend="compose"``) and/or dynamic variable
    reordering between the simulation phases.  Verdicts are
    byte-identical across backends and variable orders: both pick each
    counterexample in :func:`witness_order`, not in their manager's
    order.
    """
    from ..engine.executor import run_beta

    return run_beta(
        architecture,
        siminfo,
        manager=manager,
        impl_kwargs=impl_kwargs,
        observation=observation,
        relational=relational,
    )
