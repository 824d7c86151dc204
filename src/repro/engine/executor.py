"""Scenario execution: the single code path behind every verification driver.

This module owns the simulation orchestration that used to be duplicated
across :func:`repro.core.verifier.verify_beta_relation`,
:func:`repro.core.dynamic_beta.verify_with_events` and
:func:`repro.core.dynamic_beta.verify_superscalar_schedule`; those entry
points are now thin adapters over the functions here, so examples,
benchmarks and campaigns all measure the same code.

* :func:`run_beta` — the Figure-8 beta-relation check (static filters).
* :func:`run_events` — the Section 5.5 dynamic beta-relation: the same
  Figure-8 phases plus an external event (interrupt) schedule, from
  which the implementation's sampling filter follows.
* :func:`run_superscalar` — the Section 5.7 concrete dynamic-beta check
  of the dual-issue VSM.
* :func:`execute_scenario` — the campaign entry: resolves a
  :class:`~repro.engine.scenario.Scenario`, runs the right driver on a
  (possibly pooled) manager and wraps the result in a deterministic
  :class:`~repro.engine.report.ScenarioOutcome`.

:func:`run_beta` and :func:`run_events` share one phase sequence
(:func:`_run_figure8`: stimulus plan, specification, reorder point,
implementation, comparison, report); a beta backend only decides how a
machine takes a step.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDManager, find_distinguishing_assignment
from ..isa import vsm as vsm_isa
from ..logic import BitVec
from ..strings import (
    CONTROL,
    pipelined_cycle_count,
    pipelined_filter,
    superscalar_specification_filter,
    unpipelined_filter,
)
from ..core.architectures import Architecture, VSMArchitecture
from ..core.observation import ObservationSpec
from ..core.report import Mismatch, VerificationReport
from ..core.siminfo import SimulationInfo
from ..relational.policy import (
    BETA_COMPOSE,
    BETA_RELATIONAL,
    RelationalPolicy,
    effective_beta_backend,
)
from .. import telemetry
from . import codehash
from .report import ScenarioOutcome
from .scenario import BETA, EVENTS, SUPERSCALAR, Scenario


# ----------------------------------------------------------------------
# Dynamic reordering (relational policy)
# ----------------------------------------------------------------------
#: Sifting budget per reorder point: at most this many variables per pass.
REORDER_MAX_VARIABLES = 8
#: Sifting budget per variable: at most this many levels per direction.
#: Swaps are cheap under the per-level node index; the exact (live-root)
#: size metric is a traversal per swap, so bounding the excursion is
#: what keeps default sifting inside the 1.2x-of-plain-run budget.
REORDER_MAX_EXCURSION = 12
#: Above this many live root nodes the exact size metric (one traversal
#: per interacting swap) costs more than the verification it serves;
#: the sift falls back to the O(1) unique-table metric, whose garbage
#: bias stays bounded by the per-variable session sweep.  Deterministic
#: either way, so verdict parity is unaffected.
REORDER_EXACT_METRIC_LIMIT = 50_000


def _maybe_reorder(
    manager: BDDManager,
    policy: Optional[RelationalPolicy],
    phase: str,
    samples: Sequence[Dict[str, BitVec]] = (),
) -> Dict[str, object]:
    """Sift the manager if the scenario's policy asks for it.

    Runs between simulation phases (after the specification machine, when
    the unique table holds the formulae the implementation phase will
    re-derive against); the sampled specification observables serve as
    sifting roots, making the size metric exact.  Reordering mutates
    nodes function-preservingly, and counterexamples are picked in a
    fixed canonical order rather than the manager's, so the verdict
    bytes are unaffected.  The campaign runner gives thresholded
    reordering scenarios a private manager (a pooled table's size
    depends on campaign history, which would make this trigger — and
    the reorder record — mode-dependent); a caller who sifts a pooled
    manager directly is still covered by the pool's retire-on-reorder
    hook.  In this pure-Python substrate a swap costs time proportional
    to the two levels' populations, so mid-run sifting is an explicit opt-in
    (``RelationalPolicy.reorder``) with a bounded per-pass variable
    budget — worthwhile for order repair on long-lived managers and for
    relational image workloads, not for shaving one functional run.
    Returns the measurement record (empty if nothing ran).
    """
    if policy is None or not policy.reorders:
        return {}
    if manager.size() < policy.reorder_threshold:
        return {}
    from ..bdd.reorder import live_size

    roots = [
        bit
        for sample in samples
        for vector in sample.values()
        for bit in vector.bits
    ]
    if roots and live_size(manager, roots) > REORDER_EXACT_METRIC_LIMIT:
        roots = []
    started = time.perf_counter()
    with telemetry.span("reorder.sift", manager=manager, phase=phase) as sift_span:
        result = manager.sift(
            roots=roots or None,
            converge=policy.reorder == "converge",
            max_variables=REORDER_MAX_VARIABLES,
            max_excursion=REORDER_MAX_EXCURSION,
        )
        sift_span.set(swaps=result.swaps, passes=result.passes)
    record = result.to_dict()
    record["phase"] = phase
    record["seconds"] = round(time.perf_counter() - started, 4)
    return record


# ----------------------------------------------------------------------
# Counterexample decoding
# ----------------------------------------------------------------------
def _word_from_vector(vector: BitVec, label: str, assignment: Mapping[str, bool]) -> int:
    """Concrete instruction word of a stimulus vector under ``assignment``.

    Stimulus bits are either constants (class-cube bits) or single
    positive literals named ``{label}[{bit}]``; unassigned free bits
    default to 0, matching :meth:`BDDManager.pick_assignment`'s minimal
    witnesses.
    """
    word = 0
    for bit in range(vector.width):
        bit_function = vector[bit]
        if bit_function.is_terminal:
            value = bool(bit_function.value)
        else:
            value = assignment.get(f"{label}[{bit}]", False)
        if value:
            word |= 1 << bit
    return word


def decode_counterexample(
    architecture: Architecture,
    labelled_vectors: Sequence[Tuple[str, BitVec]],
    assignment: Mapping[str, bool],
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Decode a witness assignment into per-slot assembly and raw words."""
    decoded: Dict[str, str] = {}
    words: Dict[str, int] = {}
    for label, vector in labelled_vectors:
        word = _word_from_vector(vector, label, assignment)
        words[label] = word
        decoded[label] = architecture.disassemble(word)
    relevant_state = {
        name: value for name, value in assignment.items() if name.startswith("init.")
    }
    if relevant_state:
        names = sorted(relevant_state)
        decoded["initial_state"] = ", ".join(
            f"{name}={'1' if relevant_state[name] else '0'}" for name in names
        )
    return decoded, words


# ----------------------------------------------------------------------
# Figure-8 phases (paper Figure 8, Sections 5.3 and 5.5)
# ----------------------------------------------------------------------
def _drive_specification(
    plan,
    siminfo: SimulationInfo,
    cycles_per_instruction: int,
    step,
    sample,
    trap=None,
) -> Tuple[List[Dict[str, BitVec]], List[int], int]:
    """Drive the unpipelined machine's instruction schedule (SH1 sampling).

    ``step(instruction)`` advances one instruction window, and
    ``trap(instruction)`` does so with the event asserted (only at the
    plan's event slots); ``sample()`` reads the selected observation
    of the current state.  Returns (samples, sample cycles, total
    cycles).
    """
    events = set(plan.event_slots or ())
    samples = [sample()]
    cycles = [siminfo.reset_cycles - 1]
    cycle = siminfo.reset_cycles - 1
    for index, instruction in enumerate(plan.slot_instructions):
        (trap if index in events else step)(instruction)
        cycle += cycles_per_instruction
        samples.append(sample())
        cycles.append(cycle)
    total = siminfo.reset_cycles + cycles_per_instruction * len(plan.slot_instructions)
    return samples, cycles, total


def _drive_implementation(
    manager: BDDManager,
    architecture: Architecture,
    plan,
    siminfo: SimulationInfo,
    step,
    sample,
    trap=None,
) -> Tuple[List[Dict[str, BitVec]], List[int], int]:
    """Drive the pipelined machine's feed schedule and sample what retires.

    Each slot is fed, then the words behind it.  The sampling schedule
    follows from the feed schedule: a slot fed at cycle ``c`` retires,
    and is sampled, at ``c + k - 1``; the words behind it never retire.
    For a static plan this is SH2 (:func:`pipelined_filter`), for an
    event plan Section 5.5's dynamic beta-relation.  An event slot's
    last squashed word goes through ``trap``: the event line is
    asserted while the slot sits in the execute stage.  The pipeline
    then drains on invalid fetches up to the last sample.

    ``step(instruction, fetch_valid)`` / ``trap(...)`` advance one
    pipeline cycle; ``sample()`` reads the selected observation of the
    current state (called only at sampled cycles, so a relational
    stepper installs its state lazily).  Returns (samples, sample
    cycles, cycles simulated).
    """
    events = set(plan.event_slots or ())
    cycle = siminfo.reset_cycles - 1
    feed = []
    sampled = [cycle]
    for index, instruction in enumerate(plan.slot_instructions):
        feed.append((instruction, step))
        sampled.append(cycle + len(feed) + architecture.order_k - 1)
        behind = plan.delay_instructions.get(index, [])
        for position, word in enumerate(behind):
            is_trap = index in events and position == len(behind) - 1
            feed.append((word, trap if is_trap else step))

    wanted = set(sampled)
    samples = [sample()]

    def advance(move, instruction: BitVec, fetch_valid) -> None:
        nonlocal cycle
        move(instruction, fetch_valid)
        cycle += 1
        if cycle in wanted:
            samples.append(sample())

    for instruction, move in feed:
        advance(move, instruction, manager.one)
    nop = BitVec.constant(manager, 0, architecture.instruction_width)
    while cycle < sampled[-1]:
        advance(step, nop, manager.zero)
    return samples, sampled, cycle + 1


def _observe(model, observation: ObservationSpec) -> Dict[str, BitVec]:
    return observation.select(model.observe())


def _relational_machine(stepper, model, observation: ObservationSpec):
    """``(step, sample)`` of one machine replayed on its extracted relation."""
    state = stepper.initial_state()

    def step(instruction: BitVec, *fetch_valid) -> None:
        nonlocal state
        state = stepper.advance(state, instruction, *fetch_valid)

    def sample() -> Dict[str, BitVec]:
        stepper.install(state)
        return _observe(model, observation)

    return step, sample


def run_beta(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    relational: Optional[RelationalPolicy] = None,
    snapshot_store=None,
) -> VerificationReport:
    """Verify a pipelined implementation against its unpipelined specification.

    This is the Figure-8 algorithm generalised to variable ``k`` (delay
    slots) per Section 5.3 — the code path behind
    :func:`repro.core.verifier.verify_beta_relation` and every BETA
    campaign scenario.  ``relational`` carries the
    :class:`~repro.relational.RelationalPolicy` knobs: which beta
    backend runs the check (the relational formulation by default, the
    classical compose path as the differential opt-out — verdicts are
    byte-identical either way, see :mod:`repro.relational.beta`) and
    whether dynamic variable reordering runs between the simulation
    phases (see :func:`_maybe_reorder` for the exact guarantee).
    ``snapshot_store`` lets the relational backend rehydrate its beta
    relations from persistent arena snapshots instead of re-extracting
    (see :func:`repro.relational.beta.cached_extract_steppers`).
    """
    from ..relational.beta import supports_state_injection

    manager = manager if manager is not None else BDDManager()
    models = architecture.make_models(manager, impl_kwargs=impl_kwargs)
    backend = effective_beta_backend(relational)
    if backend == BETA_RELATIONAL and not all(
        supports_state_injection(model) for model in models
    ):
        # The design's models predate the state-injection protocol: run
        # the classical path on the same, still declaration-free manager.
        backend = BETA_COMPOSE
    return _run_figure8(
        architecture,
        siminfo,
        manager,
        observation,
        relational,
        models,
        backend,
        impl_kwargs=impl_kwargs,
        snapshot_store=snapshot_store,
    )


def _run_figure8(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: BDDManager,
    observation: Optional[ObservationSpec],
    relational: Optional[RelationalPolicy],
    models,
    backend: str,
    event_slots: Optional[Sequence[int]] = None,
    impl_kwargs: Optional[dict] = None,
    snapshot_store=None,
) -> VerificationReport:
    """The Figure-8 phases, shared by every symbolic run.

    Builds the stimulus plan (static, or with ``event_slots``) and the
    shared initial state, then runs the specification, an optional
    reorder point, the implementation, the comparison and the report.
    ``backend`` only decides how a machine takes a step: functional
    simulation of ``models`` for compose, the relations extracted from
    them (:mod:`repro.relational.beta`) for relational, which declares
    its own selector-above-data stimulus order first.  Canonicity makes
    both backends refute exactly the same (sample, observable) pairs,
    and each witness is picked in :func:`repro.core.verifier.witness_order`,
    so the verdict bytes depend on neither the backend nor the order.
    """
    from ..core.verifier import build_stimulus, witness_order
    from ..relational.beta import beta_stimulus_order, cached_extract_steppers

    observation = observation if observation is not None else architecture.observation_spec()
    specification, implementation = models
    relational_backend = backend == BETA_RELATIONAL
    if relational_backend:
        manager.declare_all(beta_stimulus_order(architecture, siminfo))
    # Without a declared order the instruction variables, which act as
    # selectors into the register file, still sit above the initial-state
    # data (Section 3.2): the stimulus is built first.
    plan = build_stimulus(manager, architecture, siminfo, event_slots)
    initial_state = architecture.make_initial_state(manager)

    extraction_seconds = 0.0
    if relational_backend:
        # Extraction cache keys: the relation is a pure function of the
        # model construction (architecture dataclass repr covers the
        # design and its condensation options; the implementation
        # additionally depends on the injected-bug kwargs), per manager
        # — and the pool keys managers by order signature, so this is
        # exactly the (model, relation, order_signature) cache of a
        # campaign session.
        arch_sig = repr(architecture)
        kwargs_sig = repr(sorted((impl_kwargs or {}).items()))
        started = time.perf_counter()
        with telemetry.span("beta.extract", manager=manager, arch=architecture.name):
            spec_stepper, impl_stepper, extraction_record = cached_extract_steppers(
                manager,
                specification,
                implementation,
                architecture.instruction_width,
                spec_key=("beta_spec_relation", arch_sig),
                impl_key=("beta_impl_relation", arch_sig, kwargs_sig),
                snapshot_store=snapshot_store,
                dependencies=codehash.components_for_architecture(architecture),
            )
        extraction_seconds = time.perf_counter() - started
        extraction_record["seconds"] = round(extraction_seconds, 4)
    specification.reset(**initial_state)
    implementation.reset(**initial_state)

    if relational_backend:
        spec_step, spec_sample = _relational_machine(spec_stepper, specification, observation)
        impl_step, impl_sample = _relational_machine(impl_stepper, implementation, observation)
        spec_trap = impl_trap = None  # event runs are compose-only
    else:
        spec_step, impl_step = specification.execute_instruction, implementation.step
        spec_trap = partial(specification.execute_instruction, event=True)
        impl_trap = partial(implementation.step, event=True)
        spec_sample = partial(_observe, specification, observation)
        impl_sample = partial(_observe, implementation, observation)

    started = time.perf_counter()
    with telemetry.span("beta.spec", manager=manager, backend=backend):
        spec_samples, spec_cycles, spec_total = _drive_specification(
            plan,
            siminfo,
            specification.cycles_per_instruction,
            spec_step,
            spec_sample,
            spec_trap,
        )
    spec_seconds = time.perf_counter() - started + extraction_seconds

    # Reorder point: the specification formulae are built, the (more
    # expensive) implementation simulation is still ahead.
    reorder_record = _maybe_reorder(
        manager, relational, phase="post-specification", samples=spec_samples
    )

    started = time.perf_counter()
    with telemetry.span("beta.impl", manager=manager, backend=backend):
        impl_samples, impl_cycles, impl_simulated = _drive_implementation(
            manager, architecture, plan, siminfo, impl_step, impl_sample, impl_trap
        )
    impl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with telemetry.span("beta.compare", manager=manager, backend=backend):
        mismatches = _compare_samples(
            manager,
            architecture,
            observation,
            plan,
            spec_samples,
            impl_samples,
            spec_cycles,
            impl_cycles,
            witness_order(architecture, siminfo, event_slots),
        )
    comparison_seconds = time.perf_counter() - started

    report = _beta_report(
        architecture,
        siminfo,
        manager,
        observation,
        plan,
        mismatches,
        spec_total,
        impl_simulated,
        impl_cycles,
        spec_seconds,
        impl_seconds,
        comparison_seconds,
        reorder_record,
        backend=backend,
    )
    if relational_backend:
        # Snapshot activity is its own measurement family on the report;
        # the extraction record keeps only the cache-level hit/miss story.
        report.snapshot = dict(extraction_record.pop("snapshot", {}))
        report.extraction_cache = dict(extraction_record)
    return report


def _compare_samples(
    manager: BDDManager,
    architecture: Architecture,
    observation: ObservationSpec,
    plan,
    spec_samples: Sequence[Dict[str, BitVec]],
    impl_samples: Sequence[Dict[str, BitVec]],
    spec_cycles: Sequence[int],
    impl_cycles: Sequence[int],
    witness_order: Sequence[str],
) -> List[Mismatch]:
    """Pairwise canonical comparison of the sampled observables.

    The samples are canonical ROBDDs of the same Boolean functions on
    either backend, so the mismatch *set* cannot depend on the backend.
    Witnesses are picked in ``witness_order``, so their bits depend
    neither on the backend nor on sifting.
    """
    labelled_vectors = plan.labelled_vectors()
    mismatches: List[Mismatch] = []
    if len(spec_samples) != len(impl_samples):
        raise RuntimeError(
            "internal error: the sampling schedules of the two machines disagree "
            f"({len(spec_samples)} vs {len(impl_samples)} samples)"
        )
    for index, (spec_obs, impl_obs) in enumerate(zip(spec_samples, impl_samples)):
        for name in observation:
            spec_value = spec_obs[name]
            impl_value = impl_obs[name]
            if spec_value.identical(impl_value):
                continue
            witness = find_distinguishing_assignment(
                manager, spec_value.bits, impl_value.bits, witness_order
            )
            decoded, words = decode_counterexample(
                architecture, labelled_vectors, witness or {}
            )
            mismatches.append(
                Mismatch(
                    sample_index=index,
                    observable=name,
                    specification_cycle=spec_cycles[index],
                    implementation_cycle=impl_cycles[index],
                    counterexample=witness or {},
                    decoded_instructions=decoded,
                    instruction_words=words,
                )
            )
    return mismatches


def _beta_report(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: BDDManager,
    observation: ObservationSpec,
    plan,
    mismatches: List[Mismatch],
    spec_total: int,
    impl_simulated: int,
    impl_cycles: Sequence[int],
    spec_seconds: float,
    impl_seconds: float,
    comparison_seconds: float,
    reorder_record: Dict[str, object],
    backend: str,
) -> VerificationReport:
    """Assemble the report (structure identical across backends).

    A static run reports SH2 and its cycle count; an event run reports
    the cycles it simulated, the filter its feed schedule derived, and
    its event slots as control slots.
    """
    extra: Dict[str, object] = {}
    if plan.event_slots is None:
        slot_kinds = siminfo.slots
        impl_total = pipelined_cycle_count(
            architecture.order_k, siminfo.slots, architecture.delay_slots, siminfo.reset_cycles
        )
        impl_filter = pipelined_filter(
            architecture.order_k, siminfo.slots, architecture.delay_slots, siminfo.reset_cycles
        )
    else:
        # An event slot squashes the fetches behind it like a control transfer.
        slot_kinds = tuple(
            CONTROL if index in plan.event_slots else kind
            for index, kind in enumerate(siminfo.slots)
        )
        impl_total = impl_simulated
        sampled = set(impl_cycles)
        impl_filter = tuple(1 if cycle in sampled else 0 for cycle in range(impl_total))
        extra["event_slots"] = list(plan.event_slots)
    return VerificationReport(
        design=architecture.name,
        passed=not mismatches,
        order_k=architecture.order_k,
        delay_slots=architecture.delay_slots,
        reset_cycles=siminfo.reset_cycles,
        slot_kinds=slot_kinds,
        specification_cycles=spec_total,
        implementation_cycles=impl_total,
        specification_filter=unpipelined_filter(
            architecture.order_k, siminfo.num_slots, siminfo.reset_cycles
        ),
        implementation_filter=impl_filter,
        samples_compared=len(impl_cycles),
        observables_compared=len(observation),
        sequences_covered=2 ** plan.free_variable_count,
        mismatches=mismatches,
        specification_seconds=spec_seconds,
        implementation_seconds=impl_seconds,
        comparison_seconds=comparison_seconds,
        bdd_nodes=manager.size(),
        bdd_variables=manager.num_vars(),
        extra=extra,
        reorder=reorder_record,
        backend=backend,
    )


def run_events(
    siminfo: SimulationInfo,
    event_slots: Sequence[int],
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    symbolic_initial_state: bool = False,
    relational: Optional[RelationalPolicy] = None,
) -> VerificationReport:
    """Verify the interrupt-capable pipelined VSM with the dynamic beta-relation.

    ``event_slots`` lists the instruction-slot indices at which an
    external event (interrupt) arrives.  The affected slot behaves like
    a forced trap: the specification performs the trap atomically, the
    implementation must squash the fetches behind it and redirect to
    the handler, and the filtering function treats the slot like a
    control-transfer slot.  This is the Figure-8 check plus an event
    schedule (Section 5.5): the shared phases on the compose backend,
    with a stimulus plan that carries the event slots.
    """
    from ..processors.interrupts import (
        SymbolicPipelinedVSMWithEvents,
        SymbolicUnpipelinedVSMWithEvents,
    )
    from ..relational.beta import beta_stimulus_order

    for slot in set(event_slots):
        if not 0 <= slot < siminfo.num_slots:
            raise ValueError(f"event slot {slot} outside 0..{siminfo.num_slots - 1}")
        if siminfo.slots[slot] == CONTROL:
            raise ValueError(
                f"slot {slot} is a control-transfer slot; events are modelled on "
                "ordinary instruction slots"
            )
    manager = manager if manager is not None else BDDManager()
    architecture = VSMArchitecture(
        symbolic_initial_state=symbolic_initial_state, name="VSM+events"
    )
    # Selector above data (Section 3.2); witnesses do not depend on it.
    manager.declare_all(beta_stimulus_order(architecture, siminfo, event_slots))
    models = (
        SymbolicUnpipelinedVSMWithEvents(manager),
        SymbolicPipelinedVSMWithEvents(manager, **(impl_kwargs or {})),
    )
    return _run_figure8(
        architecture,
        siminfo,
        manager,
        observation,
        relational,
        models,
        BETA_COMPOSE,
        event_slots=event_slots,
    )


# ----------------------------------------------------------------------
# Concrete superscalar dynamic beta-relation (paper Section 5.7)
# ----------------------------------------------------------------------
def run_superscalar(program, issue_width: int = 2, impl_kwargs: Optional[dict] = None):
    """Dynamic-beta check of the dual-issue VSM on a concrete program.

    The implementation (``repro.processors.superscalar.SuperscalarVSM``)
    retires a variable number of instructions per cycle; the
    specification is the architectural VSM executor.  The observation
    points are derived *from the execution* (the dynamic beta-relation):
    the specification is sampled after the same cumulative number of
    retired instructions as the implementation at each of its retirement
    cycles, and the architectural states must agree at every such point.

    ``impl_kwargs`` carries the mutation knobs.  ``pipeline="scoreboard"``
    swaps the implementation for the Section 5.6 out-of-order-completion
    :class:`~repro.processors.scoreboard.ScoreboardVSM`, compared at its
    in-order points; the remaining knobs select the hazard/latency
    perturbations of the chosen pipeline.
    """
    from ..core.dynamic_beta import SuperscalarCheckResult
    from ..processors.superscalar import SuperscalarVSM
    from ..processors.vsm_unpipelined import UnpipelinedVSM

    knobs = dict(impl_kwargs or {})
    if knobs.pop("pipeline", "superscalar") == "scoreboard":
        return _run_scoreboard(program, knobs)
    hazard_checks = knobs.pop("hazard_checks", "full")
    if knobs:
        raise ValueError(f"unknown superscalar impl kwargs: {sorted(knobs)}")

    implementation = SuperscalarVSM(issue_width=issue_width, hazard_checks=hazard_checks)
    specification = UnpipelinedVSM()

    completions, impl_states = implementation.run(program)
    mismatches: List[str] = []
    spec_observation = specification.observe()
    spec_states = [spec_observation]
    for instruction in program:
        spec_observation = specification.execute_instruction(instruction.encode())
        spec_states.append(spec_observation)

    cumulative = 0
    for cycle, retired in enumerate(completions):
        if retired == 0:
            continue
        cumulative += retired
        impl_obs = impl_states[cycle]
        spec_obs = spec_states[cumulative]
        for name in spec_obs:
            if name in ("retired_op", "retired_dest"):
                continue
            if impl_obs[name] != spec_obs[name]:
                mismatches.append(
                    f"cycle {cycle} (after {cumulative} instructions): {name} "
                    f"impl={impl_obs[name]} spec={spec_obs[name]}"
                )
    impl_filter = tuple(1 if retired else 0 for retired in completions)
    spec_filter = superscalar_specification_filter(
        completions, k=vsm_isa.PIPELINE_DEPTH
    )
    return SuperscalarCheckResult(
        passed=not mismatches,
        instructions_executed=len(program),
        implementation_cycles=len(completions),
        completions_per_cycle=tuple(completions),
        specification_filter=spec_filter,
        implementation_filter=impl_filter,
        mismatches=mismatches,
    )


def _run_scoreboard(program, knobs: dict):
    """Dynamic-beta check of the scoreboarded VSM (paper Section 5.6).

    The scoreboard completes out of order, so the comparison happens only
    at its *in-order points* — cycles where the completed set is a prefix
    of program order (:meth:`ScoreboardTrace.in_order_points`); in the
    worst case only at the end of the program, exactly as the paper
    notes.  The per-cycle completion counts that drive the filters come
    from the recorded completion cycles.
    """
    from ..core.dynamic_beta import SuperscalarCheckResult
    from ..processors.scoreboard import LATENCY_PROFILES, ScoreboardVSM
    from ..processors.vsm_unpipelined import UnpipelinedVSM

    functional_units = knobs.pop("functional_units", 2)
    profile = knobs.pop("latency_profile", "default")
    raw_check = knobs.pop("issue_raw_check", "full")
    if knobs:
        raise ValueError(f"unknown scoreboard impl kwargs: {sorted(knobs)}")
    if profile not in LATENCY_PROFILES:
        raise ValueError(
            f"unknown latency profile {profile!r}; valid: {sorted(LATENCY_PROFILES)}"
        )

    implementation = ScoreboardVSM(
        functional_units=functional_units,
        latencies=LATENCY_PROFILES[profile],
        raw_check=raw_check,
    )
    specification = UnpipelinedVSM()

    trace = implementation.run(program)
    spec_observation = specification.observe()
    spec_states = [spec_observation]
    for instruction in program:
        spec_observation = specification.execute_instruction(instruction.encode())
        spec_states.append(spec_observation)

    mismatches: List[str] = []
    previous_count = 0
    comparison_cycles = set()
    for cycle, count in trace.in_order_points():
        if count == previous_count:
            continue  # nothing new completed since the last in-order point
        previous_count = count
        comparison_cycles.add(cycle)
        impl_obs = trace.observations[cycle]
        spec_obs = spec_states[count]
        for name in spec_obs:
            if name in ("retired_op", "retired_dest"):
                continue
            if impl_obs[name] != spec_obs[name]:
                mismatches.append(
                    f"cycle {cycle} (after {count} instructions): {name} "
                    f"impl={impl_obs[name]} spec={spec_obs[name]}"
                )

    completions = [0] * trace.cycles
    for index, cycle in trace.completion_cycle.items():
        completions[cycle] += 1
    impl_filter = tuple(1 if cycle in comparison_cycles else 0 for cycle in range(trace.cycles))
    spec_filter = superscalar_specification_filter(completions, k=vsm_isa.PIPELINE_DEPTH)
    return SuperscalarCheckResult(
        passed=not mismatches,
        instructions_executed=len(program),
        implementation_cycles=trace.cycles,
        completions_per_cycle=tuple(completions),
        specification_filter=spec_filter,
        implementation_filter=impl_filter,
        mismatches=mismatches,
    )


# ----------------------------------------------------------------------
# Campaign entry point
# ----------------------------------------------------------------------
def _serialize_mismatch(mismatch: Mismatch) -> Dict[str, object]:
    """Deterministic JSON form of one mismatch record."""
    return {
        "sample_index": mismatch.sample_index,
        "observable": mismatch.observable,
        "specification_cycle": mismatch.specification_cycle,
        "implementation_cycle": mismatch.implementation_cycle,
        "counterexample": {
            name: bool(value) for name, value in sorted(mismatch.counterexample.items())
        },
        "decoded": dict(sorted(mismatch.decoded_instructions.items())),
        "words": dict(sorted(mismatch.instruction_words.items())),
    }


def _cache_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else 0.0,
        "evicted_entries": after["evicted_entries"] - before["evicted_entries"],
        "clears": after["clears"] - before["clears"],
        # Absolute size after the run (a pooled manager carries entries over).
        "entries_after": after["total_entries"],
    }


def execute_scenario(
    scenario: Scenario,
    manager: Optional[BDDManager] = None,
    snapshot_store=None,
) -> ScenarioOutcome:
    """Execute one scenario on ``manager`` (fresh if ``None``).

    ``snapshot_store`` flows to the relational beta backend, which uses
    it to rehydrate extracted relations from persistent arena snapshots
    (see :func:`run_beta`); the other drivers ignore it.
    """
    if scenario.needs_manager() and manager is None:
        manager = BDDManager()
    cache_before = manager.cache_statistics() if manager is not None else None

    started = time.perf_counter()
    with telemetry.span(
        "scenario.execute",
        manager=manager,
        scenario=scenario.name,
        kind=scenario.kind,
        design=scenario.design,
    ):
        outcome = _dispatch_scenario(scenario, manager, snapshot_store)
    outcome.seconds = time.perf_counter() - started

    if manager is not None and cache_before is not None:
        outcome.cache = _cache_delta(cache_before, manager.cache_statistics())
    return outcome


def _dispatch_scenario(
    scenario: Scenario,
    manager: Optional[BDDManager],
    snapshot_store,
) -> ScenarioOutcome:
    """Route one scenario to its driver and wrap the outcome."""
    if scenario.kind == BETA:
        report = run_beta(
            scenario.architecture(),
            scenario.siminfo(),
            manager=manager,
            impl_kwargs=scenario.impl_kwargs(),
            observation=scenario.observation(),
            relational=scenario.relational,
            snapshot_store=snapshot_store,
        )
        outcome = _outcome_from_verification(scenario, report)
    elif scenario.kind == EVENTS:
        report = run_events(
            scenario.siminfo(),
            scenario.event_slots,
            manager=manager,
            impl_kwargs=scenario.impl_kwargs(),
            observation=scenario.observation(),
            symbolic_initial_state=scenario.symbolic_initial_state,
            relational=scenario.relational,
        )
        outcome = _outcome_from_verification(scenario, report)
    elif scenario.kind == SUPERSCALAR:
        result = run_superscalar(
            scenario.decoded_program(),
            issue_width=scenario.issue_width,
            impl_kwargs=scenario.impl_kwargs(),
        )
        outcome = ScenarioOutcome(
            scenario=scenario.name,
            kind=scenario.kind,
            design=scenario.design,
            passed=result.passed,
            mismatches=[{"description": text} for text in result.mismatches],
            structure={
                "instructions_executed": result.instructions_executed,
                "implementation_cycles": result.implementation_cycles,
                "completions_per_cycle": list(result.completions_per_cycle),
                "specification_filter": list(result.specification_filter),
                "implementation_filter": list(result.implementation_filter),
                "issue_width": scenario.issue_width,
                "speedup": round(result.speedup, 6),
            },
        )
    else:  # pragma: no cover - Scenario.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    return outcome


def _outcome_from_verification(
    scenario: Scenario, report: VerificationReport
) -> ScenarioOutcome:
    """Wrap a :class:`VerificationReport` into a deterministic outcome."""
    structure = {
        "design": report.design,
        "k": report.order_k,
        "delay_slots": report.delay_slots,
        "reset_cycles": report.reset_cycles,
        "slot_kinds": list(report.slot_kinds),
        "specification_cycles": report.specification_cycles,
        "implementation_cycles": report.implementation_cycles,
        "specification_filter": list(report.specification_filter),
        "implementation_filter": list(report.implementation_filter),
        "samples_compared": report.samples_compared,
        "observables_compared": report.observables_compared,
        "sequences_covered": report.sequences_covered,
    }
    if report.extra:
        structure["extra"] = report.extra
    return ScenarioOutcome(
        scenario=scenario.name,
        kind=scenario.kind,
        design=scenario.design,
        passed=report.passed,
        mismatches=[_serialize_mismatch(mismatch) for mismatch in report.mismatches],
        structure=structure,
        timings={
            "specification_seconds": report.specification_seconds,
            "implementation_seconds": report.implementation_seconds,
            "comparison_seconds": report.comparison_seconds,
        },
        bdd_nodes=report.bdd_nodes,
        bdd_variables=report.bdd_variables,
        reorder=dict(report.reorder),
        extraction_cache=dict(report.extraction_cache),
        backend=report.backend,
        snapshot=dict(report.snapshot),
    )
