"""End-to-end tests of the beta-relation verification engine (Figure 8).

These are the reproduction's core results at test scale: the pipelined
VSM and (condensed) Alpha0 verify against their unpipelined
specifications, every injected bug is caught with a decoded
counterexample, and the generated cycle counts / filter sequences match
the ones printed in Chapter 6 of the paper.
"""

import itertools

import pytest

from repro.bdd import BDDManager
from repro.core import (
    Alpha0Architecture,
    ObservationSpec,
    SimulationInfo,
    VSMArchitecture,
    all_normal,
    alpha0_default,
    build_stimulus,
    control_at,
    verify_beta_relation,
    vsm_default,
)
from repro.processors import SymbolicAlpha0Options
from repro.engine.executor import _drive_implementation
from repro.strings import CONTROL, NORMAL, format_filter, pipelined_filter, sample_cycles


SMALL_ALPHA0 = Alpha0Architecture(
    options=SymbolicAlpha0Options(
        data_width=3, num_registers=4, memory_words=2, alu_subset=("and", "or", "cmpeq")
    )
)


class TestStimulusConstruction:
    def test_vsm_normal_slot_constrains_opcode_msb(self):
        manager = BDDManager()
        plan = build_stimulus(manager, VSMArchitecture(), all_normal(2))
        for instruction in plan.slot_instructions:
            assert instruction[12] is manager.zero
        assert plan.free_variable_count == 2 * 12
        assert plan.delay_instructions == {}

    def test_vsm_control_slot_fixes_opcode(self):
        manager = BDDManager()
        plan = build_stimulus(manager, VSMArchitecture(), control_at(2, 1))
        branch = plan.slot_instructions[1]
        assert branch[12] is manager.one
        assert branch[11] is manager.zero
        assert branch[10] is manager.zero
        # One delay-slot instruction of 13 fully free bits.
        assert list(plan.delay_instructions) == [1]
        assert plan.free_variable_count == 12 + 10 + 13

    def test_alpha0_cubes_fix_the_opcode_field(self):
        manager = BDDManager()
        architecture = SMALL_ALPHA0
        plan = build_stimulus(manager, architecture, alpha0_default())
        normal = plan.slot_instructions[0]
        control = plan.slot_instructions[2]
        # Opcode bits are 26..31.
        assert [normal[26 + b] for b in range(6)] == [
            manager.constant(bool((0x11 >> b) & 1)) for b in range(6)
        ]
        assert [control[26 + b] for b in range(6)] == [
            manager.constant(bool((0x30 >> b) & 1)) for b in range(6)
        ]


class TestFeedDerivedSchedule:
    """The implementation is sampled where its feed schedule says a slot
    retires; for a static plan that must be exactly SH2."""

    @pytest.mark.parametrize("architecture", [VSMArchitecture(), SMALL_ALPHA0])
    def test_sampled_cycles_equal_sh2(self, architecture):
        for length in range(1, 5):
            for slots in itertools.product((NORMAL, CONTROL), repeat=length):
                siminfo = SimulationInfo(reset_cycles=1, slots=slots)
                manager = BDDManager()
                plan = build_stimulus(manager, architecture, siminfo)
                _, cycles, _ = _drive_implementation(
                    manager,
                    architecture,
                    plan,
                    siminfo,
                    step=lambda instruction, fetch_valid: None,
                    sample=lambda: {},
                )
                assert list(cycles) == list(
                    sample_cycles(
                        pipelined_filter(
                            architecture.order_k,
                            slots,
                            architecture.delay_slots,
                            siminfo.reset_cycles,
                        )
                    )
                ), slots


class TestVSMVerification:
    def test_correct_design_passes(self):
        report = verify_beta_relation(VSMArchitecture(), vsm_default())
        assert report.passed, report.summary()
        assert report.mismatches == []

    def test_cycle_counts_match_section_6_2(self):
        report = verify_beta_relation(VSMArchitecture(), vsm_default())
        assert report.specification_cycles == 17  # k^2 + r
        assert report.implementation_cycles == 9  # 2k-1 + r + c*d
        assert report.samples_compared == 5

    def test_filter_sequences_match_section_6_2(self):
        report = verify_beta_relation(VSMArchitecture(), vsm_default())
        spec_line, impl_line = report.filter_lines()
        assert spec_line.endswith("1 0 0 0 1 0 0 0 1 0 0 0 1 0 0 0 1")
        assert impl_line.endswith("1 0 0 0 1 1 1 0 1")

    def test_fixed_k_verification_passes(self):
        report = verify_beta_relation(VSMArchitecture(), all_normal(4))
        assert report.passed
        assert report.implementation_cycles == 8  # no delay slot inserted

    # Bug-detection workloads are deliberately short: the point is that the
    # relevant instruction class exposes the bug, and an executed (non-annulled)
    # delay slot adds a full extra level of symbolic nesting that a pure-Python
    # BDD engine should not be asked to carry for every parametrized case.
    BUG_WORKLOADS = {
        "no_bypass": all_normal(2),
        "no_annul": SimulationInfo(slots=(CONTROL, NORMAL)),
        "wrong_branch_target": control_at(2, 0),
        "and_becomes_or": all_normal(1),
        "drop_write_r3": all_normal(1),
    }

    @pytest.mark.parametrize(
        "bug", ["no_bypass", "no_annul", "wrong_branch_target", "and_becomes_or", "drop_write_r3"]
    )
    def test_injected_bugs_are_caught(self, bug):
        report = verify_beta_relation(
            VSMArchitecture(), self.BUG_WORKLOADS[bug], impl_kwargs={"bug": bug}
        )
        assert not report.passed, f"bug {bug} escaped verification"
        assert report.mismatches
        first = report.mismatches[0]
        assert first.decoded_instructions  # the counterexample decodes to assembly

    def test_no_annul_is_only_caught_with_a_control_slot(self):
        """Without a control-transfer slot the annulment logic is never exercised."""
        report = verify_beta_relation(
            VSMArchitecture(), all_normal(2), impl_kwargs={"bug": "no_annul"}
        )
        assert report.passed
        report = verify_beta_relation(
            VSMArchitecture(),
            SimulationInfo(slots=(CONTROL, NORMAL)),
            impl_kwargs={"bug": "no_annul"},
        )
        assert not report.passed

    def test_constant_initial_state_still_passes(self):
        report = verify_beta_relation(
            VSMArchitecture(symbolic_initial_state=False), vsm_default()
        )
        assert report.passed
        assert report.sequences_covered > 1

    def test_restricted_observation(self):
        observation = ObservationSpec(("reg1", "pc_next"))
        report = verify_beta_relation(VSMArchitecture(), vsm_default(), observation=observation)
        assert report.passed
        assert report.observables_compared == 2

    def test_report_metadata(self):
        report = verify_beta_relation(VSMArchitecture(), vsm_default())
        assert report.design == "VSM"
        assert report.order_k == 4 and report.delay_slots == 1
        assert report.slot_kinds == (NORMAL, NORMAL, CONTROL, NORMAL)
        assert report.bdd_variables > 0 and report.bdd_nodes > 0
        assert report.sequences_covered == 2 ** (12 * 3 + 10 + 13)
        assert report.total_seconds > 0


class TestAlpha0Verification:
    def test_condensed_design_passes(self):
        report = verify_beta_relation(SMALL_ALPHA0, alpha0_default())
        assert report.passed, report.summary()

    def test_cycle_counts_match_section_6_3(self):
        report = verify_beta_relation(SMALL_ALPHA0, alpha0_default())
        assert report.specification_cycles == 26  # k^2 + r
        assert report.implementation_cycles == 11  # 2k-1 + r + c*d
        spec_line, impl_line = report.filter_lines()
        assert spec_line.endswith("1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1")
        assert impl_line.endswith("1 0 0 0 0 1 1 1 0 1 1")

    def test_memory_class_slots_pass(self):
        """A second pass with the 'normal' class set to loads exercises memory."""
        architecture = Alpha0Architecture(
            options=SMALL_ALPHA0.options, normal_opcode=0x29  # ld
        )
        report = verify_beta_relation(architecture, all_normal(5))
        assert report.passed, report.summary()

    # The bug must be exercised by the instruction class simulated in the
    # ordinary slots: cmpeq lives in the 0x10 operate class, stores in 0x2D.
    ALPHA0_BUG_RUNS = {
        "no_bypass": (SMALL_ALPHA0, all_normal(2)),
        "no_annul": (SMALL_ALPHA0, SimulationInfo(slots=(CONTROL, NORMAL))),
        "cmpeq_inverted": (
            Alpha0Architecture(options=SMALL_ALPHA0.options, normal_opcode=0x10),
            all_normal(1),
        ),
    }

    @pytest.mark.parametrize("bug", ["no_bypass", "no_annul", "cmpeq_inverted"])
    def test_injected_bugs_are_caught(self, bug):
        architecture, workload = self.ALPHA0_BUG_RUNS[bug]
        report = verify_beta_relation(architecture, workload, impl_kwargs={"bug": bug})
        assert not report.passed, f"bug {bug} escaped verification"

    def test_store_bug_needs_store_class(self):
        """The store bug is invisible to the operate-class run but caught by a
        store-class run over a symbolic initial state (all-zero memory cannot
        distinguish which word a zero was stored to)."""
        operate_run = verify_beta_relation(
            SMALL_ALPHA0, all_normal(2), impl_kwargs={"bug": "store_wrong_word"}
        )
        assert operate_run.passed
        store_architecture = Alpha0Architecture(
            options=SMALL_ALPHA0.options, normal_opcode=0x2D, symbolic_initial_state=True
        )
        store_run = verify_beta_relation(
            store_architecture, all_normal(2), impl_kwargs={"bug": "store_wrong_word"}
        )
        assert not store_run.passed
