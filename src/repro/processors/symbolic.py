"""Common infrastructure for the symbolic (BDD-level) processor models.

A symbolic processor model mirrors its concrete counterpart but holds
every architectural and micro-architectural value as a
:class:`~repro.logic.bitvec.BitVec` of BDD functions.  The verification
core drives one specification model and one implementation model with
*shared* symbolic instruction variables, samples the observation
dictionaries at the cycles chosen by the output filtering functions and
compares the sampled formulae as canonical ROBDDs.

All symbolic models implement the small protocol below:

``manager``                 the shared BDD manager
``reset(initial_registers=…, initial_memory=…)``
                            restore the reset state; the architectural
                            registers (and memory) may be seeded with
                            shared symbolic values so that the machines
                            are verified for *every* initial state
``step(instruction, fetch_valid=…)``
                            advance one clock cycle; the instruction is
                            a BitVec of the ISA's instruction width
``observe()``               the observation dictionary (name -> BitVec),
                            using the same names as the concrete models
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDManager, BDDNode
from ..logic import BitVec


def symbolic_register_file(
    manager: BDDManager, count: int, width: int, prefix: str = "init.reg"
) -> List[BitVec]:
    """Fresh symbolic variables for an initial register file.

    The same list should be passed to both the specification and the
    implementation model so that both machines start from the *same*
    arbitrary architectural state.
    """
    return [BitVec.inputs(manager, f"{prefix}{i}", width) for i in range(count)]


def symbolic_memory(
    manager: BDDManager, words: int, width: int, prefix: str = "init.mem"
) -> List[BitVec]:
    """Fresh symbolic variables for an initial data memory."""
    return [BitVec.inputs(manager, f"{prefix}{i}", width) for i in range(words)]


def constant_register_file(manager: BDDManager, count: int, width: int) -> List[BitVec]:
    """An all-zero register file (the concrete reset state)."""
    return [BitVec.constant(manager, 0, width) for _ in range(count)]


def state_bits(widths: Mapping[str, int], *fields: str) -> List[Tuple[str, int]]:
    """Every ``(field, bit)`` pair of ``fields``, field by field, LSB first.

    The building block of the models' ``state_order`` declarations.
    """
    return [(field, bit) for field in fields for bit in range(widths[field])]


def write_register(
    registers: Sequence[BitVec], index: BitVec, value: BitVec, enable: BDDNode
) -> List[BitVec]:
    """Functional register-file write: new contents with ``value`` at ``index``.

    ``enable`` gates the write (a BDD function); registers whose index
    does not match keep their old value.
    """
    manager = value.manager
    updated = []
    for position, old in enumerate(registers):
        selected = manager.apply_and(enable, index.eq(position))
        updated.append(BitVec.mux(selected, value, old))
    return updated


def write_memory(
    memory: Sequence[BitVec], index: BitVec, value: BitVec, enable: BDDNode
) -> List[BitVec]:
    """Functional data-memory write (same shape as :func:`write_register`)."""
    return write_register(memory, index, value, enable)


def read_register(registers: Sequence[BitVec], index: BitVec) -> BitVec:
    """Functional register-file read at a symbolic index."""
    return BitVec.select_word(index, list(registers))


def observation_identical(
    left: Dict[str, BitVec], right: Dict[str, BitVec]
) -> bool:
    """Whether two observation dictionaries are canonically identical."""
    if set(left) != set(right):
        return False
    return all(left[name].identical(right[name]) for name in left)


def observation_difference(
    manager: BDDManager, left: Dict[str, BitVec], right: Dict[str, BitVec]
) -> Dict[str, Optional[Dict[str, bool]]]:
    """Per-observable witnesses of inequality (None where identical)."""
    from ..bdd import find_distinguishing_assignment

    witnesses: Dict[str, Optional[Dict[str, bool]]] = {}
    for name in left:
        if name not in right:
            witnesses[name] = {}
            continue
        if left[name].identical(right[name]):
            witnesses[name] = None
        else:
            witnesses[name] = find_distinguishing_assignment(
                manager, left[name].bits, right[name].bits
            )
    return witnesses
