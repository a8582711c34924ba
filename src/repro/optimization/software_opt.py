"""Software optimization for low power (Section III-A).

- :func:`cold_schedule` -- Su et al.'s cold scheduling [6]: a list
  scheduler over a basic block's data-dependence DAG that, among
  ready instructions, picks the one with the cheapest transition cost
  (instruction-bus Hamming distance) from the previously emitted
  instruction,
- :func:`energy_aware_selection` -- instruction selection between
  equivalent sequences by measured energy (the "modify the cost
  function of existing code optimizers" approach),
- memory-access minimization (Fig. 2) lives in
  :mod:`repro.software.programs` (``memory_unoptimized`` /
  ``memory_optimized``) and is exercised by bench F2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.software.isa import Instruction, encode, hamming32
from repro.software.machine import Machine


def dependence_dag(block: Sequence[Instruction]
                   ) -> Dict[int, Set[int]]:
    """index -> set of earlier indices it depends on (RAW/WAR/WAW).

    Memory operations are conservatively serialized among themselves.
    """
    deps: Dict[int, Set[int]] = {i: set() for i in range(len(block))}
    last_write: Dict[int, int] = {}
    last_reads: Dict[int, List[int]] = {}
    last_mem: Optional[int] = None
    for i, instr in enumerate(block):
        reads: List[int] = []
        writes: List[int] = []
        if instr.op in ("ADD", "SUB", "AND", "OR", "XOR", "MUL"):
            reads = [instr.rs, instr.rt]
            writes = [instr.rd]
        elif instr.op in ("ADDI", "SLL"):
            reads = [instr.rs]
            writes = [instr.rd]
        elif instr.op == "LD":
            reads = [instr.rs]
            writes = [instr.rd]
        elif instr.op == "ST":
            reads = [instr.rs, instr.rd]
        for r in reads:
            if r in last_write:
                deps[i].add(last_write[r])          # RAW
        for w in writes:
            if w in last_write:
                deps[i].add(last_write[w])          # WAW
            for reader in last_reads.get(w, []):
                deps[i].add(reader)                  # WAR
        if instr.op in ("LD", "ST"):
            if last_mem is not None:
                deps[i].add(last_mem)
            last_mem = i
        for w in writes:
            if w:   # r0 writes are no-ops
                last_write[w] = i
                last_reads[w] = []
        for r in reads:
            last_reads.setdefault(r, []).append(i)
        deps[i].discard(i)
    return deps


def bus_transition_cost(block: Sequence[Instruction]) -> int:
    """Total instruction-bus toggles of a straight-line block."""
    words = [encode(instr) for instr in block]
    return sum(hamming32(a, b) for a, b in zip(words, words[1:]))


def cold_schedule(block: Sequence[Instruction],
                  priority_window: int = 0) -> List[Instruction]:
    """Reorder a basic block to minimize instruction-bus switching.

    Greedy list scheduling: at each step, the ready instruction with
    the minimum Hamming distance from the previously emitted encoding
    is selected (ties to original order, preserving semantics via the
    dependence DAG).
    """
    deps = dependence_dag(block)
    words = [encode(instr) for instr in block]
    remaining = set(range(len(block)))
    emitted: List[Instruction] = []
    prev_word: Optional[int] = None
    while remaining:
        ready = [i for i in remaining
                 if not (deps[i] & remaining)]
        if not ready:      # pragma: no cover - DAG is acyclic
            raise RuntimeError("no ready instruction")

        def cost(i: int) -> Tuple[int, int]:
            toggles = hamming32(prev_word, words[i]) \
                if prev_word is not None else 0
            return (toggles, i)

        chosen = min(ready, key=cost)
        remaining.discard(chosen)
        emitted.append(block[chosen])
        prev_word = words[chosen]
    del priority_window
    return emitted


@dataclass
class ColdSchedulingReport:
    original_toggles: int
    scheduled_toggles: int
    original_energy: float
    scheduled_energy: float
    equivalent: bool

    @property
    def toggle_reduction(self) -> float:
        if self.original_toggles == 0:
            return 0.0
        return 1.0 - self.scheduled_toggles / self.original_toggles


def evaluate_cold_scheduling(block: Sequence[Instruction],
                             check_registers: Sequence[int] = range(1, 16),
                             memory_init: Optional[Sequence[int]] = None
                             ) -> ColdSchedulingReport:
    """Reorder, verify architectural equivalence, and measure energy."""
    block = list(block)
    scheduled = cold_schedule(block)

    def run(program: Sequence[Instruction]) -> Tuple[Machine, object]:
        machine = Machine()
        if memory_init:
            machine.load_memory(0, list(memory_init))
        stats = machine.run(list(program) + [Instruction("HALT")])
        return machine, stats

    m1, s1 = run(block)
    m2, s2 = run(scheduled)
    equivalent = all(m1.registers[r] == m2.registers[r]
                     for r in check_registers) \
        and m1.memory == m2.memory
    return ColdSchedulingReport(
        original_toggles=bus_transition_cost(block),
        scheduled_toggles=bus_transition_cost(scheduled),
        original_energy=s1.energy,
        scheduled_energy=s2.energy,
        equivalent=equivalent,
    )


def energy_aware_selection(alternatives: Sequence[Sequence[Instruction]],
                           memory_init: Optional[Sequence[int]] = None
                           ) -> Tuple[int, List[float]]:
    """Pick the lowest-energy equivalent instruction sequence.

    Returns (winner index, per-alternative energies).  Callers are
    responsible for the alternatives' semantic equivalence (that is
    the code generator's contract); the tests verify it for the
    shipped examples.
    """
    energies: List[float] = []
    for alt in alternatives:
        machine = Machine()
        if memory_init:
            machine.load_memory(0, list(memory_init))
        stats = machine.run(list(alt) + [Instruction("HALT")])
        energies.append(stats.energy)
    winner = min(range(len(energies)), key=lambda i: energies[i])
    return winner, energies


def multiply_by_constant_alternatives(src: int, dst: int, constant: int,
                                      scratch: int = 15
                                      ) -> List[List[Instruction]]:
    """MUL-immediate vs shift-add expansions of  dst = src * constant.

    The classic strength-reduction choice, at the instruction level.
    """
    I = Instruction
    mul_version = [
        I("ADDI", rd=scratch, rs=0, imm=constant),
        I("MUL", rd=dst, rs=src, rt=scratch),
    ]
    from repro.cdfg.transforms import csd_digits

    shift_version: List[Instruction] = []
    first = True
    for shift, sign in csd_digits(constant):
        term_reg = scratch if not first else dst
        if shift == 0:
            shift_version.append(I("ADD", rd=term_reg, rs=src, rt=0))
        else:
            shift_version.append(I("SLL", rd=term_reg, rs=src, imm=shift))
        if first:
            if sign < 0:
                shift_version.append(I("SUB", rd=dst, rs=0, rt=dst))
            first = False
        else:
            if sign > 0:
                shift_version.append(I("ADD", rd=dst, rs=dst, rt=scratch))
            else:
                shift_version.append(I("SUB", rd=dst, rs=dst,
                                       rt=scratch))
    if constant == 0:
        shift_version = [I("ADD", rd=dst, rs=0, rt=0)]
    return [mul_version, shift_version]
