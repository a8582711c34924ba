"""Instruction-set simulator with microarchitectural energy accounting.

The machine executes a program (list of :class:`Instruction`) and
accumulates energy the way the instrumented processors of [7] and [8]
dissipate it:

- per-instruction base activity (by opcode class),
- instruction-bus/decoder toggling between consecutive instructions,
- operand-dependent datapath toggling,
- data-cache misses (direct-mapped cache model) and load-use stalls.

It also records the characteristic profile of the run (instruction
mix, miss rate, stall rate) -- the inputs to profile-driven program
synthesis (Section II-A, bench C1) -- and the raw instruction-bus
trace used by cold scheduling (Section III-A, bench C13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.software.isa import (
    BASE_COSTS,
    BUS_TOGGLE_COST,
    OPCODES,
    OPERAND_TOGGLE_COST,
    OTHER_COSTS,
    Instruction,
    encode,
)
from repro.util.bits import popcount


@dataclass
class RunStats:
    """Outcome of one program execution."""

    cycles: int
    instructions: int
    energy: float
    class_counts: Dict[str, int]
    opcode_counts: Dict[str, int]
    pair_counts: Dict[Tuple[str, str], int]
    cache_misses: int
    cache_accesses: int
    stalls: int
    bus_toggles: int
    halted: bool

    @property
    def miss_rate(self) -> float:
        if self.cache_accesses == 0:
            return 0.0
        return self.cache_misses / self.cache_accesses

    @property
    def stall_rate(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.stalls / self.instructions

    def instruction_mix(self) -> Dict[str, float]:
        total = max(1, self.instructions)
        return {k: v / total for k, v in self.class_counts.items()}

    def energy_per_instruction(self) -> float:
        return self.energy / max(1, self.instructions)


#: Opcode kinds of a pre-decoded instruction.  The six ALU kinds come
#: first so one compare selects the operand-toggle path.
_KINDS: Dict[str, int] = {op: kind for kind, op in enumerate((
    "ADD", "SUB", "AND", "OR", "XOR", "MUL", "ADDI", "SLL", "LD", "ST",
    "BEQ", "BNE", "JMP", "HALT", "NOP"))}
(_ADD, _SUB, _AND, _OR, _XOR, _MUL, _ADDI, _SLL, _LD, _ST, _BEQ, _BNE,
 _JMP, _HALT, _NOP) = range(len(_KINDS))

#: C-level population count (``int.bit_count``, Python >= 3.10).
_bit_count = getattr(int, "bit_count", popcount)


def _decode(instr: Instruction) -> tuple:
    """One static instruction as the flat tuple ``run`` dispatches on."""
    return (_KINDS[instr.op], BASE_COSTS[instr.klass], encode(instr),
            instr.rd, instr.rs, instr.rt, instr.imm, _sext(instr.imm))


class Machine:
    """Simple in-order machine: 16 registers, word-addressed memory."""

    def __init__(self, memory_words: int = 4096, cache_lines: int = 16,
                 cache_line_words: int = 4) -> None:
        self.memory_words = memory_words
        self.cache_lines = cache_lines
        self.cache_line_words = cache_line_words
        self.registers = [0] * 16
        self.memory = [0] * memory_words

    def load_memory(self, base: int, values: List[int]) -> None:
        for i, v in enumerate(values):
            self.memory[base + i] = v & 0xFFFFFFFF

    def run(self, program: List[Instruction],
            max_instructions: int = 200_000) -> RunStats:
        """Execute ``program`` from pc 0 until HALT, a pc outside the
        program, or ``max_instructions`` executed instructions.

        Each static instruction is decoded once; the loop only counts
        control-flow edges ``(previous pc, pc)``, and the opcode, class
        and pair counts are rebuilt from them afterwards.
        """
        code = [_decode(instr) for instr in program]
        n = len(code)
        regs = self.registers
        memory = self.memory
        memory_words = self.memory_words
        line_words = self.cache_line_words
        lines = self.cache_lines
        tags = [-1] * lines          # direct-mapped data cache
        bus_cost = BUS_TOGGLE_COST
        operand_cost = OPERAND_TOGGLE_COST
        stall_cost = OTHER_COSTS["stall"]
        miss_cost = OTHER_COSTS["cache_miss"]
        mispredict_cost = OTHER_COSTS["branch_mispredict"]
        bit_count = _bit_count
        mask = 0xFFFFFFFF

        # edges[prev_pc * n + pc] counts executions of pc right after
        # prev_pc; the first instruction enters from prev_pc = -1.
        edges: Dict[int, int] = {}
        pc = 0
        prev_pc = -1
        prev_word = code[0][2] if code else 0   # first: no bus toggles
        prev_a = prev_b = 0
        load_rd = -1                 # destination of the previous LD
        energy = 0.0
        executed = 0
        extra_cycles = 0
        stalls = 0
        misses = 0
        accesses = 0
        bus_toggles = 0
        halted = False

        while 0 <= pc < n and executed < max_instructions:
            kind, base, word, rd, rs, rt, imm, simm = code[pc]
            executed += 1
            key = prev_pc * n + pc
            edges[key] = edges.get(key, 0) + 1

            # Base + circuit-state energy.
            energy += base
            toggles = bit_count(prev_word ^ word)
            bus_toggles += toggles
            energy += bus_cost * toggles
            prev_word = word

            # Load-use stall: previous LD's destination consumed now.
            if load_rd == rs or load_rd == rt:
                stalls += 1
                extra_cycles += 1
                energy += stall_cost
            load_rd = -1

            next_pc = pc + 1
            if kind <= _MUL:
                a = regs[rs]
                b = regs[rt]
                energy += operand_cost * (bit_count((prev_a ^ a) & mask)
                                          + bit_count((prev_b ^ b) & mask))
                prev_a = a
                prev_b = b
                if kind == _ADD:
                    regs[rd] = (a + b) & mask
                elif kind == _MUL:
                    regs[rd] = (a * b) & mask
                    extra_cycles += 1   # multiplier takes an extra cycle
                elif kind == _SUB:
                    regs[rd] = (a - b) & mask
                elif kind == _AND:
                    regs[rd] = a & b & mask
                elif kind == _OR:
                    regs[rd] = (a | b) & mask
                else:
                    regs[rd] = (a ^ b) & mask
            elif kind == _ADDI:
                regs[rd] = (regs[rs] + simm) & mask
            elif kind <= _ST:
                if kind == _SLL:
                    regs[rd] = (regs[rs] << (imm & 31)) & mask
                else:
                    address = (regs[rs] + simm) % memory_words
                    accesses += 1
                    block = address // line_words
                    line = block % lines
                    if tags[line] != block:
                        tags[line] = block
                        misses += 1
                        extra_cycles += 4
                        energy += miss_cost
                    if kind == _LD:
                        regs[rd] = memory[address]
                        load_rd = rd
                    else:
                        memory[address] = regs[rd]
            elif kind <= _BNE:
                if (regs[rd] == regs[rs]) == (kind == _BEQ):
                    next_pc = imm
                    # Static predict-not-taken: taken branches flush.
                    energy += mispredict_cost
                    extra_cycles += 1
            elif kind == _JMP:
                next_pc = imm
            elif kind == _HALT:
                halted = True
                break
            # NOP: nothing.
            regs[0] = 0              # r0 is hardwired: undo any write
            prev_pc = pc
            pc = next_pc

        # Counts per opcode, class and opcode pair, keyed in order of
        # first occurrence (edges iterate in first-traversal order).
        ops = [instr.op for instr in program]
        opcode_counts: Dict[str, int] = {}
        class_counts: Dict[str, int] = {}
        pair_counts: Dict[Tuple[str, str], int] = {}
        for key, count in edges.items():
            src, dst = divmod(key, n)
            op = ops[dst]
            opcode_counts[op] = opcode_counts.get(op, 0) + count
            klass = OPCODES[op][1]
            class_counts[klass] = class_counts.get(klass, 0) + count
            if src >= 0:
                pair = (ops[src], op)
                pair_counts[pair] = pair_counts.get(pair, 0) + count

        return RunStats(
            cycles=executed + extra_cycles,
            instructions=executed,
            energy=energy,
            class_counts=class_counts,
            opcode_counts=opcode_counts,
            pair_counts=pair_counts,
            cache_misses=misses,
            cache_accesses=accesses,
            stalls=stalls,
            bus_toggles=bus_toggles,
            halted=halted,
        )


def _sext(imm13: int) -> int:
    imm13 &= 0x1FFF
    return imm13 - 0x2000 if imm13 & 0x1000 else imm13
