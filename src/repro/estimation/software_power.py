"""Software-level power estimation (Section II-A).

Two techniques:

- :class:`TiwariModel` -- the instruction-level model of [7]:
  Energy = sum BC_i N_i + sum SC_ij N_ij + sum OC_k, with base and
  circuit-state costs measured by running characterization loops on
  the machine (the "actual current measurements" of the paper), and
  other-effect costs per stall and cache miss,
- :func:`synthesize_profile_program` -- profile-driven program
  synthesis [8]: extract the characteristic profile of a long trace
  (instruction mix, miss rate, stall rate) and heuristically grow a
  much shorter program whose profile matches, so that energy per
  instruction agrees while simulation cost drops by orders of
  magnitude (bench C1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.software.isa import Instruction, OPCODES
from repro.software.machine import Machine, RunStats

I = Instruction


@dataclass
class TiwariModel:
    """Instruction-level energy model with measured coefficients."""

    base_costs: Dict[str, float] = field(default_factory=dict)
    pair_costs: Dict[Tuple[str, str], float] = field(default_factory=dict)
    stall_cost: float = 0.0
    miss_cost: float = 0.0

    # -- characterization ------------------------------------------------
    @classmethod
    def characterize(cls, opcodes: Optional[Sequence[str]] = None,
                     loop_length: int = 400) -> "TiwariModel":
        """Measure BC_i and SC_ij by running synthetic loops.

        BC_i: energy/instruction of a long homogeneous block of i.
        SC_ij: extra energy of an alternating i,j block beyond the
        average of the base costs.  Stall and miss costs are measured
        from targeted microbenchmarks.
        """
        opcodes = list(opcodes or
                       [op for op in OPCODES if op != "HALT"])
        model = cls()
        for op in opcodes:
            block = [_neutral(op, k) for k in range(loop_length)]
            block.append(I("HALT"))
            stats = _run_block(block)
            model.base_costs[op] = (stats.energy
                                    / max(1, stats.instructions - 1))
        for a in opcodes:
            for b in opcodes:
                if a >= b:
                    continue
                block: List[Instruction] = []
                for k in range(loop_length // 2):
                    block.append(_neutral(a, k))
                    block.append(_neutral(b, k))
                block.append(I("HALT"))
                stats = _run_block(block)
                per_instr = stats.energy / max(1, stats.instructions - 1)
                base_avg = 0.5 * (model.base_costs[a]
                                  + model.base_costs[b])
                model.pair_costs[(a, b)] = max(0.0, per_instr - base_avg)
                model.pair_costs[(b, a)] = model.pair_costs[(a, b)]
        # Other effects: measured microbenchmarks.
        model.stall_cost = _measure_stall_cost()
        model.miss_cost = _measure_miss_cost()
        return model

    # -- estimation --------------------------------------------------
    def estimate(self, stats: RunStats) -> float:
        """Energy from execution counts only (no re-simulation)."""
        energy = 0.0
        for op, count in stats.opcode_counts.items():
            energy += self.base_costs.get(op, 0.0) * count
        for (a, b), count in stats.pair_counts.items():
            if a != b:
                energy += self.pair_costs.get((a, b), 0.0) * count
        energy += self.stall_cost * stats.stalls
        energy += self.miss_cost * stats.cache_misses
        return energy

    def relative_error(self, stats: RunStats) -> float:
        if stats.energy == 0:
            return 0.0
        return abs(self.estimate(stats) - stats.energy) / stats.energy


def _run_block(block: List[Instruction]) -> RunStats:
    """Run one characterization block; it must reach its HALT.

    r4 starts nonzero so that BEQ's neutral form is never taken; no
    other neutral instruction reads r4.
    """
    machine = Machine()
    machine.registers[4] = 1
    stats = machine.run(block)
    if not stats.halted:
        raise RuntimeError(
            f"characterization block starting with {block[0].op} did "
            f"not halt within {stats.instructions} instructions")
    return stats


def _neutral(op: str, k: int) -> Instruction:
    """An instance of ``op`` safe to run in a straight-line loop
    (on a machine prepared by :func:`_run_block`)."""
    if op in ("LD", "ST"):
        return I(op, rd=1, rs=0, imm=(k * 7) % 64)
    if op == "ADDI":
        return I(op, rd=2, rs=2, imm=1)
    if op == "SLL":
        return I(op, rd=2, rs=3, imm=1)
    if op in ("BEQ", "BNE"):
        # Never-taken branch: r1 vs r1 for BNE; r1 (always 0) vs r4
        # (nonzero, see _run_block) for BEQ.
        if op == "BNE":
            return I(op, rd=1, rs=1, imm=0)
        return I(op, rd=1, rs=4, imm=0)
    if op == "JMP":
        # Encoded as fall-through jump to the next address is not
        # expressible; model JMP's base cost with NOP-class energy.
        return I("NOP")
    if op in ("ADD", "SUB", "AND", "OR", "XOR", "MUL"):
        return I(op, rd=3, rs=5, rt=6)
    return I(op)


def _measure_stall_cost() -> float:
    """Energy delta of a load-use stall (paired microbenchmarks)."""
    stalled = Machine().run([
        I("LD", rd=1, rs=0, imm=0),
        I("ADD", rd=2, rs=1, rt=1),
        I("HALT"),
    ])
    padded = Machine().run([
        I("LD", rd=1, rs=0, imm=0),
        I("ADD", rd=2, rs=3, rt=3),
        I("HALT"),
    ])
    return max(0.0, stalled.energy - padded.energy)


def _measure_miss_cost() -> float:
    """Energy delta between a missing and a hitting load."""
    missing = Machine().run([
        I("LD", rd=1, rs=0, imm=0),
        I("LD", rd=1, rs=0, imm=512),   # distinct line: miss
        I("HALT"),
    ])
    hitting = Machine().run([
        I("LD", rd=1, rs=0, imm=0),
        I("LD", rd=1, rs=0, imm=1),     # same line: hit
        I("HALT"),
    ])
    return max(0.0, missing.energy - hitting.energy)


# ----------------------------------------------------------------------
# Profile-driven program synthesis (Hsieh et al. [8])
# ----------------------------------------------------------------------

@dataclass
class CharacteristicProfile:
    """The profile extracted from an architectural simulation."""

    instruction_mix: Dict[str, float]
    miss_rate: float
    stall_rate: float
    instructions: int

    @classmethod
    def from_stats(cls, stats: RunStats) -> "CharacteristicProfile":
        return cls(stats.instruction_mix(), stats.miss_rate,
                   stats.stall_rate, stats.instructions)


def extract_profile(program: Sequence[Instruction],
                    machine: Optional[Machine] = None
                    ) -> CharacteristicProfile:
    machine = machine or Machine()
    return CharacteristicProfile.from_stats(machine.run(list(program)))


def synthesize_profile_program(profile: CharacteristicProfile,
                               length: int = 400,
                               seed: int = 0) -> List[Instruction]:
    """Grow a short program matching a characteristic profile.

    Heuristic stand-in for the paper's MILP + rules: draw instruction
    classes from the target mix, then steer memory addresses so the
    synthesized miss rate approaches the target (sequential addresses
    hit; strided addresses past the cache size miss), and insert
    load-use pairs to match the stall rate.
    """
    rng = random.Random(seed)
    mix = dict(profile.instruction_mix)
    mix.pop("branch", None)   # straight-line synthesis
    total = sum(mix.values()) or 1.0
    classes = list(mix)
    weights = [mix[c] / total for c in classes]

    ops_by_class = {
        "alu": ["ADD", "SUB", "AND", "OR", "XOR"],
        "alui": ["ADDI"],
        "mul": ["MUL"],
        "mem": ["LD", "ST"],
        "nop": ["NOP"],
    }
    program: List[Instruction] = []
    mem_seen = 0
    target_misses = profile.miss_rate
    miss_stride = 512     # far apart -> always a fresh line
    hit_base = 0
    stalls_wanted = profile.stall_rate * length
    stalls_made = 0
    misses_made = 0
    for k in range(length):
        klass = rng.choices(classes, weights)[0]
        op = rng.choice(ops_by_class.get(klass, ["NOP"]))
        if op in ("LD", "ST"):
            mem_seen += 1
            want_miss = misses_made < target_misses * mem_seen
            if want_miss:
                address = (misses_made * miss_stride + 64) % 4000
                misses_made += 1
            else:
                address = hit_base
            program.append(I(op, rd=1, rs=0, imm=address))
            if op == "LD" and stalls_made < stalls_wanted:
                program.append(I("ADD", rd=2, rs=1, rt=1))
                stalls_made += 1
        elif op == "ADDI":
            program.append(I(op, rd=2, rs=2, imm=1))
        elif op == "NOP":
            program.append(I("NOP"))
        else:
            program.append(I(op, rd=3, rs=5, rt=6))
    program.append(I("HALT"))
    return program


@dataclass
class ProfileSynthesisReport:
    """Outcome of the C1 experiment for one workload."""

    original_instructions: int
    synthesized_instructions: int
    original_epi: float           # energy per instruction
    synthesized_epi: float

    @property
    def compaction(self) -> float:
        return self.original_instructions / max(
            1, self.synthesized_instructions)

    @property
    def epi_error(self) -> float:
        if self.original_epi == 0:
            return 0.0
        return abs(self.synthesized_epi - self.original_epi) \
            / self.original_epi


def profile_synthesis_experiment(program: Sequence[Instruction],
                                 synthesized_length: int = 400,
                                 seed: int = 0) -> ProfileSynthesisReport:
    """Run the full C1 flow for one application program."""
    original = Machine().run(list(program))
    profile = CharacteristicProfile.from_stats(original)
    short = synthesize_profile_program(profile, synthesized_length, seed)
    synth = Machine().run(short)
    return ProfileSynthesisReport(
        original_instructions=original.instructions,
        synthesized_instructions=synth.instructions,
        original_epi=original.energy_per_instruction(),
        synthesized_epi=synth.energy_per_instruction(),
    )
