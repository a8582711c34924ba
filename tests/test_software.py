"""Tests for the ISA, machine, and program kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.software import (
    Instruction,
    Machine,
    dot_product,
    encode,
    fir_program,
    memory_optimized,
    memory_unoptimized,
    random_program,
)
from repro.software.isa import OPCODES, hamming32
from repro.software.machine import _sext

I = Instruction

#: Loop that exercises every control path: a taken and a not-taken
#: BEQ, JMP, a load-use stall, SLL/ST/MUL on large values.  It never
#: halts, so ``max_instructions`` cuts it mid-iteration.
_BRANCH_LOOP = [
    I("ADDI", rd=2, rs=0, imm=3),
    I("ADDI", rd=1, rs=1, imm=1),       # pc=1
    I("LD", rd=4, rs=1, imm=100),
    I("ADD", rd=5, rs=4, rt=1),
    I("BEQ", rd=1, rs=2, imm=7),
    I("JMP", imm=1),
    I("HALT"),
    I("ADDI", rd=1, rs=0, imm=0),       # pc=7
    I("SLL", rd=6, rs=5, imm=2),
    I("ST", rd=6, rs=1, imm=200),
    I("MUL", rd=7, rs=6, rt=2),
    I("JMP", imm=1),
]

_RANDOM_DATA = {0: [(i * 2654435761) & 0xFFFFFFFF for i in range(512)]}


def _golden_case(name):
    """name -> (program, memory image, max_instructions)."""
    fig2_data = {0: [k * 5 + 1 for k in range(6)]}
    return {
        "dot_product": (dot_product(6), {0: [3, 1, 4, 1, 5, 9],
                                         1024: [2, 7, 1, 8, 2, 8]},
                        200_000),
        "fir_program": (fir_program([2, 3, 1], 5),
                        {0: [k * 37 % 101 for k in range(8)],
                         3000: [2, 3, 1]}, 200_000),
        "memory_unoptimized": (memory_unoptimized(6), fig2_data, 200_000),
        "memory_optimized": (memory_optimized(6), fig2_data, 200_000),
        "random_0": (random_program(24, seed=0), _RANDOM_DATA, 200_000),
        "random_1": (random_program(24, seed=1), _RANDOM_DATA, 200_000),
        "random_2": (random_program(24, seed=2), _RANDOM_DATA, 200_000),
        "branch_loop_cut": (_BRANCH_LOOP, {100: [0xFFFF0000, 7, 0x1234]},
                            37),
    }[name]


#: name -> (energy.hex(), (cycles, instructions, cache_misses,
#: cache_accesses, stalls, bus_toggles, halted), memory checksum,
#: opcode_counts, class_counts, pair_counts, registers).  Counts are
#: written ``key:count`` in the dict's insertion order, which
#: ``TiwariModel.estimate`` sums in.
_GOLDEN = {
    "dot_product": (
        "0x1.1f35c28f5c28ep+7", (105, 40, 12, 12, 6, 301, True),
        28881,
        "ADDI:9 LD:12 MUL:6 ADD:6 BNE:6 HALT:1",
        "alui:9 mem:12 mul:6 alu:6 branch:6 nop:1",
        "ADDI>ADDI:2 ADDI>LD:1 LD>LD:6 LD>MUL:6 MUL>ADD:6 ADD>ADDI:6 "
        "ADDI>BNE:6 BNE>LD:5 BNE>HALT:1",
        [0, 107, 6, 6, 9, 8, 72, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "fir_program": (
        "0x1.bf828f5c28f58p+7", (161, 83, 11, 35, 15, 815, True),
        2741660,
        "ADDI:12 LD:30 MUL:15 ADD:15 ST:5 BNE:5 HALT:1",
        "alui:12 mem:35 mul:15 alu:15 branch:5 nop:1",
        "ADDI>ADDI:2 ADDI>LD:5 LD>LD:15 LD>MUL:15 MUL>ADD:15 ADD>LD:10 "
        "ADD>ST:5 ST>ADDI:5 ADDI>BNE:5 BNE>ADDI:4 BNE>HALT:1",
        [0, 366, 5, 5, 20, 1, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "memory_unoptimized": (
        "0x1.d65c28f5c28ebp+7", (174, 64, 22, 24, 12, 471, True),
        446987,
        "ADDI:21 LD:12 ST:12 BNE:12 ADD:6 HALT:1",
        "alui:21 mem:24 branch:12 alu:6 nop:1",
        "ADDI>ADDI:1 ADDI>LD:2 LD>ADDI:6 ADDI>ST:6 ST>ADDI:12 "
        "ADDI>BNE:12 BNE>LD:10 BNE>ADDI:1 LD>ADD:6 ADD>ST:6 BNE>HALT:1",
        [0, 0, 6, 6, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "memory_optimized": (
        "0x1.048f5c28f5c2ap+7", (98, 39, 12, 12, 6, 251, True),
        357507,
        "ADDI:14 LD:6 ADD:6 ST:6 BNE:6 HALT:1",
        "alui:14 mem:12 alu:6 branch:6 nop:1",
        "ADDI>ADDI:1 ADDI>LD:1 LD>ADDI:6 ADDI>ADD:6 ADD>ST:6 ST>ADDI:6 "
        "ADDI>BNE:6 BNE>LD:5 BNE>HALT:1",
        [0, 0, 6, 6, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "random_0": (
        "0x1.b751eb851eb83p+6", (75, 25, 12, 12, 1, 225, True),
        278736183220323,
        "ST:6 ADD:2 AND:2 LD:6 XOR:1 NOP:1 ADDI:3 MUL:1 SUB:2 HALT:1",
        "mem:12 alu:7 nop:2 alui:3 mul:1",
        "ST>ST:2 ST>ADD:1 ADD>ADD:1 ADD>AND:1 AND>ST:1 ST>LD:1 LD>LD:3 "
        "LD>ST:1 ST>XOR:1 XOR>NOP:1 NOP>ADDI:1 ADDI>ADDI:1 ADDI>ST:1 "
        "ST>MUL:1 MUL>ADDI:1 ADDI>SUB:1 SUB>LD:2 LD>AND:1 AND>SUB:1 "
        "LD>HALT:1",
        [0, 1718615642, 1654719049, 33, 1100230022, 3824508201, 0, 0,
         0, 0, 3824508201, 2641096011, 33, 1844960718, 0,
         2823943735]),
    "random_1": (
        "0x1.1bfae147ae148p+6", (50, 25, 6, 6, 0, 269, True),
        280462950624979,
        "ADD:3 ADDI:4 ST:3 LD:3 XOR:4 SUB:2 AND:2 OR:2 MUL:1 HALT:1",
        "alu:13 alui:4 mem:6 mul:1 nop:1",
        "ADD>ADDI:1 ADDI>ST:2 ST>LD:1 LD>XOR:1 XOR>LD:2 LD>SUB:1 "
        "SUB>XOR:1 XOR>AND:1 AND>OR:1 OR>OR:1 OR>XOR:1 XOR>ADDI:1 "
        "ADDI>SUB:1 SUB>ADDI:1 ADDI>ADDI:1 ST>XOR:1 LD>ADD:1 ADD>ST:1 "
        "ST>ADD:1 ADD>MUL:1 MUL>AND:1 AND>HALT:1",
        [0, 0, 0, 37, 0, 0, 0, 0, 0, 1317998965, 683129967, 0, 0, 0,
         0, 0]),
    "random_2": (
        "0x1.230a3d70a3d71p+6", (53, 25, 7, 7, 0, 231, True),
        280956662609522,
        "NOP:3 ST:4 LD:3 XOR:1 AND:4 OR:2 ADDI:3 SUB:3 ADD:1 HALT:1",
        "nop:4 mem:7 alu:11 alui:3",
        "NOP>ST:1 ST>NOP:1 NOP>LD:1 LD>XOR:1 XOR>AND:1 AND>NOP:1 "
        "NOP>OR:1 OR>ADDI:1 ADDI>ADDI:1 ADDI>ST:1 ST>ST:1 ST>LD:1 "
        "LD>SUB:1 SUB>SUB:1 SUB>AND:1 AND>ADD:1 ADD>SUB:1 SUB>ADDI:1 "
        "ADDI>OR:1 OR>ST:1 ST>AND:1 AND>LD:1 LD>AND:1 AND>HALT:1",
        [0, 44, 0, 14, 0, 0, 1783359989, 0, 34, 177749663, 0, 0, 0, 0,
         0, 0]),
    "branch_loop_cut": (
        "0x1.08d70a3d70a3cp+6", (54, 37, 2, 8, 6, 271, False),
        433785560866,
        "ADDI:9 LD:6 ADD:6 BEQ:6 JMP:5 SLL:2 ST:2 MUL:1",
        "alui:9 mem:8 alu:8 branch:11 mul:1",
        "ADDI>ADDI:1 ADDI>LD:6 LD>ADD:6 ADD>BEQ:6 BEQ>JMP:4 JMP>ADDI:5 "
        "BEQ>ADDI:2 ADDI>SLL:2 SLL>ST:2 ST>MUL:1 MUL>JMP:1",
        [0, 0, 3, 0, 0, 3, 12, 36, 0, 0, 0, 0, 0, 0, 0, 0]),
}


def _counts(text):
    return [(key, int(n)) for key, n in
            (item.rsplit(":", 1) for item in text.split())]


class TestIsa:
    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            Instruction("FROB")

    def test_register_range(self):
        with pytest.raises(ValueError):
            Instruction("ADD", rd=16)

    def test_encodings_distinct(self):
        words = {encode(I(op)) for op in OPCODES}
        assert len(words) == len(OPCODES)

    def test_encoding_fields(self):
        word = encode(I("ADDI", rd=3, rs=5, imm=9))
        assert word & 0x1FFF == 9
        assert (word >> 21) & 0xF == 3

    def test_hamming(self):
        assert hamming32(0, 0b1011) == 3
        assert hamming32(0xFFFFFFFF, 0) == 32

    def test_sext(self):
        assert _sext(0x0005) == 5
        assert _sext(0x1FFF) == -1
        assert _sext(0x1000) == -4096


class TestMachine:
    def test_arithmetic(self):
        m = Machine()
        stats = m.run([
            I("ADDI", rd=1, rs=0, imm=6),
            I("ADDI", rd=2, rs=0, imm=7),
            I("MUL", rd=3, rs=1, rt=2),
            I("HALT"),
        ])
        assert m.registers[3] == 42
        assert stats.halted

    def test_r0_hardwired(self):
        m = Machine()
        m.run([I("ADDI", rd=0, rs=0, imm=9), I("HALT")])
        assert m.registers[0] == 0

    def test_load_store(self):
        m = Machine()
        m.load_memory(100, [11, 22])
        m.run([
            I("LD", rd=1, rs=0, imm=100),
            I("LD", rd=2, rs=0, imm=101),
            I("ADD", rd=3, rs=1, rt=2),
            I("ST", rd=3, rs=0, imm=102),
            I("HALT"),
        ])
        assert m.memory[102] == 33

    def test_branch_loop(self):
        m = Machine()
        # sum 1..5 in r1
        stats = m.run([
            I("ADDI", rd=1, rs=0, imm=0),
            I("ADDI", rd=2, rs=0, imm=0),
            I("ADDI", rd=3, rs=0, imm=5),
            I("ADDI", rd=2, rs=2, imm=1),       # pc=3
            I("ADD", rd=1, rs=1, rt=2),
            I("BNE", rd=2, rs=3, imm=3),
            I("HALT"),
        ])
        assert m.registers[1] == 15
        assert stats.halted

    def test_dot_product_correct(self):
        m = Machine()
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        m.load_memory(0, a)
        m.load_memory(1024, b)
        m.run(dot_product(4))
        assert m.registers[1] == sum(x * y for x, y in zip(a, b))

    def test_fir_program_correct(self):
        m = Machine()
        xs = list(range(1, 11))
        taps = [2, 3]
        m.load_memory(0, xs)
        m.load_memory(3000, taps)
        m.run(fir_program(taps, 6))
        for i in range(6):
            assert m.memory[2048 + i] == 2 * xs[i] + 3 * xs[i + 1]

    def test_energy_components_positive(self):
        m = Machine()
        stats = m.run(dot_product(16))
        assert stats.energy > 0
        assert stats.cycles >= stats.instructions
        assert stats.cache_accesses > 0
        assert stats.bus_toggles > 0

    def test_cache_miss_behaviour(self):
        # Sequential access: 1 miss per line of 4 words.
        m = Machine(cache_lines=16, cache_line_words=4)
        program = []
        for i in range(32):
            program.append(I("LD", rd=1, rs=0, imm=i))
        program.append(I("HALT"))
        stats = m.run(program)
        assert stats.cache_misses == 8
        assert stats.cache_accesses == 32

    def test_load_use_stall(self):
        m = Machine()
        with_stall = m.run([
            I("LD", rd=1, rs=0, imm=0),
            I("ADD", rd=2, rs=1, rt=1),
            I("HALT"),
        ])
        m2 = Machine()
        without = m2.run([
            I("LD", rd=1, rs=0, imm=0),
            I("NOP"),
            I("ADD", rd=2, rs=1, rt=1),
            I("HALT"),
        ])
        assert with_stall.stalls == 1
        assert without.stalls == 0

    def test_mul_class_costs_more(self):
        muls = [I("MUL", rd=1, rs=2, rt=3)] * 50 + [I("HALT")]
        adds = [I("ADD", rd=1, rs=2, rt=3)] * 50 + [I("HALT")]
        e_mul = Machine().run(muls).energy
        e_add = Machine().run(adds).energy
        assert e_mul > e_add

    def test_profile_fields(self):
        stats = Machine().run(dot_product(8))
        mix = stats.instruction_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert 0 <= stats.miss_rate <= 1
        assert 0 <= stats.stall_rate <= 1

    def test_max_instructions_guard(self):
        # Infinite loop terminates at the fuel limit.
        stats = Machine().run([I("JMP", imm=0)], max_instructions=100)
        assert stats.instructions == 100
        assert not stats.halted


class TestGoldenRunStats:
    """``Machine.run`` reproduces pinned RunStats bit for bit."""

    @pytest.mark.parametrize("name", list(_GOLDEN))
    def test_bit_identical(self, name):
        program, memory, max_instructions = _golden_case(name)
        machine = Machine()
        for base, values in memory.items():
            machine.load_memory(base, values)
        stats = machine.run(program, max_instructions=max_instructions)
        energy, fields, memsum, ops, classes, pairs, regs = _GOLDEN[name]
        assert stats.energy.hex() == energy
        assert (stats.cycles, stats.instructions, stats.cache_misses,
                stats.cache_accesses, stats.stalls, stats.bus_toggles,
                stats.halted) == fields
        assert list(stats.opcode_counts.items()) == _counts(ops)
        assert list(stats.class_counts.items()) == _counts(classes)
        assert list(stats.pair_counts.items()) == [
            (tuple(key.split(">")), n) for key, n in _counts(pairs)]
        assert machine.registers == regs
        assert sum((i + 1) * v
                   for i, v in enumerate(machine.memory)) == memsum


@st.composite
def _branchy_programs(draw):
    """Any opcode, any registers; BEQ/BNE/JMP target an instruction of
    the program, so loops are common and HALT may never come."""
    length = draw(st.integers(1, 24))
    regs = st.integers(0, 15)
    program = []
    for _ in range(length):
        op = draw(st.sampled_from(sorted(OPCODES)))
        if op in ("BEQ", "BNE", "JMP"):
            imm = draw(st.integers(0, length - 1))
        else:
            imm = draw(st.integers(0, 0x1FFF))
        program.append(I(op, rd=draw(regs), rs=draw(regs),
                         rt=draw(regs), imm=imm))
    return program, draw(st.integers(1, 400))


class TestRunInvariants:
    @given(_branchy_programs())
    @settings(max_examples=150, deadline=None)
    def test_counts_consistent(self, case):
        program, max_instructions = case
        stats = Machine().run(program, max_instructions=max_instructions)
        n = stats.instructions
        assert n <= max_instructions
        assert stats.cycles >= n
        assert sum(stats.opcode_counts.values()) == n
        assert sum(stats.pair_counts.values()) == max(0, n - 1)
        by_class = {}
        for op, count in stats.opcode_counts.items():
            klass = OPCODES[op][1]
            by_class[klass] = by_class.get(klass, 0) + count
        assert stats.class_counts == by_class


class TestFig2Memory:
    def test_same_result(self):
        n = 32
        data = [i * 3 % 17 for i in range(n)]
        m1 = Machine()
        m1.load_memory(0, data)
        m1.run(memory_unoptimized(n))
        m2 = Machine()
        m2.load_memory(0, data)
        m2.run(memory_optimized(n))
        assert m1.memory[2048:2048 + n] == m2.memory[2048:2048 + n]

    def test_optimized_halves_memory_traffic(self):
        n = 64
        m1 = Machine()
        s1 = m1.run(memory_unoptimized(n))
        m2 = Machine()
        s2 = m2.run(memory_optimized(n))
        # Unoptimized: 3n accesses (+2n for b); optimized: 2n.
        assert s1.cache_accesses == 4 * n
        assert s2.cache_accesses == 2 * n
        assert s2.energy < s1.energy


class TestRandomPrograms:
    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_random_program_runs_to_halt(self, seed):
        program = random_program(100, seed=seed)
        stats = Machine().run(program)
        assert stats.halted
        assert stats.instructions == 101

    def test_mix_is_respected(self):
        mix = {"alu": 0.8, "mem": 0.2}
        program = random_program(2000, mix=mix, seed=1)
        stats = Machine().run(program)
        got = stats.instruction_mix()
        assert got.get("alu", 0) == pytest.approx(0.8, abs=0.05)
        assert got.get("mem", 0) == pytest.approx(0.2, abs=0.05)
