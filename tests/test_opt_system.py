"""Tests for shutdown policies, bus encoding, and software optimization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimization.shutdown import (
    AlwaysOnPolicy,
    HwangWuPolicy,
    OraclePolicy,
    SrivastavaHeuristicPolicy,
    SrivastavaRegressionPolicy,
    StaticTimeoutPolicy,
    Workload,
    breakeven_time,
    generate_workload,
    simulate_policy,
)
from repro.optimization.bus_encoding import (
    BeachCode,
    BinaryCode,
    BusInvertCode,
    GrayCode,
    T0BusInvertCode,
    T0Code,
    WorkingZoneCode,
    correlated_block_addresses,
    count_transitions,
    from_gray,
    hamming,
    interleaved_array_addresses,
    random_addresses,
    sequential_addresses,
    to_gray,
)
from repro.optimization.software_opt import (
    bus_transition_cost,
    cold_schedule,
    dependence_dag,
    energy_aware_selection,
    evaluate_cold_scheduling,
    multiply_by_constant_alternatives,
)
from repro.rtl.streams import WordStream
from repro.software import Instruction, Machine, random_program

I = Instruction


class TestWorkloads:
    def test_workload_bound(self):
        w = Workload([(10.0, 90.0), (10.0, 90.0)])
        assert w.shutdown_upper_bound() == pytest.approx(10.0)

    def test_generated_workload_shape(self):
        w = generate_workload(100, seed=1)
        assert len(w.periods) == 100
        assert w.total_idle > w.total_active  # idle-dominated


class TestPolicies:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(300, seed=2)

    def _run(self, workload, policy):
        return simulate_policy(workload, policy)

    def test_always_on_is_baseline(self, workload):
        report = self._run(workload, AlwaysOnPolicy())
        assert report.improvement == pytest.approx(1.0)
        assert report.sleeps == 0
        assert report.latency_penalty == 0.0

    def test_oracle_bounded_by_theory(self, workload):
        be = breakeven_time()
        report = self._run(workload, OraclePolicy(be))
        assert 1.0 < report.improvement < workload.shutdown_upper_bound() \
            * (1.0 / 0.8) + 1e-9

    def test_static_timeout_improves(self, workload):
        report = self._run(workload, StaticTimeoutPolicy(timeout=20.0))
        assert report.improvement > 1.0
        assert report.sleeps > 0

    def test_smaller_timeout_sleeps_more(self, workload):
        small = self._run(workload, StaticTimeoutPolicy(5.0))
        large = self._run(workload, StaticTimeoutPolicy(80.0))
        assert small.sleeps >= large.sleeps

    def test_predictive_beats_static(self, workload):
        """The paper's core claim: predictive > static timeout."""
        be = breakeven_time()
        static = self._run(workload, StaticTimeoutPolicy(2 * be))
        regression = self._run(workload, SrivastavaRegressionPolicy(be))
        hwang = self._run(workload, HwangWuPolicy(be))
        assert regression.improvement > static.improvement
        assert hwang.improvement > static.improvement

    def test_heuristic_policy_improves(self, workload):
        report = self._run(workload, SrivastavaHeuristicPolicy())
        assert report.improvement > 1.0

    def test_oracle_dominates_all(self, workload):
        be = breakeven_time()
        oracle = self._run(workload, OraclePolicy(be))
        for policy in (StaticTimeoutPolicy(be), HwangWuPolicy(be),
                       SrivastavaRegressionPolicy(be),
                       SrivastavaHeuristicPolicy()):
            assert oracle.improvement >= \
                self._run(workload, policy).improvement - 1e-9

    def test_prewakeup_cuts_latency(self, workload):
        be = breakeven_time()
        with_pre = self._run(workload, HwangWuPolicy(be, prewakeup=True))
        without = self._run(workload, HwangWuPolicy(be, prewakeup=False))
        assert with_pre.latency_penalty < without.latency_penalty

    def test_latency_penalty_small(self, workload):
        be = breakeven_time()
        report = self._run(workload, HwangWuPolicy(be))
        assert report.latency_penalty < 0.10  # paper quotes ~3%


class TestGrayHelpers:
    @given(st.integers(0, 4095))
    @settings(max_examples=60, deadline=None)
    def test_gray_roundtrip(self, value):
        assert from_gray(to_gray(value)) == value

    @given(st.integers(0, 4094))
    @settings(max_examples=60, deadline=None)
    def test_gray_adjacent(self, value):
        assert hamming(to_gray(value), to_gray(value + 1)) == 1


class TestBusCodes:
    WIDTH = 8

    def _codes(self):
        return [BinaryCode(self.WIDTH), BusInvertCode(self.WIDTH),
                GrayCode(self.WIDTH), T0Code(self.WIDTH),
                T0BusInvertCode(self.WIDTH),
                WorkingZoneCode(self.WIDTH, n_zones=2, offset_bits=4)]

    @pytest.mark.parametrize("stream_fn,kwargs", [
        (sequential_addresses, {}),
        (random_addresses, {"seed": 3}),
        (interleaved_array_addresses, {"seed": 4, "base_stride": 64}),
        (correlated_block_addresses, {"seed": 5}),
    ])
    def test_all_codes_decode_correctly(self, stream_fn, kwargs):
        stream = stream_fn(self.WIDTH, 300, **kwargs)
        for code in self._codes():
            count_transitions(code, stream, check_decode=True)

    def test_beach_decodes_after_training(self):
        stream = correlated_block_addresses(self.WIDTH, 400, seed=6)
        beach = BeachCode(self.WIDTH)
        beach.train(stream.words[:200])
        count_transitions(beach, stream, check_decode=True)

    def test_bus_invert_guarantee(self):
        """Never more than N/2 + 1 line transitions per cycle."""
        stream = random_addresses(self.WIDTH, 500, seed=7)
        code = BusInvertCode(self.WIDTH)
        code.reset()
        prev = None
        for word in stream.words:
            value = code.encode(word)
            if prev is not None:
                assert hamming(prev, value) <= self.WIDTH // 2 + 1
            prev = value

    def test_bus_invert_beats_binary_on_random(self):
        stream = random_addresses(self.WIDTH, 2000, seed=8)
        bi = count_transitions(BusInvertCode(self.WIDTH), stream)
        plain = count_transitions(BinaryCode(self.WIDTH), stream)
        assert bi.transitions < plain.transitions

    def test_gray_one_transition_on_sequential(self):
        stream = sequential_addresses(self.WIDTH, 256)
        report = count_transitions(GrayCode(self.WIDTH), stream)
        assert report.per_cycle == pytest.approx(1.0)

    def test_gray_optimal_irredundant_on_sequential(self):
        stream = sequential_addresses(self.WIDTH, 256)
        gray = count_transitions(GrayCode(self.WIDTH), stream)
        binary = count_transitions(BinaryCode(self.WIDTH), stream)
        assert gray.transitions < binary.transitions

    def test_t0_zero_transitions_on_sequential(self):
        stream = sequential_addresses(self.WIDTH, 200)
        report = count_transitions(T0Code(self.WIDTH), stream)
        # One INC-line rise at the second address; nothing after.
        assert report.transitions <= 1

    def test_working_zone_wins_on_interleaved(self):
        stream = interleaved_array_addresses(12, 600, n_arrays=3, seed=9,
                                             base_stride=256)
        wz = count_transitions(WorkingZoneCode(12, n_zones=4,
                                               offset_bits=4), stream)
        gray = count_transitions(GrayCode(12), stream)
        t0 = count_transitions(T0Code(12), stream)
        assert wz.per_cycle < gray.per_cycle
        assert wz.per_cycle < t0.per_cycle

    def test_beach_wins_on_block_correlated(self):
        # Beach is trace-driven: it is trained on an execution trace of
        # the embedded code and deployed on later executions of the
        # same code (same working regions).
        full = correlated_block_addresses(self.WIDTH, 1400, seed=10)
        train, test = full.words[:700], full.words[700:]
        beach = BeachCode(self.WIDTH)
        beach.train(train)
        b = count_transitions(beach, WordStream(test, self.WIDTH))
        plain = count_transitions(BinaryCode(self.WIDTH),
                                  WordStream(test, self.WIDTH))
        assert b.transitions < plain.transitions

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_codes_roundtrip_property(self, words):
        stream = WordStream(words, 8)
        for code in self._codes():
            count_transitions(code, stream, check_decode=True)


class TestColdScheduling:
    def _block(self):
        return [
            I("ADDI", rd=1, rs=0, imm=5),
            I("MUL", rd=2, rs=1, rt=1),
            I("ADDI", rd=3, rs=0, imm=9),
            I("LD", rd=4, rs=0, imm=16),
            I("ADD", rd=5, rs=2, rt=3),
            I("XOR", rd=6, rs=4, rt=5),
            I("ST", rd=6, rs=0, imm=17),
        ]

    def test_dependence_dag_raw(self):
        block = self._block()
        deps = dependence_dag(block)
        assert 0 in deps[1]     # MUL reads r1
        assert 4 in deps[5]     # XOR reads r5
        assert 3 in deps[5]     # XOR reads r4
        assert 3 in deps[6]     # memory serialization LD -> ST

    def test_cold_schedule_preserves_semantics(self):
        report = evaluate_cold_scheduling(self._block(),
                                          memory_init=list(range(32)))
        assert report.equivalent

    def test_cold_schedule_reduces_toggles(self):
        program = random_program(60, seed=12)[:-1]  # drop HALT
        report = evaluate_cold_scheduling(program,
                                          memory_init=list(range(64)))
        assert report.equivalent
        assert report.scheduled_toggles <= report.original_toggles
        assert report.toggle_reduction >= 0.0

    def test_cold_schedule_pinned(self):
        block = random_program(40, seed=9)[:-1]
        position = {id(instr): i for i, instr in enumerate(block)}
        scheduled = cold_schedule(block)
        assert [position[id(instr)] for instr in scheduled] == [
            0, 1, 4, 5, 9, 2, 8, 13, 39, 3, 6, 18, 28, 10, 12, 7, 11, 14,
            19, 15, 16, 17, 20, 21, 23, 25, 22, 27, 33, 24, 26, 29, 36, 30,
            31, 34, 32, 35, 37, 38]
        assert bus_transition_cost(block) == 388
        assert bus_transition_cost(scheduled) == 288

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_cold_schedule_equivalence_property(self, seed):
        program = random_program(40, seed=seed)[:-1]
        report = evaluate_cold_scheduling(program,
                                          memory_init=list(range(64)))
        assert report.equivalent


class TestInstructionSelection:
    @pytest.mark.parametrize("constant", [2, 3, 5, 8, 12])
    def test_alternatives_equivalent(self, constant):
        src, dst = 7, 8
        alts = multiply_by_constant_alternatives(src, dst, constant)
        results = []
        for alt in alts:
            m = Machine()
            setup = [I("ADDI", rd=src, rs=0, imm=11)]
            m.run(setup + list(alt) + [I("HALT")])
            results.append(m.registers[dst])
        assert results[0] == results[1] == 11 * constant

    def test_selection_picks_cheaper(self):
        alts = multiply_by_constant_alternatives(7, 8, 8)  # 1 shift
        setup = [I("ADDI", rd=7, rs=0, imm=11)]
        full = [setup + list(a) for a in alts]
        winner, energies = energy_aware_selection(full)
        assert len(energies) == 2
        # Single-shift version beats the multiply.
        assert winner == 1
