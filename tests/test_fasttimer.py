"""Tick-wheel timed engine: exact-equivalence and semantics tests.

The fast timed engine's contract mirrors fastsim's: *bit-identical*
activity reports against the event-driven reference — toggles, ones,
glitches, events, switched and clock capacitance — on any circuit the
compiler can lower, including enable-gated latches, feedback, and
0-delay cells.  Also pinned here: the settling-cycle normalization
(``ones``/``cycles`` match the zero-delay engine's accounting while
``toggles``/``glitches`` cover only counted boundaries) and the
clock-edge convention shared with the zero-delay engine.
"""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import fasttimer, gates as gatelib
from repro.logic.eventsim import EventSimulator, tick_grid
from repro.logic.fastsim import random_packed_vectors
from repro.logic.generators import array_multiplier, chained_adder_tree, \
    counter, ripple_carry_adder
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, collect_activity, \
    random_vectors, evaluate


def random_latched_circuit(n_inputs: int, n_gates: int, n_latches: int,
                           seed: int) -> Circuit:
    """Random sequential circuit with feedback, enables, and mixed
    clocked/transparent latches (same recipe as test_fastsim)."""
    rng = random.Random(seed)
    circuit = Circuit(f"seq_{n_inputs}_{n_gates}_{n_latches}_{seed}")
    inputs = circuit.add_inputs([f"x{i}" for i in range(n_inputs)])
    latch_outs = [f"s{i}" for i in range(n_latches)]
    circuit.reserve_nets(latch_outs)
    pool = list(inputs) + list(latch_outs)   # latch feedback into logic
    types = ["NAND2", "NOR2", "AND2", "OR2", "XOR2", "INV", "AOI21",
             "MUX2", "XNOR2"]
    for _ in range(n_gates):
        gate_type = rng.choice(types)
        arity = {"INV": 1, "AOI21": 3, "MUX2": 3}.get(gate_type, 2)
        ins = [rng.choice(pool) for _ in range(arity)]
        pool.append(circuit.add_gate(gate_type, ins))
    for q in latch_outs:
        data = rng.choice(pool)
        enable = rng.choice([None, None, rng.choice(pool)])
        circuit.add_latch(data, output=q, init=rng.randint(0, 1),
                          enable=enable,
                          clocked=rng.random() < 0.75)
    for net in rng.sample(pool, min(3, len(pool))):
        circuit.add_output(net)
    return circuit


def assert_timed_identical(fast: ActivityReport,
                           ref: ActivityReport) -> None:
    assert fast.cycles == ref.cycles
    assert fast.toggles == ref.toggles
    assert fast.ones == ref.ones
    assert fast.glitches == ref.glitches
    assert fast.events == ref.events
    assert fast.switched_capacitance == ref.switched_capacitance
    assert fast.clock_capacitance == ref.clock_capacitance


def both_engines(circuit, vectors):
    fast = EventSimulator(circuit, engine="fast").run(vectors)
    ref = EventSimulator(circuit, engine="reference").run(vectors)
    return fast, ref


class TestTickGrid:
    def test_library_delays_are_exactly_discretized(self):
        circuit = chained_adder_tree(4, 2)
        grid = tick_grid(circuit)
        for gate in circuit.gates:
            assert float(grid.quantum * grid.ticks[gate.output]) \
                == pytest.approx(gate.spec.delay, abs=0.0)

    def test_quantum_is_gcd_of_delays(self):
        circuit = Circuit("grid")
        a, b = circuit.add_inputs(["a", "b"])
        x = circuit.add_gate("AND2", [a, b])      # delay 2.0
        y = circuit.add_gate("XOR2", [x, b])      # delay 2.6
        circuit.add_output(y)
        grid = tick_grid(circuit)
        assert float(grid.quantum) == pytest.approx(0.2)
        assert grid.ticks[x] == 10
        assert grid.ticks[y] == 13


class TestEngineEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(n_inputs=st.integers(2, 8), n_gates=st.integers(1, 60),
           n_latches=st.integers(0, 5), seed=st.integers(0, 10_000),
           n_vectors=st.integers(0, 50))
    def test_random_latched_matches_reference(self, n_inputs, n_gates,
                                              n_latches, seed,
                                              n_vectors):
        circuit = random_latched_circuit(n_inputs, n_gates, n_latches,
                                         seed)
        vectors = random_vectors(circuit.inputs, n_vectors,
                                 seed=seed + 1)
        fast, ref = both_engines(circuit, vectors)
        assert_timed_identical(fast, ref)

    def test_fig9_circuit_matches_reference(self):
        circuit = chained_adder_tree(4, 3)
        vectors = random_vectors(circuit.inputs, 80, seed=11)
        fast, ref = both_engines(circuit, vectors)
        assert_timed_identical(fast, ref)
        assert fast.glitches > 0

    def test_packed_stimulus_matches_dict_stimulus(self):
        circuit = ripple_carry_adder(6)
        packed = random_packed_vectors(circuit.inputs, 64, seed=4)
        from_packed = EventSimulator(circuit, engine="fast").run(packed)
        from_dicts = EventSimulator(circuit, engine="fast").run(
            packed.to_vectors())
        assert_timed_identical(from_packed, from_dicts)

    def test_zero_delay_cells_match_reference(self):
        spec = dataclasses.replace(gatelib.LIBRARY["AND2"],
                                   name="ZAND2_T", delay=0.0)
        gatelib.LIBRARY["ZAND2_T"] = spec
        try:
            circuit = Circuit("zd")
            a, b, d = circuit.add_inputs(["a", "b", "d"])
            x = circuit.add_gate("XOR2", [a, b])
            z = circuit.add_gate("ZAND2_T", [x, d])
            y = circuit.add_gate("INV", [z])
            q = circuit.add_latch(y, enable=x)
            circuit.add_output(circuit.add_gate("OR2", [q, z]))
            vectors = random_vectors(circuit.inputs, 40, seed=5)
            fast, ref = both_engines(circuit, vectors)
            assert_timed_identical(fast, ref)
        finally:
            del gatelib.LIBRARY["ZAND2_T"]

    def test_multi_run_accumulation_matches_one_run(self):
        circuit = random_latched_circuit(5, 40, 4, seed=3)
        vectors = random_vectors(circuit.inputs, 50, seed=7)
        split = EventSimulator(circuit, engine="fast")
        split.run(vectors[:20])
        report = split.run(vectors[20:])
        other = EventSimulator(circuit, engine="reference")
        whole = other.run(vectors)
        assert_timed_identical(report, whole)
        # The simulator's internal state carried over exactly too.
        assert split._values == other._values
        assert split._state == other._state

    def test_step_then_run_mix_matches_reference(self):
        circuit = random_latched_circuit(4, 25, 2, seed=9)
        vectors = random_vectors(circuit.inputs, 30, seed=10)
        mixed = EventSimulator(circuit, engine="fast")
        for vec in vectors[:5]:
            mixed.step(vec)
        report = mixed.run(vectors[5:])
        pure = EventSimulator(circuit, engine="reference").run(vectors)
        assert_timed_identical(report, pure)

    def test_missing_input_keys_fall_back_to_reference(self):
        """Partial vectors (inputs holding their previous value) are a
        reference-engine feature; the fast path must defer, not crash."""
        circuit = ripple_carry_adder(3)
        partial = [{"a0": 1, "a1": 0, "a2": 1}] * 10   # b* unspecified
        fast, ref = both_engines(circuit, partial)
        assert_timed_identical(fast, ref)


def _digest(counts) -> str:
    """Short content hash of a per-net counter dict."""
    blob = json.dumps(sorted(counts.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class TestGoldenTimedCounts:
    """Pinned timed counters: a settling-first run, then a second run
    accumulated on the same simulator, on both compiled engines.

    The values were captured from the engines before their kernels
    were rewritten and agree with the reference engine; any change to
    the tick-wheel lowering must reproduce them bit for bit.
    """

    MULT6 = [
        dict(cycles=1000, events=229560, glitches=166212,
             toggles_sum=229424, ones_sum=47686,
             toggles="ce17ed670432558a", ones="24e8d82de1ea2b41"),
        dict(cycles=2048, events=484547, glitches=352614,
             toggles_sum=484411, ones_sum=100453,
             toggles="a130001b1eafa700", ones="b6a50243e37b908b"),
    ]

    COUNTER4 = [
        dict(cycles=120, events=718, glitches=270,
             toggles={"en": 50, "q0": 72, "q1": 36, "q2": 18, "q3": 9,
                      "n0_xor2": 72, "n1_and2": 72, "n3_xor2": 108,
                      "n4_and2": 72, "n6_xor2": 90, "n7_and2": 54,
                      "n9_xor2": 63},
             ones={"en": 73, "q0": 57, "q1": 60, "q2": 69, "q3": 55,
                   "n0_xor2": 58, "n1_and2": 36, "n3_xor2": 60,
                   "n4_and2": 18, "n6_xor2": 69, "n7_and2": 9,
                   "n9_xor2": 56}),
        dict(cycles=300, events=1626, glitches=600,
             toggles={"en": 144, "q0": 160, "q1": 80, "q2": 40, "q3": 20,
                      "n0_xor2": 160, "n1_and2": 160, "n3_xor2": 240,
                      "n4_and2": 160, "n6_xor2": 200, "n7_and2": 120,
                      "n9_xor2": 140},
             ones={"en": 161, "q0": 152, "q1": 159, "q2": 169, "q3": 153,
                   "n0_xor2": 153, "n1_and2": 80, "n3_xor2": 159,
                   "n4_and2": 40, "n6_xor2": 169, "n7_and2": 20,
                   "n9_xor2": 153}),
    ]

    @pytest.mark.parametrize("engine", ["fast", "numpy"])
    def test_array_multiplier_golden(self, engine):
        circuit = array_multiplier(6)
        packed = random_packed_vectors(circuit.inputs, 2048, seed=15)
        first = fasttimer._shard_slice(packed, 0, 1000)
        second = fasttimer._shard_slice(packed, 1000, 2048)
        sim = EventSimulator(circuit, engine=engine)
        for golden, part in zip(self.MULT6, (first, second)):
            report = sim.run(part)
            assert dict(
                cycles=report.cycles, events=report.events,
                glitches=report.glitches,
                toggles_sum=sum(report.toggles.values()),
                ones_sum=sum(report.ones.values()),
                toggles=_digest(report.toggles),
                ones=_digest(report.ones)) == golden

    @pytest.mark.parametrize("engine", ["fast", "numpy"])
    def test_counter_golden(self, engine):
        circuit = counter(4)
        vectors = random_vectors(circuit.inputs, 300, seed=16)
        sim = EventSimulator(circuit, engine=engine)
        for golden, part in zip(self.COUNTER4,
                                (vectors[:120], vectors[120:])):
            report = sim.run(part)
            assert dict(cycles=report.cycles, events=report.events,
                        glitches=report.glitches, toggles=report.toggles,
                        ones=report.ones) == golden


class TestBatchInvariants:
    @settings(deadline=None, max_examples=25)
    @given(n_inputs=st.integers(2, 6), n_gates=st.integers(1, 40),
           n_latches=st.integers(0, 4), seed=st.integers(0, 10_000),
           n_vectors=st.integers(1, 40),
           backend=st.sampled_from([None, "numpy"]))
    def test_events_are_sum_of_toggles(self, n_inputs, n_gates, n_latches,
                                       seed, n_vectors, backend):
        """Without a settling lane every applied change is a counted
        toggle, so events equal the toggle total exactly."""
        circuit = random_latched_circuit(n_inputs, n_gates, n_latches,
                                         seed)
        vectors = random_vectors(circuit.inputs, n_vectors,
                                 seed=seed + 1)
        state = {l.output: l.init for l in circuit.latches}
        prev = evaluate(circuit, {n: 0 for n in circuit.inputs}, state)
        counts = fasttimer.timed_batch(circuit, vectors, prev, state,
                                       settling_first=False,
                                       backend=backend)
        assert counts.n == n_vectors
        assert counts.events == sum(counts.toggles.values())


class TestSettlingNormalization:
    """Satellite: pin the settling-cycle conventions in both engines."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_ones_and_cycles_match_zero_delay_accounting(self, engine):
        circuit = random_latched_circuit(5, 30, 3, seed=21)
        vectors = random_vectors(circuit.inputs, 25, seed=22)
        timed = EventSimulator(circuit, engine=engine).run(vectors)
        functional = collect_activity(circuit, vectors)
        # Settled values are delay-independent, and the settling cycle
        # counts toward ones/cycles in both engines -- so the static
        # statistics agree exactly with the zero-delay engine.
        assert timed.cycles == functional.cycles
        assert timed.ones == functional.ones

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_clock_capacitance_matches_zero_delay(self, engine):
        """Enable-gated clock edges follow the zero-delay convention:
        the edge after cycle k is gated by cycle k's enable, counted
        for k = 0..cycles-2 (regression for the old one-cycle skew)."""
        circuit = Circuit("gated")
        d, en = circuit.add_inputs(["d", "en"])
        q = circuit.add_latch(d, enable=en)
        circuit.add_output(circuit.add_gate("AND2", [q, d]))
        vectors = [{"d": t & 1, "en": (t < 3)} for t in range(8)]
        timed = EventSimulator(circuit, engine=engine).run(vectors)
        functional = collect_activity(circuit, vectors)
        assert timed.clock_capacitance == functional.clock_capacitance

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_settling_cycle_counts_no_toggles(self, engine):
        circuit = ripple_carry_adder(4)
        vectors = random_vectors(circuit.inputs, 1, seed=1)
        report = EventSimulator(circuit, engine=engine).run(vectors)
        assert report.cycles == 1
        assert sum(report.toggles.values()) == 0
        assert report.glitches == 0
        assert report.events > 0      # settling still moved nets


class TestGlitchReport:
    def test_glitch_report_identical_across_engines(self):
        circuit = chained_adder_tree(4, 2)
        vectors = random_vectors(circuit.inputs, 50, seed=31)
        fast = EventSimulator(circuit, engine="fast")
        ref = EventSimulator(circuit, engine="reference")
        assert fast.glitch_report(vectors) == ref.glitch_report(vectors)


class TestSharding:
    def test_sharded_activity_identical_to_serial(self):
        circuit = random_latched_circuit(5, 40, 4, seed=17)
        packed = random_packed_vectors(circuit.inputs, 1500, seed=18)
        serial = EventSimulator(circuit, engine="fast").run(packed)
        sharded = fasttimer.timed_activity(circuit, packed, workers=2)
        assert_timed_identical(sharded, serial)

    def test_small_batches_stay_serial(self):
        circuit = ripple_carry_adder(4)
        vectors = random_vectors(circuit.inputs, 20, seed=2)
        serial = EventSimulator(circuit, engine="fast").run(vectors)
        report = fasttimer.timed_activity(circuit, vectors, workers=4)
        assert_timed_identical(report, serial)


class TestPlanCache:
    def test_plan_cached_and_invalidated(self):
        circuit = ripple_carry_adder(3)
        plan = fasttimer.compile_timed(circuit)
        assert fasttimer.compile_timed(circuit) is plan
        a = circuit.add_gate("INV", [circuit.inputs[0]])
        circuit.add_output(a)
        fresh = fasttimer.compile_timed(circuit)
        assert fresh is not plan
        assert fresh.version == circuit._version

    def test_circuit_pickles_without_plans(self):
        import pickle

        circuit = ripple_carry_adder(3)
        fasttimer.compile_timed(circuit)
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._fasttimer_plan is None
        assert clone._fastsim_plan is None
        vectors = random_vectors(circuit.inputs, 10, seed=6)
        assert_timed_identical(
            EventSimulator(clone, engine="fast").run(vectors),
            EventSimulator(circuit, engine="reference").run(vectors))


class TestStoreLayout:
    def test_legacy_store_entry_is_not_rehydrated(self, tmp_path):
        """A timed plan written under the old kind (4-argument kernel
        plus a ``kernel_be`` blob) must be invisible: the engine
        recompiles instead of calling a kernel with the wrong
        signature."""
        from repro import store as artifact_store
        from repro.logic import fastsim

        circuit = ripple_carry_adder(4)
        legacy = artifact_store.ArtifactStore(root=tmp_path)
        source = "def __fasttimer_eval(C, N, T, M):\n    return 0\n"
        source_be = ("def __fasttimer_eval_be(C, N, T, M, ANY, PC):\n"
                     "    return 0\n")
        legacy.put(circuit.fingerprint(), "fasttimer", {
            "nets": fastsim.compile_circuit(circuit).nets,
            "quantum": [1, 5],
            "n_ticks": 1,
            "n_ops": 1,
            "kernel": artifact_store.code_blob(source, "<legacy>"),
            "kernel_be": artifact_store.code_blob(source_be, "<legacy>"),
        })
        prev = artifact_store.set_store(
            artifact_store.ArtifactStore(root=tmp_path))
        try:
            fresh = ripple_carry_adder(4)
            vectors = random_vectors(fresh.inputs, 40, seed=3)
            fast = EventSimulator(fresh, engine="fast").run(vectors)
            ref = EventSimulator(circuit, engine="reference").run(vectors)
            assert_timed_identical(fast, ref)
            assert fresh._fasttimer_plan.kernel.__code__.co_argcount == 5
        finally:
            artifact_store.set_store(prev)


class TestObservability:
    @pytest.fixture(autouse=True)
    def traced(self):
        from repro import obs

        obs.disable()
        obs.reset()
        obs.enable()
        yield obs
        obs.disable()
        obs.reset()

    def test_compile_fallback_is_counted(self, traced):
        circuit = array_multiplier(10)       # schedule exceeds _MAX_OPS
        with pytest.raises(fasttimer.CompileError):
            fasttimer.compile_timed(circuit)
        vectors = random_vectors(circuit.inputs, 4, seed=8)
        traced.reset()
        fast = EventSimulator(circuit, engine="fast").run(vectors)
        assert traced.registry.counter(
            "eventsim.fallbacks.compile_error") == 1
        (run,) = traced.finished_spans()
        assert run.name == "eventsim.run"
        assert run.attributes["engine"] == "fast"
        assert run.attributes["resolved"] == "reference"
        assert run.attributes["fallback"] == "compile_error"
        ref = EventSimulator(circuit, engine="reference").run(vectors)
        assert_timed_identical(fast, ref)

    def test_compile_span_records_source_bytes(self, traced):
        from repro import store as artifact_store

        circuit = ripple_carry_adder(5)
        vectors = random_vectors(circuit.inputs, 16, seed=9)
        st = artifact_store.ArtifactStore(root=None)   # force a compile
        prev = artifact_store.set_store(st)
        try:
            EventSimulator(circuit, engine="fast").run(vectors)
        finally:
            artifact_store.set_store(prev)
        (run,) = traced.finished_spans()
        assert run.attributes["resolved"] == "fast"
        assert "fallback" not in run.attributes
        (compiled,) = [c for c in run.children
                       if c.name == "fasttimer.compile"]
        payload = st.get(circuit.fingerprint(), fasttimer.STORE_KIND)
        assert compiled.attributes["source_bytes"] \
            == len(payload["kernel"]["source"]) > 0
