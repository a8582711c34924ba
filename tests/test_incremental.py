"""Incremental cone-of-influence re-estimation (repro.logic.incremental).

The load-bearing property is *bit-identity*: every report produced
through the cone cache — cached, delta, full-splice, or store-backed —
must equal full resimulation exactly (integer counts and float sums).
The hypothesis suites drive random circuits, random edits, and every
engine through that equality; the remaining tests pin the cache
contracts (stale-mutation safety, store corruption degrading to a
miss, estimator memoization) and the rewired optimization passes.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import store as artifact_store
from repro.backend.core import numpy_available
from repro.logic import incremental as inc
from repro.logic.fastsim import (
    PackedVectors,
    random_packed_vectors,
    stimulus_fingerprint,
)
from repro.logic.generators import counter, random_logic
from repro.logic.netlist import Circuit
from repro.logic.simulate import collect_activity, random_vectors

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy unavailable")

GATE_TYPES = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"]


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test runs on its own process-wide cone cache."""
    old = inc.set_cone_cache(inc.ConeCache())
    yield
    inc.set_cone_cache(old)


def edit_gates(circuit: Circuit, indices, rng) -> Circuit:
    """Clone and retype the chosen 2-input gates (never a no-op)."""
    variant = circuit.clone(f"{circuit.name}_edit")
    two_in = [g for g in variant.gates if len(g.inputs) == 2
              and g.gate_type in GATE_TYPES]
    for i in indices:
        gate = two_in[i % len(two_in)]
        gate.gate_type = rng.choice(
            [t for t in GATE_TYPES if t != gate.gate_type])
    variant.invalidate()
    return variant


def assert_delta_equals_full(base, variant, vectors, engine=None):
    cache = inc.ConeCache()
    inc.prime(base, vectors, engine=engine, cache=cache)
    got, stats = inc.delta_activity(variant, vectors, engine=engine,
                                    cache=cache)
    want = collect_activity(variant, vectors, engine=engine)
    assert inc.reports_equal(got, want), stats
    return stats


# ----------------------------------------------------------------------
# Hypothesis: bit-identity across random edits / engines / feedback
# ----------------------------------------------------------------------
class TestDeltaBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(n_gates=st.integers(10, 120), n_cycles=st.integers(1, 80),
           edits=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
           seed=st.integers(0, 10))
    def test_random_edits_combinational(self, n_gates, n_cycles,
                                        edits, seed):
        base = random_logic(6, n_gates, 3, seed=seed)
        vectors = random_packed_vectors(list(base.inputs), n_cycles,
                                        seed=seed + 1)
        variant = edit_gates(base, edits, random.Random(seed))
        assert_delta_equals_full(base, variant, vectors)

    @settings(deadline=None, max_examples=15)
    @given(width=st.integers(2, 6), n_cycles=st.integers(2, 60),
           seed=st.integers(0, 5))
    def test_latch_feedback(self, width, n_cycles, seed):
        """Counters close cones over latch feedback; editing the
        increment logic must still splice exactly."""
        base = counter(width)
        vectors = random_packed_vectors(list(base.inputs), n_cycles,
                                        seed=seed)
        variant = edit_gates(base, [seed], random.Random(seed))
        stats = assert_delta_equals_full(base, variant, vectors)
        assert stats.source in ("delta", "full", "cached")

    @settings(deadline=None, max_examples=10)
    @given(n_gates=st.integers(10, 60), seed=st.integers(0, 5))
    def test_engine_reference(self, n_gates, seed):
        base = random_logic(5, n_gates, 2, seed=seed)
        vectors = random_packed_vectors(list(base.inputs), 24,
                                        seed=seed)
        variant = edit_gates(base, [seed], random.Random(seed))
        assert_delta_equals_full(base, variant, vectors,
                                 engine="reference")

    @requires_numpy
    @settings(deadline=None, max_examples=10)
    @given(n_gates=st.integers(10, 60), seed=st.integers(0, 5))
    def test_engine_numpy(self, n_gates, seed):
        base = random_logic(5, n_gates, 2, seed=seed)
        vectors = random_packed_vectors(list(base.inputs), 200,
                                        seed=seed)
        variant = edit_gates(base, [seed], random.Random(seed))
        assert_delta_equals_full(base, variant, vectors, engine="numpy")

    def test_initial_state_falls_back(self):
        """Explicit latch initial state bypasses the cone cache."""
        base = counter(3)
        vectors = random_vectors(base.inputs, 20, seed=1)
        state = {latch.output: 1 for latch in base.latches}
        report, stats = inc.delta_activity(base, vectors,
                                           initial_state=state)
        assert stats.source == "fallback"
        assert inc.reports_equal(
            report, collect_activity(base, vectors, initial_state=state))

    def test_second_evaluation_is_fully_cached(self):
        base = random_logic(6, 50, 3, seed=2)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=3)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)
        report, stats = inc.delta_activity(base, vectors, cache=cache)
        assert stats.source == "cached" and stats.dirty_nets == 0
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))

    def test_eviction_causes_misses_not_staleness(self):
        base = random_logic(6, 60, 3, seed=4)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=5)
        cache = inc.ConeCache(max_bytes=1024)   # evicts almost all
        inc.prime(base, vectors, cache=cache)
        report, stats = inc.delta_activity(base, vectors, cache=cache)
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))
        assert stats.source in ("delta", "full")


# ----------------------------------------------------------------------
# Staleness contract
# ----------------------------------------------------------------------
class TestStaleness:
    def test_mutate_invalidate_rekeys(self):
        """In-place mutation + invalidate() must never serve the old
        circuit's cached counts."""
        base = random_logic(5, 40, 2, seed=6)
        vectors = random_packed_vectors(list(base.inputs), 48, seed=7)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)

        gate = next(g for g in base.gates if len(g.inputs) == 2
                    and g.gate_type in GATE_TYPES)
        gate.gate_type = ("AND2" if gate.gate_type != "AND2"
                          else "OR2")
        base.invalidate()

        report, _stats = inc.delta_activity(base, vectors, cache=cache)
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))

    def test_stimulus_change_rekeys(self):
        base = random_logic(5, 40, 2, seed=8)
        v1 = random_packed_vectors(list(base.inputs), 48, seed=1)
        v2 = random_packed_vectors(list(base.inputs), 48, seed=2)
        cache = inc.ConeCache()
        inc.prime(base, v1, cache=cache)
        report, _ = inc.delta_activity(base, v2, cache=cache)
        assert inc.reports_equal(report, collect_activity(base, v2))

    def test_data_only_cones_survive_control_change(self):
        """Changing one input's lanes re-keys only the cones that can
        observe it (the respecification reuse shape)."""
        c = Circuit("split")
        c.add_inputs(["a", "b", "s"])
        c.add_gate("XOR2", ["a", "b"], output="data")
        c.add_gate("AND2", ["data", "s"], output="y")
        c.add_output("y")
        v1 = random_packed_vectors(["a", "b", "s"], 32, seed=1)
        words = dict(v1.words)
        words["s"] ^= (1 << 31) - 1
        v2 = PackedVectors(["a", "b", "s"], 32, words)
        cache = inc.ConeCache()
        inc.prime(c, v1, cache=cache)
        report, stats = inc.delta_activity(c, v2, cache=cache)
        assert inc.reports_equal(report, collect_activity(c, v2))
        assert stats.reused_nets >= 1        # "data" spliced
        assert stats.dirty_nets >= 1         # "y" resimulated


# ----------------------------------------------------------------------
# Store layer (cross-process reuse, corruption)
# ----------------------------------------------------------------------
class TestStoreLayer:
    @pytest.fixture(autouse=True)
    def _store(self, tmp_path):
        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        yield
        artifact_store.set_store(old)

    def _prime_on_disk(self):
        base = random_logic(5, 40, 2, seed=9)
        vectors = random_packed_vectors(
            list(base.inputs), inc.STORE_MIN_CYCLES, seed=3)
        inc.prime(base, vectors, cache=inc.ConeCache())
        return base, vectors

    def test_cross_process_store_hits(self):
        base, vectors = self._prime_on_disk()
        # Fresh in-process cache + fresh circuit object = a new
        # process; only the disk entries can satisfy the lookups.
        clone = base.clone(base.name)
        report, stats = inc.delta_activity(clone, vectors,
                                           cache=inc.ConeCache())
        assert stats.store_hits > 0
        assert inc.reports_equal(report,
                                 collect_activity(clone, vectors))

    def test_corrupt_store_entry_degrades_to_miss(self, tmp_path):
        base, vectors = self._prime_on_disk()
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        # Fresh store object: the priming store's in-memory layer
        # would otherwise mask the corrupted disk entries.
        artifact_store.configure(tmp_path)
        report, stats = inc.delta_activity(base, vectors,
                                           cache=inc.ConeCache())
        assert stats.store_hits == 0
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))
        assert artifact_store.get_store().stats()["corrupt"] > 0

    def test_one_run_record_per_run(self, tmp_path):
        base = random_logic(5, 40, 2, seed=9)
        vectors = random_packed_vectors(
            list(base.inputs), inc.STORE_MIN_CYCLES, seed=3)
        assert not list(tmp_path.glob("activity-*.json"))
        _, stats = inc.delta_activity(base, vectors, cache=inc.ConeCache())
        assert stats.dirty_nets > 1
        assert len(list(tmp_path.glob("activity-*.json"))) == 1

    @pytest.mark.parametrize("tamper", ["nets", "cycles"])
    def test_mismatched_run_record_is_a_miss(self, tmp_path, tamper):
        base, vectors = self._prime_on_disk()
        (path,) = tmp_path.glob("activity-*.json")
        envelope = json.loads(path.read_text())
        payload = envelope["payload"]
        if tamper == "nets":
            # Still a well-formed record, but of one net fewer.
            for field in ("nets", "toggles", "ones"):
                payload[field] = payload[field][:-1]
        else:
            payload["cycles"] += 1
        assert artifact_store.unpack_activity(payload) is not None
        path.write_text(json.dumps(envelope))
        artifact_store.configure(tmp_path)
        report, stats = inc.delta_activity(base, vectors,
                                           cache=inc.ConeCache())
        assert stats.store_hits == 0 and stats.source != "store"
        assert inc.reports_equal(report,
                                 collect_activity(base, vectors))

    def test_prime_loads_lanes_on_run_record_hit(self):
        base = random_logic(8, 200, 4, seed=12)
        vectors = random_packed_vectors(
            list(base.inputs), inc.STORE_MIN_CYCLES, seed=6)
        inc.delta_activity(base, vectors, cache=inc.ConeCache())
        # A new process: fresh store object, fresh cone cache; the
        # base's run record on disk is all that is left.
        artifact_store.configure(artifact_store.get_store().root)
        _, stats = inc.delta_activity(base, vectors, cache=inc.ConeCache())
        assert stats.source == "store"
        cache = inc.ConeCache()
        assert inc.reports_equal(inc.prime(base, vectors, cache=cache),
                                 collect_activity(base, vectors))
        variant = edit_gates(base, [len(base.gates) - 1],
                             random.Random(1))
        report, stats = inc.delta_activity(variant, vectors, cache=cache)
        assert stats.source == "delta"
        assert inc.reports_equal(report,
                                 collect_activity(variant, vectors))

    def test_plans_stay_resident_after_mirrored_sweep(self):
        from repro.logic import fastsim

        base = random_logic(8, 200, 4, seed=12)
        vectors = random_packed_vectors(
            list(base.inputs), inc.STORE_MIN_CYCLES, seed=6)
        cache = inc.ConeCache()
        inc.prime(base, vectors, cache=cache)
        for k in range(6):
            variant = edit_gates(base, [k * 7], random.Random(k))
            inc.delta_activity(variant, vectors, cache=cache)
        st = artifact_store.get_store()
        # More nets than memory slots: a record per net would have
        # flushed the plans; one record per run keeps them.
        assert len(base.nets) > st.mem_entries
        resident = set(st._mem)
        assert st.key(base.fingerprint(), fastsim.STORE_KIND) in resident
        assert sum(k.startswith(artifact_store.ACTIVITY_KIND + "-")
                   for k in resident) == 7

    def test_wrong_schema_payload_is_a_miss(self):
        assert artifact_store.unpack_activity(None) is None
        assert artifact_store.unpack_activity({"schema": "bogus"}) is None
        good = artifact_store.pack_activity(4, ["a"], {"a": 1},
                                            {"a": 2}, 1.5, 0.0)
        decoded = artifact_store.unpack_activity(good)
        assert decoded is not None and decoded["cycles"] == 4
        bad = dict(good)
        bad["toggles"] = [1, 2, 3]          # length mismatch
        assert artifact_store.unpack_activity(bad) is None


# ----------------------------------------------------------------------
# Estimator facade
# ----------------------------------------------------------------------
class TestEstimator:
    def test_estimate_delta_matches_simulation(self):
        from repro.core.estimator import PowerEstimator

        base = random_logic(6, 60, 3, seed=10)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=4)
        variant = edit_gates(base, [2], random.Random(0))
        est = PowerEstimator()
        delta = est.estimate_delta(base, variant, vectors)
        full = est.gate(variant, vectors, technique="simulation")
        assert delta.power == full.power
        assert delta.technique.startswith("simulation-delta/")

    def test_gate_probe_transparent(self):
        from repro.core.estimator import PowerEstimator

        base = random_logic(6, 60, 3, seed=11)
        vectors = random_packed_vectors(list(base.inputs), 64, seed=5)
        est = PowerEstimator()
        cold = est.gate(base, vectors)         # empty cache: plain path
        inc.prime(base, vectors)               # process-wide cache
        warm = est.gate(base, vectors)         # probe serves the report
        assert cold.power == warm.power

    def test_packed_stimulus_memo(self):
        from repro.core.estimator import PowerEstimator
        from repro.rtl.components import make_component
        from repro.rtl.streams import random_stream

        comp = make_component("add", 4)
        streams = [random_stream(4, 40, seed=1),
                   random_stream(4, 40, seed=2)]
        est = PowerEstimator()
        p1 = est.packed_stimulus(comp.input_ports, streams)
        p2 = est.packed_stimulus(comp.input_ports, streams)
        assert p1 is p2                        # memo identity hit

        r1 = est.component(comp, streams)
        # In-place mutation + invalidate(): new fingerprint, repack.
        streams[0].words[0] ^= 0xF
        streams[0].invalidate()
        p3 = est.packed_stimulus(comp.input_ports, streams)
        assert p3 is not p1
        r2 = est.component(comp, streams)
        full = collect_activity(
            comp.circuit,
            p3).average_power()
        assert r2.power == pytest.approx(full)
        assert r1.technique == r2.technique

    def test_wordstream_invalidate_regression(self):
        """append + pop restores the length — only the version bump
        keeps the stale fingerprint from resurfacing."""
        from repro.rtl.streams import random_stream

        stream = random_stream(8, 32, seed=3)
        fp = stream.fingerprint()
        stream.words[0] ^= 0xFF
        stream.invalidate()
        assert stream.fingerprint() != fp

        stream2 = random_stream(8, 32, seed=4)
        fp2 = stream2.fingerprint()
        stream2.words.append(1)
        stream2.invalidate()
        stream2.words.pop()                   # length restored
        assert stream2.fingerprint() == fp2   # content truly unchanged
        stream2.words[1] ^= 1
        stream2.invalidate()
        assert stream2.fingerprint() != fp2


# ----------------------------------------------------------------------
# Rewired optimization passes
# ----------------------------------------------------------------------
class TestPasses:
    def test_clock_gating_incremental_equals_full(self):
        from repro.fsm import benchmark
        from repro.optimization.clock_gating import evaluate_clock_gating

        stg = benchmark("waiter")
        a = evaluate_clock_gating(stg, cycles=150, seed=4,
                                  bit_probs=[0.05, 0.5],
                                  incremental=True, cross_check=True)
        b = evaluate_clock_gating(stg, cycles=150, seed=4,
                                  bit_probs=[0.05, 0.5],
                                  incremental=False)
        assert (a.idle_fraction, a.original_power, a.gated_power,
                a.fa_gates) == (b.idle_fraction, b.original_power,
                                b.gated_power, b.fa_gates)

    def test_precompute_incremental_equals_full(self):
        from repro.logic.generators import magnitude_comparator
        from repro.optimization.precompute import evaluate_precomputation

        circuit = magnitude_comparator(4)
        vectors = random_vectors(circuit.inputs, 120, seed=2)
        a = evaluate_precomputation(circuit, "gt", 2, vectors,
                                    incremental=True, cross_check=True)
        b = evaluate_precomputation(circuit, "gt", 2, vectors,
                                    incremental=False)
        assert (a.coverage, a.original_power, a.precomputed_power) \
            == (b.coverage, b.original_power, b.precomputed_power)

    def test_guarded_incremental_equals_full(self):
        from repro.optimization.guarded_eval import evaluate_guarded

        c = Circuit("g")
        c.add_inputs(["a", "b", "cc", "d", "s"])
        t1 = c.add_gate("AND2", ["a", "b"])
        t2 = c.add_gate("XOR2", [t1, "cc"])
        t3 = c.add_gate("OR2", [t2, "d"])
        c.add_gate("MUX2", [t3, "s", "s"], output="out")
        c.add_output("out")
        vectors = random_vectors(c.inputs, 100, seed=3)
        a = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                             incremental=True, cross_check=True)
        b = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                             incremental=False)
        assert a is not None and b is not None
        assert (a.original_power, a.guarded_power, a.equivalent) \
            == (b.original_power, b.guarded_power, b.equivalent)

    def test_respecification_incremental_equals_full(self):
        from repro.optimization.respecification import \
            evaluate_respecification

        c = Circuit("resp")
        c.add_inputs(["d0", "d1", "d2", "d3", "s0", "s1"])
        m0 = c.add_gate("MUX2", ["d0", "d1", "s0"])
        m1 = c.add_gate("MUX2", ["d2", "d3", "s0"])
        c.add_gate("MUX2", [m0, m1, "s1"], output="y")
        c.add_output("y")
        vectors = random_vectors(c.inputs, 90, seed=5)
        a = evaluate_respecification(c, vectors, incremental=True,
                                     cross_check=True)
        b = evaluate_respecification(c, vectors, incremental=False)
        assert (a.changed_cycles, a.original_power,
                a.respecified_power, a.equivalent) \
            == (b.changed_cycles, b.original_power,
                b.respecified_power, b.equivalent)

    def test_timed_activity_cached(self, tmp_path):
        from repro.logic.eventsim import EventSimulator
        from repro.logic.fasttimer import timed_activity_cached

        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        try:
            circuit = random_logic(5, 30, 2, seed=12)
            vectors = random_packed_vectors(list(circuit.inputs), 300,
                                            seed=6)
            r1 = timed_activity_cached(circuit, vectors)
            r2 = timed_activity_cached(circuit, vectors)
            ref = EventSimulator(circuit).run(vectors)
            assert r1.average_power() == r2.average_power()
            assert r1.average_power() == ref.average_power()
            assert r1.toggles == ref.toggles
            assert r2 is not r1                  # fresh report per hit
            hits = artifact_store.get_store().stats()
            assert hits["mem_hits"] + hits["disk_hits"] > 0
        finally:
            artifact_store.set_store(old)

    def test_retiming_memoized_runs_agree(self, tmp_path):
        from repro.logic.generators import chained_adder_tree
        from repro.optimization.retiming import evaluate_power_retiming

        old = artifact_store.set_store(None)
        artifact_store.configure(tmp_path)
        try:
            circuit = chained_adder_tree(3, 3)
            vectors = random_vectors(circuit.inputs, 400, seed=7)
            r1 = evaluate_power_retiming(circuit, vectors)
            r2 = evaluate_power_retiming(circuit, vectors)
            assert r1 == r2
            assert artifact_store.get_store().stats()["mem_hits"] > 0
        finally:
            artifact_store.set_store(old)
