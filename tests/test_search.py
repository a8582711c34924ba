"""Parallel candidate-search executor (repro.optimization.search).

The load-bearing property mirrors PR 9's: *bit-identity*.  Every
rewired candidate loop must return identical reports — and pick the
identical winning candidate — for ``workers=1``, ``workers>=2``, and
the serial fallback, including a worker dying mid-sweep (its jobs are
re-run in-process, never silently dropped).  The remaining tests pin
the executor contract (ordered merge, deterministic spawn-key seeds,
env knob, context transports) and the consolidation of the repo's
seed-derivation schemes into :mod:`repro.util.seeding`.
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The equivalence tests re-apply their monkeypatches per example (the
# patch is idempotent), so the function-scoped-fixture check is noise.
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]

from repro.fsm import benchmark as fsm_benchmark
from repro.fsm.encoding import low_power_encoding
from repro.logic.netlist import Circuit
from repro.logic.simulate import random_vectors
from repro.optimization import search
from repro.optimization.bus_encoding import (
    count_transitions,
    default_survey_codes,
    random_addresses,
    survey_codes,
)
from repro.util import seeding

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(search.ENV_WORKERS, raising=False)


def teardown_module(module):
    search.shutdown_pool()


# ----------------------------------------------------------------------
# Module-level job functions (pool workers pickle them by reference)
# ----------------------------------------------------------------------

def _echo_job(candidate, ctx):
    return (candidate, ctx.seed, os.getpid(), search.in_worker())


def _crash_job(candidate, ctx):
    if search.in_worker():
        os._exit(11)            # simulates a worker dying mid-sweep
    return candidate * 2


def _angry_job(candidate, ctx):
    if candidate == 3:
        raise ValueError("candidate three is bad")
    return candidate


def _nested_job(candidate, ctx):
    inner = search.evaluate_candidates(_echo_job, [0, 1], workers=4)
    return (search.resolve_workers(4), [r[3] for r in inner])


def _no_pool(monkeypatch):
    def boom(n):
        raise RuntimeError("pool unavailable")
    monkeypatch.setattr(search, "_get_pool", boom)


# ----------------------------------------------------------------------
# Spawn-key seeding (the one derivation scheme)
# ----------------------------------------------------------------------
class TestSeeding:
    def test_recurrence_pinned_forever(self):
        # Committed characterization datasets depend on these values.
        assert seeding.STRIDE == 1000003
        assert seeding.child_seed(7, 0) == (7 * 1000003) & 0x7FFFFFFF
        assert seeding.child_seed(7, 5) == (7 * 1000003 + 5) & 0x7FFFFFFF

    def test_spawn_seeds_deterministic_and_distinct(self):
        a = seeding.spawn_seeds(123, 64)
        b = seeding.spawn_seeds(123, 64)
        assert a == b
        assert len(set(a)) == 64
        assert all(0 <= s <= 0x7FFFFFFF for s in a)

    def test_unseeded_passthrough_and_bad_index(self):
        assert seeding.child_seed(None, 9) is None
        assert seeding.spawn_seeds(None, 3) == [None, None, None]
        with pytest.raises(ValueError):
            seeding.child_seed(1, -1)

    def test_matches_learned_characterization_scheme(self):
        from repro.estimation.learned import characterize
        for base in (0, 1, 17, 99991):
            for k in (0, 1, 9973):
                assert characterize._run_seed(base, k) \
                    == seeding.child_seed(base, k)

    def test_serve_shards_draw_spawn_keys(self):
        from repro import serve
        job = {"technique": "simulation", "cycles": 120, "seed": 5,
               "shards": 3}
        subs = serve._shard_jobs(job)
        assert [s["seed"] for s in subs] \
            == [seeding.child_seed(5, k) for k in range(3)]
        assert sum(s["cycles"] for s in subs) == 120
        # unseeded jobs stay unseeded in every shard
        subs = serve._shard_jobs({"technique": "simulation",
                                  "cycles": 120, "seed": None,
                                  "shards": 3})
        assert [s["seed"] for s in subs] == [None, None, None]


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_default_serial(self):
        assert search.resolve_workers(None) == 1

    def test_explicit_and_floor(self):
        assert search.resolve_workers(3) == 3
        assert search.resolve_workers(0) == 1
        assert search.resolve_workers(-2) == 1

    def test_auto_is_cpu_count(self):
        assert search.resolve_workers("auto") \
            == max(1, os.cpu_count() or 1)

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(search.ENV_WORKERS, "2")
        assert search.resolve_workers(None) == 2
        monkeypatch.setenv(search.ENV_WORKERS, "auto")
        assert search.resolve_workers(None) \
            == max(1, os.cpu_count() or 1)
        monkeypatch.setenv(search.ENV_WORKERS, "garbage")
        assert search.resolve_workers(None) == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(search.ENV_WORKERS, "8")
        assert search.resolve_workers(2) == 2


# ----------------------------------------------------------------------
# Executor contract
# ----------------------------------------------------------------------
class TestExecutor:
    def test_ordered_merge_with_spawn_seeds(self):
        results = search.evaluate_candidates(
            _echo_job, list(range(8)), seed=42, workers=2)
        assert [r[0] for r in results] == list(range(8))
        assert [r[1] for r in results] == seeding.spawn_seeds(42, 8)
        # proof the pool actually ran: some job in another process,
        # with the worker flag up
        assert any(pid != os.getpid() for _c, _s, pid, _w in results)
        assert all(flag for _c, _s, pid, flag in results
                   if pid != os.getpid())

    def test_serial_path_stays_in_process(self):
        results = search.evaluate_candidates(
            _echo_job, list(range(4)), seed=7, workers=1)
        assert all(pid == os.getpid() for _c, _s, pid, _w in results)
        assert all(not flag for _c, _s, _p, flag in results)

    def test_env_knob_reaches_the_pool(self, monkeypatch):
        monkeypatch.setenv(search.ENV_WORKERS, "2")
        results = search.evaluate_candidates(
            _echo_job, list(range(6)), workers=None)
        assert [r[0] for r in results] == list(range(6))
        assert any(pid != os.getpid() for _c, _s, pid, _w in results)

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        _no_pool(monkeypatch)
        results = search.evaluate_candidates(
            _echo_job, list(range(5)), seed=1, workers=4)
        assert [r[0] for r in results] == list(range(5))
        assert all(pid == os.getpid() for _c, _s, pid, _w in results)

    def test_worker_death_never_drops_candidates(self):
        results = search.evaluate_candidates(
            _crash_job, list(range(6)), workers=2)
        assert results == [c * 2 for c in range(6)]

    def test_deterministic_exceptions_propagate(self):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="candidate three"):
                search.evaluate_candidates(
                    _angry_job, list(range(5)), workers=workers)

    def test_jobs_cannot_nest_pools(self):
        # Two candidates: a single candidate legitimately short-
        # circuits to the serial path and never reaches a worker.
        results = search.evaluate_candidates(
            _nested_job, [0, 1], workers=2)
        for inner_workers, inner_flags in results:
            assert inner_workers == 1       # resolve_workers in worker
            assert all(inner_flags)         # ran inside the worker

    def test_empty_and_single_candidate(self):
        assert search.evaluate_candidates(_echo_job, [],
                                          workers=4) == []
        (result,) = search.evaluate_candidates(_echo_job, ["x"],
                                               workers=4)
        assert result[0] == "x" and result[2] == os.getpid()


class TestContextShipping:
    def test_small_context_inlines(self):
        search._SHIPPED.clear()
        ref = search._ship_context({"k": "tiny"}, {})
        assert ref["kind"] == "inline"

    def test_large_context_dedups_by_fingerprint(self):
        search._SHIPPED.clear()
        payload = {"blob": list(range(30000))}
        ref1 = search._ship_context(payload, {})
        ref2 = search._ship_context({"blob": list(range(30000))}, {})
        assert ref1 is ref2
        assert ref1["kind"] in ("shm", "file")

    def test_bignum_fallback_spools_to_file(self, monkeypatch):
        search._SHIPPED.clear()
        monkeypatch.setattr(search, "numpy_available", lambda: False)
        ref = search._ship_context({"blob": list(range(30000))}, {})
        assert ref["kind"] == "file"
        with open(ref["path"], "rb") as fh:
            assert len(fh.read()) > search._INLINE_LIMIT
        # workers can materialize it
        payload = search._materialize(dict(ref))
        assert payload["stimuli"]["blob"][:3] == [0, 1, 2]

    @pytest.mark.skipif(not search.numpy_available(),
                        reason="shared-memory transport needs numpy")
    @pytest.mark.parametrize("warm", [True, False])
    def test_shm_segment_shares_parent_tracker(self, warm):
        """Workers share the parent's resource tracker whether or not it
        ran before the pool forked: their attach must leave the
        parent's registration alone, so the parent's unlink is clean
        and the segment is really gone afterwards."""
        code = f"WARM = {warm}\n" + textwrap.dedent("""
            from multiprocessing import shared_memory
            from repro.logic.fastsim import random_packed_vectors
            from repro.logic.generators import random_logic
            from repro.optimization import search

            if WARM:
                warm = shared_memory.SharedMemory(create=True, size=64)
                warm.close()
                warm.unlink()            # the parent's tracker now runs
            c = random_logic(6, 30, 2, seed=1)
            stimuli = {"stimulus": random_packed_vectors(
                list(c.inputs), 1 << 16, seed=2)}      # well over 16 KiB
            search.evaluate_candidates(
                search.activity_job, [c, c.clone("b")], stimuli=stimuli,
                workers=2)
            names = [seg.name for seg in search._SHM_SEGMENTS.values()]
            search.shutdown_pool()
            assert names, "context did not ride shared memory"
            for name in names:
                try:
                    shared_memory.SharedMemory(name=name).close()
                except FileNotFoundError:
                    continue
                print("still linked:", name)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "still linked" not in proc.stdout
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        # A worker tracker of its own would report the segment leaked.
        assert "resource_tracker" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# Pass equivalence: workers=1 == workers>=2 == serial fallback
# ----------------------------------------------------------------------

def _mux_circuit():
    c = Circuit("g")
    c.add_inputs(["a", "b", "cc", "d", "s"])
    t1 = c.add_gate("AND2", ["a", "b"])
    t2 = c.add_gate("XOR2", [t1, "cc"])
    t3 = c.add_gate("OR2", [t2, "d"])
    c.add_gate("MUX2", [t3, "s", "s"], output="out")
    c.add_output("out")
    return c


def _chain_circuit(depth=5):
    c = Circuit("chain")
    c.add_inputs(["x0", "x1"])
    net = c.add_gate("XOR2", ["x0", "x1"])
    for _ in range(depth):
        net = c.add_gate("AND2", [net, "x0"])
        net = c.add_gate("XOR2", [net, "x1"])
    c.add_gate("BUF", [net], output="out")
    c.add_output("out")
    return c


class TestPassEquivalence:
    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_guarded_eval(self, monkeypatch, seed):
        from repro.optimization.guarded_eval import evaluate_guarded

        c = _mux_circuit()
        vectors = random_vectors(c.inputs, 80, seed=seed)
        serial = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                                  workers=1)
        parallel = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                                    workers=2)
        _no_pool(monkeypatch)
        fallback = evaluate_guarded(c, vectors, min_cone=2, top_k=2,
                                    workers=2)
        assert serial == parallel == fallback

    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_clock_gating_sweep(self, monkeypatch, seed):
        from repro.optimization.clock_gating import sweep_clock_gating

        stg = fsm_benchmark("waiter")
        serial = sweep_clock_gating(stg, [1.0, 0.5], cycles=120,
                                    seed=seed, workers=1)
        parallel = sweep_clock_gating(stg, [1.0, 0.5], cycles=120,
                                      seed=seed, workers=2)
        _no_pool(monkeypatch)
        fallback = sweep_clock_gating(stg, [1.0, 0.5], cycles=120,
                                      seed=seed, workers=2)
        assert serial == parallel == fallback

    @settings(max_examples=2, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_precompute_sweep(self, monkeypatch, seed):
        from repro.logic.generators import magnitude_comparator
        from repro.optimization.precompute import sweep_precomputation

        circuit = magnitude_comparator(3)
        vectors = random_vectors(circuit.inputs, 80, seed=seed)
        serial = sweep_precomputation(circuit, "gt", [1, 2], vectors,
                                      workers=1)
        parallel = sweep_precomputation(circuit, "gt", [1, 2], vectors,
                                        workers=2)
        _no_pool(monkeypatch)
        fallback = sweep_precomputation(circuit, "gt", [1, 2], vectors,
                                        workers=2)
        assert serial == parallel == fallback

    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_respecification(self, monkeypatch, seed):
        from repro.optimization.respecification import \
            evaluate_respecification

        c = Circuit("resp")
        c.add_inputs(["d0", "d1", "d2", "d3", "s0", "s1"])
        m0 = c.add_gate("MUX2", ["d0", "d1", "s0"])
        m1 = c.add_gate("MUX2", ["d2", "d3", "s0"])
        c.add_gate("MUX2", [m0, m1, "s1"], output="y")
        c.add_output("y")
        vectors = random_vectors(c.inputs, 100, seed=seed)
        serial = evaluate_respecification(c, vectors, workers=1)
        parallel = evaluate_respecification(c, vectors, workers=2)
        _no_pool(monkeypatch)
        fallback = evaluate_respecification(c, vectors, workers=2)
        assert serial == parallel == fallback

    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_retiming_level_choice(self, monkeypatch, seed):
        from repro.optimization.retiming import choose_low_power_level

        circuit = _chain_circuit()
        vectors = random_vectors(circuit.inputs, 100, seed=seed)
        serial = choose_low_power_level(circuit, vectors, workers=1)
        parallel = choose_low_power_level(circuit, vectors, workers=2)
        _no_pool(monkeypatch)
        fallback = choose_low_power_level(circuit, vectors, workers=2)
        assert serial == parallel == fallback

    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**16))
    def test_annealing_restarts(self, monkeypatch, seed):
        stg = fsm_benchmark("traffic")
        serial = low_power_encoding(stg, seed=seed, anneal_steps=300,
                                    restarts=3, workers=1)
        parallel = low_power_encoding(stg, seed=seed, anneal_steps=300,
                                      restarts=3, workers=2)
        _no_pool(monkeypatch)
        fallback = low_power_encoding(stg, seed=seed, anneal_steps=300,
                                      restarts=3, workers=2)
        assert serial.codes == parallel.codes == fallback.codes

    def test_single_restart_reproduces_historical_encoding(self):
        # restart 0 keeps the base seed, so the default run must equal
        # the pre-fan-out implementation bit for bit.
        stg = fsm_benchmark("waiter")
        legacy = low_power_encoding(stg, seed=3, anneal_steps=400)
        fanout = low_power_encoding(stg, seed=3, anneal_steps=400,
                                    restarts=1, workers=2)
        assert legacy.codes == fanout.codes
        assert fanout.strategy == "low-power-annealed"

    @settings(max_examples=3, deadline=None,
              suppress_health_check=_FIXTURE_OK)
    @given(seed=st.integers(0, 2**20))
    def test_bus_survey(self, monkeypatch, seed):
        stream = random_addresses(8, 150, seed=seed)
        serial = survey_codes(stream, workers=1)
        parallel = survey_codes(stream, workers=2)
        reference = [count_transitions(code, stream)
                     for code in default_survey_codes(8, stream)]
        _no_pool(monkeypatch)
        fallback = survey_codes(stream, workers=2)
        assert serial == parallel == fallback == reference

    def test_worker_death_mid_pass_still_bit_identical(self):
        # Kill the pool in the middle of a real sweep: the affected
        # candidates re-run in-process and the reports stay identical.
        stream = random_addresses(8, 150, seed=9)
        expected = survey_codes(stream, workers=1)
        search.evaluate_candidates(_crash_job, [0, 1], workers=2)
        got = survey_codes(stream, workers=2)
        assert got == expected


# ----------------------------------------------------------------------
# serve.py batch exposure
# ----------------------------------------------------------------------
class TestServeSearch:
    def test_bus_survey_job(self):
        from repro import serve
        result = serve.run_job({
            "technique": "search", "cycles": 200, "seed": 4,
            "search": {"kind": "bus-survey", "width": 8,
                       "stream": "random"},
        })
        assert result["ok"], result
        assert result["kind"] == "bus-survey"
        assert len(result["results"]) == 7
        best = min(result["results"],
                   key=lambda r: (r["transitions"], r["code"]))
        assert result["best"] == best["code"]
        assert result["power"] == pytest.approx(best["per_cycle"])

    def test_guarded_job(self):
        from repro import serve
        result = serve.run_job({
            "technique": "search", "cycles": 64, "seed": 1,
            "circuit": {"generator": "magnitude_comparator",
                        "params": {"width": 3}},
            "search": {"kind": "guarded", "top_k": 2},
        })
        assert result["ok"], result
        assert result["kind"] == "guarded"
        assert "results" in result and "best" in result

    def test_search_jobs_reject_bad_specs(self):
        from repro import serve
        bad_stream = serve.run_job({
            "technique": "search", "cycles": 64,
            "search": {"kind": "bus-survey", "stream": "evil"},
        })
        assert not bad_stream["ok"]
        bad_kind = serve.run_job({
            "technique": "search", "cycles": 64,
            "search": {"kind": "mystery"},
        })
        assert not bad_kind["ok"]

    def test_search_jobs_never_shard(self):
        from repro import serve
        job = {"technique": "search", "cycles": 400, "shards": 4,
               "search": {"kind": "bus-survey"}}
        assert serve._shard_jobs(job) == [job]
