"""Tests for repro.serve — the estimation service.

One module-scoped server (pool startup is the expensive part) backs
most tests; correctness is checked by comparing served estimates
against direct in-process :class:`~repro.core.PowerEstimator` calls
on identical circuits and stimulus.  Also covers the obs flush /
periodic-export API that long-running servers rely on.
"""

import json
import os
import time

import pytest

from repro import obs, serve
from repro import store as artifact_store
from repro.core import PowerEstimator
from repro.logic import fastsim
from repro.logic.generators import counter, parity_tree, \
    ripple_carry_adder

@pytest.fixture(scope="module")
def server():
    # The server exports REPRO_STORE and swaps the store singleton so
    # its forked workers share the disk store; restore both afterwards
    # so later test modules see a clean slate.
    prev_env = os.environ.get(artifact_store.ENV_DIR)
    prev_store = artifact_store.set_store(None)
    try:
        with serve.EstimationServer(workers=2) as srv:
            yield srv
    finally:
        if prev_env is None:
            os.environ.pop(artifact_store.ENV_DIR, None)
        else:
            os.environ[artifact_store.ENV_DIR] = prev_env
        artifact_store.set_store(prev_store)


@pytest.fixture(scope="module")
def client(server):
    return serve.Client(*server.address)


def _job(generator, params, technique="simulation", **kw):
    job = {"circuit": {"generator": generator, "params": params},
           "technique": technique}
    job.update(kw)
    return job


class TestEndpoints:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers"] == 2
        assert health["store_dir"] == server._store_dir

    def test_unknown_route_404(self, client):
        status, lines = client._request("GET", "/nope")
        assert status == 404
        assert lines[0]["ok"] is False

    def test_bad_body_400(self, client):
        status, lines = client._request("POST", "/estimate",
                                        {"jobs": []})
        assert status == 400
        assert "jobs" in lines[0]["error"]

    def test_stats_shape(self, client):
        client.estimate([_job("parity_tree", {"width": 8},
                              cycles=64, seed=1)])
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["counters"]["jobs"] >= 1
        assert "p50_ms" in stats["latency"]
        assert "p99_ms" in stats["latency"]
        assert "hit_rate" in stats["store"]

    def test_telemetry_export_shape(self, client):
        telemetry = client.telemetry()
        assert telemetry["schema"] == obs.SCHEMA
        assert "metrics" in telemetry and "spans" in telemetry


class TestEstimation:
    def test_matches_direct_estimator(self, client):
        job = _job("ripple_carry_adder", {"width": 8},
                   cycles=256, seed=42)
        served = client.estimate([job])["results"][0]
        assert served["ok"], served

        circuit = ripple_carry_adder(8)
        vectors = fastsim.random_packed_vectors(
            circuit.inputs, 256, seed=42)
        direct = PowerEstimator().gate(circuit, vectors)
        assert served["power"] == pytest.approx(direct.power, rel=1e-12)
        assert served["technique"] == direct.technique
        assert served["fingerprint"] == circuit.fingerprint()

    def test_event_driven_matches_direct(self, client):
        job = _job("counter", {"width": 6}, technique="event-driven",
                   cycles=128, seed=7)
        served = client.estimate([job])["results"][0]
        assert served["ok"], served
        circuit = counter(6)
        vectors = fastsim.random_packed_vectors(
            circuit.inputs, 128, seed=7)
        direct = PowerEstimator().gate(circuit, vectors,
                                       technique="event-driven")
        assert served["power"] == pytest.approx(direct.power, rel=1e-12)

    def test_analytical_techniques(self, client):
        jobs = [_job("parity_tree", {"width": 8},
                     technique="probabilistic"),
                _job("parity_tree", {"width": 8},
                     technique="monte-carlo", seed=3)]
        results = client.estimate(jobs)["results"]
        assert all(r["ok"] for r in results)
        direct = PowerEstimator().gate(parity_tree(8),
                                       technique="probabilistic")
        assert results[0]["power"] == pytest.approx(direct.power,
                                                    rel=1e-12)

    def test_netlist_job(self, client):
        circuit = ripple_carry_adder(4)
        job = {"circuit": {"netlist": circuit.to_dict()},
               "technique": "simulation", "cycles": 64, "seed": 5}
        served = client.estimate([job])["results"][0]
        assert served["ok"], served
        assert served["fingerprint"] == circuit.fingerprint()

    def test_results_follow_submission_order(self, client):
        jobs = [_job("ripple_carry_adder", {"width": w},
                     cycles=32, seed=1, id=f"w{w}")
                for w in (8, 2, 6, 4)]
        results = client.estimate(jobs)["results"]
        assert [r["id"] for r in results] == ["w8", "w2", "w6", "w4"]

    def test_vdd_freq_scaling(self, client):
        base = _job("parity_tree", {"width": 6}, cycles=64, seed=2)
        scaled = dict(base, vdd=2.0)
        r_base, r_scaled = client.estimate(
            [base, scaled])["results"]
        # Dynamic power scales as Vdd^2.
        assert r_scaled["power"] == pytest.approx(4 * r_base["power"],
                                                  rel=1e-9)

    def test_sharded_job_close_to_serial(self, client):
        serial = _job("ripple_carry_adder", {"width": 8},
                      cycles=512, seed=9)
        sharded = dict(serial, shards=4)
        r_serial, r_sharded = client.estimate(
            [serial, sharded])["results"]
        assert r_sharded["ok"] and r_sharded["shards"] == 4
        assert r_sharded["cycles"] == 512
        # Different stimulus partitions: statistically close, not equal.
        assert r_sharded["power"] == pytest.approx(r_serial["power"],
                                                   rel=0.15)

    def test_bad_jobs_do_not_poison_batch(self, client):
        jobs = [_job("ripple_carry_adder", {"width": 4},
                     cycles=32, seed=1, id="good"),
                {"circuit": {"generator": "os.system"},
                 "technique": "simulation", "id": "evil"},
                {"circuit": {"generator": "counter",
                             "params": {"width": 4}},
                 "technique": "nonsense", "id": "bad-technique"},
                {"circuit": {}, "id": "empty"}]
        out = client.estimate(jobs)
        by_id = {r["id"]: r for r in out["results"]}
        assert by_id["good"]["ok"] is True
        assert by_id["evil"]["ok"] is False
        assert "unknown generator" in by_id["evil"]["error"]
        assert by_id["bad-technique"]["ok"] is False
        assert by_id["empty"]["ok"] is False
        assert out["summary"]["ok"] == 1
        assert out["summary"]["failed"] == 3

    def test_repeat_batch_hits_store(self, client):
        jobs = [_job("ripple_carry_adder", {"width": 12},
                     cycles=128, seed=4),
                _job("counter", {"width": 9},
                     technique="event-driven", cycles=128, seed=4)]
        client.estimate(jobs)                 # warm the shared store
        summary = client.estimate(jobs)["summary"]
        assert summary["store_hits"] > 0
        assert summary["store_hit_rate"] > 0
        assert summary["store_misses"] == 0

    def test_jobs_spread_across_workers(self, client):
        # Each job runs the scalar reference engine for ~50-100 ms, so
        # one worker cannot drain the batch before the other picks up
        # work (tiny jobs could all finish on whichever worker is first).
        jobs = [_job("parity_tree", {"width": 8}, cycles=4096,
                     engine="reference", seed=i, id=i) for i in range(8)]
        results = client.estimate(jobs)["results"]
        assert len({r["pid"] for r in results}) > 1


class TestSelfCheck:
    def test_self_check_passes(self, capsys):
        assert serve._self_check(workers=2) == 0
        assert "self-check: OK" in capsys.readouterr().out


class TestObsFlush:
    def test_flush_noop_without_target(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
        assert obs.flush() is None

    def test_flush_writes_export(self, tmp_path):
        target = tmp_path / "telemetry.json"
        obs.enable()
        try:
            obs.inc("test.flush.marker")
            state = obs.flush(str(target))
        finally:
            obs.disable()
        assert state is not None
        on_disk = obs.load_export(str(target))
        assert on_disk["schema"] == obs.SCHEMA
        assert "test.flush.marker" in json.dumps(on_disk["metrics"])

    def test_flush_env_target(self, tmp_path, monkeypatch):
        target = tmp_path / "env-telemetry.json"
        monkeypatch.setenv("REPRO_OBS_EXPORT", str(target))
        obs.enable()
        try:
            assert obs.flush() is not None
        finally:
            obs.disable()
        assert target.exists()

    def test_periodic_export(self, tmp_path):
        target = tmp_path / "periodic.json"
        exporter = obs.start_periodic_export(0.05, str(target))
        assert exporter is not None
        try:
            obs.inc("test.periodic.marker")
            deadline = time.time() + 5.0
            while not target.exists() and time.time() < deadline:
                time.sleep(0.02)
            assert target.exists(), "periodic exporter never flushed"
        finally:
            obs.stop_periodic_export()
            obs.disable()
        # stop() leaves a final, complete export behind.
        assert obs.load_export(str(target))["schema"] == obs.SCHEMA

    def test_periodic_export_needs_target(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
        assert obs.start_periodic_export(0.05) is None

    def test_stop_is_idempotent(self):
        obs.stop_periodic_export()
        obs.stop_periodic_export()


class TestStoreSharing:
    def test_server_configures_singleton(self, server):
        st = artifact_store.get_store()
        assert st.root is not None
        assert str(st.root) == server._store_dir
        assert os.environ.get(artifact_store.ENV_DIR) == \
            server._store_dir

    def test_workers_share_disk_store(self, server, client):
        # A structure no other test uses: first encounter compiles
        # and publishes; any later worker must rehydrate from disk.
        job = _job("ripple_carry_adder", {"width": 15},
                   cycles=64, seed=8)
        first = client.estimate([job])["results"][0]
        assert first["store_misses"] > 0
        repeats = client.estimate([dict(job, seed=i, id=i)
                                   for i in range(4)])
        for r in repeats["results"]:
            assert r["ok"]
            assert r["store_misses"] == 0
        assert repeats["summary"]["store_hits"] >= 4
