"""Which public calls of which layer are timed, and the per-layer metrics.

Every metric is printed on every workload; a layer a workload does not
use reads 0 there.  Times and counts are divided by the number of
timed operations (an estimate, a sweep, a job or a program), so a
faster layer shows as a smaller number even when the run fits more
operations into its fixed length.  Times summed over pool workers can
exceed the wall time of the operation.

What each layer should move (``throughput_per_s`` counts estimates on
gate_estimate, candidates on opt_sweep, jobs on serve_batch and
simulated instructions on isa_energy):

=========================  ============================================
layer metrics              end-to-end metric, workload
=========================  ============================================
fastsim.*                  throughput on gate_estimate; setup_s and
                           throughput on serve_batch
fasttimer.*                latency_p90_ms on gate_estimate, serve_batch
backend.*                  explains kernel shifts on gate_estimate
estimator.self_s           latency_p50_ms on gate_estimate
incremental.*              throughput on opt_sweep
store.* (puts / gets)      throughput on opt_sweep / serve_batch
search.*                   throughput on opt_sweep
serve.*                    throughput, latency_p50_ms on serve_batch
probabilistic.density_s    latency_p90_ms on serve_batch
machine.*                  throughput on isa_energy
=========================  ============================================

A change to one layer should leave the workloads that do not use it
unchanged: isa_energy for everything but ``machine``; gate_estimate for
incremental, store, search and serve.
"""

from __future__ import annotations

from typing import Any, Dict

from tracer import Totals, Tracer, arg

#: (name, unit) of every per-layer metric, in print order.
METRICS = [
    ("fastsim.compile_s", "s/op"),
    ("fastsim.compile_calls", "1/op"),
    ("fastsim.collect_s", "s/op"),
    ("fastsim.gate_cycles_per_s", "1/s"),
    ("fasttimer.compile_s", "s/op"),
    ("fasttimer.activity_s", "s/op"),
    ("backend.resolve_calls", "1/op"),
    ("backend.numpy_share", "ratio"),
    ("estimator.self_s", "s/op"),
    ("incremental.delta_s", "s/op"),
    ("incremental.cone_keys_s", "s/op"),
    ("incremental.calls", "1/op"),
    ("incremental.reuse_ratio", "ratio"),
    ("incremental.full_fallbacks", "1/op"),
    ("store.get_s", "s/op"),
    ("store.put_s", "s/op"),
    ("store.gets", "1/op"),
    ("store.puts", "1/op"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "1/op"),
    ("store.disk_mb", "MB"),
    ("search.map_s", "s/op"),
    ("search.job_s", "s/op"),
    ("search.pool_efficiency", "ratio"),
    ("serve.request_s", "s"),
    ("serve.job_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("probabilistic.density_s", "s/op"),
    ("machine.run_s", "s/op"),
    ("machine.instructions", "1/op"),
    ("machine.encode_calls", "1/op"),
    ("machine.encodes_per_instr", "ratio"),
    ("trace.overhead_pct", "%"),
]


# -- hooks: counters derived from arguments and results -----------------
def _collect(tr: Tracer, args: tuple, kwargs: dict, _result: Any) -> None:
    circuit = arg(args, kwargs, 0, "circuit")
    vectors = arg(args, kwargs, 1, "vectors")
    tr.count("fastsim.gate_cycles", circuit.gate_count() * len(vectors))


def _resolve(tr: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    tr.count("backend.resolve_calls")
    if result == "numpy":
        tr.count("backend.numpy")


def _delta(tr: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    stats = result[1]
    tr.count("incremental.reused_nets", stats.reused_nets)
    tr.count("incremental.total_nets", stats.total_nets)
    if stats.source in ("full", "fallback"):
        tr.count("incremental.full_fallbacks")


def _store_get(tr: Tracer, args: tuple, _kwargs: dict, result: Any) -> None:
    tr.watch_store(args[0])
    if result is not None:
        tr.count("store.hits")


def _store_put(tr: Tracer, args: tuple, _kwargs: dict, _result: Any) -> None:
    tr.watch_store(args[0])


def _machine_run(tr: Tracer, _args: tuple, _kwargs: dict,
                 result: Any) -> None:
    tr.count("machine.instructions", result.instructions)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls; call before any pool starts."""
    from repro import serve, store
    from repro.backend import core as backend
    from repro.core.estimator import PowerEstimator
    from repro.estimation import probabilistic
    from repro.logic import fastsim, fasttimer, incremental
    from repro.optimization import search
    from repro.software import isa, machine

    fn = tracer.wrap_function
    fn(fastsim, "compile_circuit", "fastsim.compile")
    fn(fastsim, "collect_activity", "fastsim.collect", _collect)
    fn(fastsim, "collect_activity_backend", "fastsim.collect", _collect)
    fn(fasttimer, "compile_timed", "fasttimer.compile")
    fn(fasttimer, "timed_activity", "fasttimer.activity")
    fn(fasttimer, "timed_batch", "fasttimer.activity")
    fn(backend, "resolve_engine", "backend.resolve", _resolve, timed=False)
    fn(incremental, "delta_activity", "incremental.delta", _delta)
    fn(incremental, "cone_keys", "incremental.cone_keys")
    fn(search, "evaluate_candidates", "search.map")
    fn(search, "activity_job", "search.job")
    # The serve job is wrapped so each job is one outermost span in
    # its worker: the worker's totals are written once per job.
    fn(serve, "run_job", "serve.run_job")
    fn(probabilistic, "density_power_estimate", "probabilistic.density")
    fn(isa, "encode", "machine.encode_calls", timed=False)
    tracer.wrap_method(PowerEstimator, "gate", "estimator.gate")
    tracer.wrap_method(store.ArtifactStore, "get", "store.get", _store_get)
    tracer.wrap_method(store.ArtifactStore, "put", "store.put", _store_put)
    tracer.wrap_method(machine.Machine, "run", "machine.run", _machine_run)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(d: Totals, ops: int, workers: int,
            extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the totals of one traced window.

    ``extra`` holds what the workload measures itself: the serve
    client's figures, ``store.disk_mb`` and ``trace.overhead_pct``.
    """
    per = 1.0 / max(1, ops)
    out = {
        "fastsim.compile_s": d.wall("fastsim.compile") * per,
        "fastsim.compile_calls": d.calls("fastsim.compile") * per,
        "fastsim.collect_s": d.wall("fastsim.collect") * per,
        "fastsim.gate_cycles_per_s": _ratio(d.count("fastsim.gate_cycles"),
                                            d.wall("fastsim.collect")),
        "fasttimer.compile_s": d.wall("fasttimer.compile") * per,
        "fasttimer.activity_s": d.wall("fasttimer.activity") * per,
        "backend.resolve_calls": d.count("backend.resolve_calls") * per,
        "backend.numpy_share": _ratio(d.count("backend.numpy"),
                                      d.count("backend.resolve_calls")),
        "estimator.self_s": d.self_time("estimator.gate") * per,
        "incremental.delta_s": d.wall("incremental.delta") * per,
        "incremental.cone_keys_s": d.wall("incremental.cone_keys") * per,
        "incremental.calls": d.calls("incremental.delta") * per,
        "incremental.reuse_ratio": _ratio(
            d.count("incremental.reused_nets"),
            d.count("incremental.total_nets")),
        "incremental.full_fallbacks":
            d.count("incremental.full_fallbacks") * per,
        "store.get_s": d.wall("store.get") * per,
        "store.put_s": d.wall("store.put") * per,
        "store.gets": d.calls("store.get") * per,
        "store.puts": d.calls("store.put") * per,
        "store.hit_ratio": _ratio(d.count("store.hits"),
                                  d.calls("store.get")),
        "store.evictions": d.count("store.evictions") * per,
        "search.map_s": d.wall("search.map") * per,
        "search.job_s": d.wall("search.job") * per,
        "search.pool_efficiency": _ratio(
            d.wall("search.job"), d.wall("search.map") * workers),
        "serve.request_s": 0.0,
        "serve.job_ms": 0.0,
        "serve.wait_ms": 0.0,
        "serve.store_hit_ratio": 0.0,
        "probabilistic.density_s": d.wall("probabilistic.density") * per,
        "machine.run_s": d.wall("machine.run") * per,
        "machine.instructions": d.count("machine.instructions") * per,
        "machine.encode_calls": d.count("machine.encode_calls") * per,
        "machine.encodes_per_instr": _ratio(
            d.count("machine.encode_calls"),
            d.count("machine.instructions")),
        "store.disk_mb": 0.0,
        "trace.overhead_pct": 0.0,
    }
    out.update(extra)
    return out
