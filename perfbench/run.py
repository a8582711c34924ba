"""End-to-end benchmark of the power-estimation stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gate_estimate --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``gate_estimate``, ``opt_sweep``, ``serve_batch`` and
``isa_energy`` (see ``workloads.py`` and ``BENCHMARK.json`` for what
each exercises and why).  The inputs are generated from ``--seed``.
All load comes from this one process: one closed loop, with pool and
server workers equal to the CPUs this process may run on.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it first measures untraced, then wraps each layer's
public calls (``layers.py``), sets up again so that the forked workers
inherit the wrappers, measures again and prints the per-layer metrics
of the traced window, including the tracing overhead.

Before the last line, the run prints one JSON line with the host
manifest, the sample counts and the error rate.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  Outputs
are checked after the timed region; each failed check counts as a
failed operation.  ``--smoke`` shrinks every input for a quick test.

The run writes only under ``.perfbench_run/`` in the checkout (the
stores and temporary files of the run) and removes it at the end.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: How many times a run sets up; ``setup_s`` reports the median.
SETUPS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["gate_estimate", "opt_sweep",
                                 "serve_batch", "isa_energy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for tests")
    return parser.parse_args(argv)


def make_run_dir(workload: str) -> Path:
    run_dir = ROOT / ".perfbench_run" / f"{workload}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True)
    # Pools and servers make their temporary directories here.
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None
    return run_dir


def measure(wl: Any, seconds: float) -> Dict[str, Any]:
    """Closed loop of timed operations until ``seconds`` are spent.

    Peak memory is read after the first operation, so that it does not
    grow with the number of operations that fit into the run (the
    search workers' cone caches fill with every sweep).
    """
    spent = 0.0
    attempted = failed = 0
    latencies: List[float] = []
    work: List[tuple] = []          # (units, seconds) per operation
    rss = None
    while spent < seconds:
        if attempted and rss is None:
            rss = peak_rss_mb()
        inputs = wl.prepare()
        start = time.perf_counter()
        try:
            done = wl.execute(inputs)
        except Exception as exc:   # a failed operation, not a crash
            print(f"operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            spent += time.perf_counter() - start
            attempted += 1
            failed += 1
            continue
        elapsed = time.perf_counter() - start
        spent += elapsed
        work.append((done.units, elapsed))
        attempted += done.attempted
        failed += done.failed
        latencies.extend(done.latencies)
    return {"rate": sliced_rate(work), "attempted": attempted,
            "failed": failed, "latencies": latencies,
            "rss_mb": peak_rss_mb() if rss is None else rss}


def sliced_rate(work: List[tuple], slices: int = 5) -> float:
    """Throughput: the median over consecutive slices of the operations.

    A short stall of the host moves one slice, not the result.
    """
    n = len(work)
    if n == 0:
        return 0.0
    k = min(slices, n)
    edges = [round(i * n / k) for i in range(k + 1)]
    rates = []
    for lo, hi in zip(edges, edges[1:]):
        part = work[lo:hi]
        rates.append(sum(u for u, _ in part) / sum(t for _, t in part))
    return statistics.median(rates)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children."""
    def hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pids = [os.getpid()]
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids += [int(p) for p in
                     (task / "children").read_text().split()]
        except OSError:
            pass
    return sum(hwm_kb(pid) for pid in pids) / 1024.0


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process this run started has ended."""
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    # Shared-memory transport starts a tracker process; stop it too.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def manifest(wl: Any, workers: int) -> Dict[str, Any]:
    from repro import store as artifact_store
    from repro.backend.core import numpy_or_none, resolve_engine
    from repro.logic.simulate import DEFAULT_ENGINE

    np = numpy_or_none()
    return {
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": np.__version__ if np is not None else None,
        "engine": resolve_engine(None, DEFAULT_ENGINE,
                                 cycles=wl.manifest_cycles),
        "store_max_bytes": artifact_store.get_store().max_bytes,
    }


def run(args: argparse.Namespace, run_dir: Path) -> Dict[str, Any]:
    import layers
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                            run_dir)
    report: Dict[str, Any] = {"workload": args.workload,
                              "seed": args.seed}
    setups = []
    try:
        for i in range(1 if args.smoke or args.trace else SETUPS):
            if i:
                wl.teardown()
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        report["manifest"] = manifest(wl, workloads.nproc())
        plain = measure(wl, args.seconds)
        if args.trace:
            wl.teardown()
            tracer = Tracer(run_dir / "trace")
            layers.install(tracer)
            wl.setup()
            before = tracer.snapshot()
            traced = measure(wl, args.seconds)
            delta = tracer.snapshot().minus(before)
        checked, mismatched = wl.check()
        extras = wl.layer_extras()
    finally:
        wl.teardown()
        reap_children()

    last = traced if args.trace else plain
    attempted = last["attempted"]
    failed = last["failed"] + mismatched
    rate = plain["rate"]
    report.update({
        "setup_runs_s": setups,
        "import_s": import_s,
        "throughput": {wl.throughput: rate},
        "latency_samples": len(last["latencies"]),
        "checked": checked,
        "error_rate": failed / attempted,
        "store_disk_mb": extras.get("store.disk_mb", 0.0),
    })
    if args.trace:
        extras["trace.overhead_pct"] = (rate / traced["rate"] - 1.0) * 100.0
        values = layers.metrics(delta, len(traced["latencies"]),
                                workloads.nproc(),
                                extras)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.METRICS}
    else:
        lat = plain["latencies"]
        p90 = lat[0] if len(lat) == 1 else \
            statistics.quantiles(lat, n=10, method="inclusive")[8]
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups),
                        "unit": "s"},
            "throughput_per_s": {"value": rate, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3,
                               "unit": "ms"},
            "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": plain["rss_mb"], "unit": "MB"},
        }
    print(json.dumps(report))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Measure the checkout's program, never an installed copy.
        print(f"no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Stores live in the run's own directories, never in a user's.
    os.environ.pop("REPRO_STORE", None)
    run_dir = make_run_dir(args.workload)
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass            # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
