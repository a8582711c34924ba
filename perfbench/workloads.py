"""The four benchmark workloads.

The circuits are fixed; the stimuli, jobs and programs come from the
benchmark seed.  Each workload is driven by one closed loop: the next
operation starts when the previous one has returned.  The protocol:

- ``setup()`` builds everything anew (fresh circuits, fresh
  store, fresh pools) and warms up; ``teardown()`` releases it.  The
  runner may call the pair several times in one run.
- ``prepare()`` makes the next operation's inputs; it is not timed.
- ``execute(inputs)`` is the timed operation.  It returns a
  :class:`Done`.
- ``check()`` runs after the timed region and returns
  ``(operations checked, operations that failed the check)``.

Records kept for ``check()`` start empty at each ``setup()``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import store as artifact_store
from repro.core import PowerEstimator
from repro.estimation.software_power import TiwariModel
from repro.fsm import benchmark as fsm_benchmark
from repro.fsm.synthesis import synthesize_fsm
from repro.logic import fastsim, fasttimer, generators, incremental
from repro.logic.fastsim import PackedVectors, random_packed_vectors
from repro.logic.netlist import Circuit
from repro.optimization import search
from repro.optimization.clock_gating import build_gated_fsm
from repro.optimization.guarded_eval import (
    GuardCandidate,
    apply_guarded_evaluation,
)
from repro.optimization.precompute import (
    best_subset,
    build_precomputed_circuit,
    registered_baseline,
)
from repro.serve import EstimationServer
from repro.software import programs
from repro.software.machine import Machine

MASK32 = 0xFFFFFFFF


@dataclass
class Done:
    """What one timed operation did."""

    units: int                 # throughput units (estimates, jobs, ...)
    latencies: List[float]     # seconds, one per latency sample
    attempted: int = 1         # operations attempted
    failed: int = 0            # operations that failed


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prefix(vectors: PackedVectors, n: int) -> PackedVectors:
    """The first ``n`` cycles of a packed stimulus."""
    mask = (1 << n) - 1
    return PackedVectors(list(vectors.names), n,
                         {k: w & mask for k, w in vectors.words.items()})


class Workload:
    #: Name of the throughput unit (what one counted unit of work is).
    throughput: str = ""
    #: Cycle count the engine resolution of the host manifest uses.
    manifest_cycles: int = 0

    def __init__(self, seed: int, smoke: bool, run_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.run_dir = run_dir
        self.rng = random.Random(seed)
        self._setups = 0

    def fresh_dir(self, stem: str) -> Path:
        self._setups += 1
        path = self.run_dir / f"{stem}-{self._setups}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare(self) -> Any:
        return None

    def execute(self, inputs: Any) -> Done:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer figures the workload measures itself."""
        return {}


# ----------------------------------------------------------------------
class GateEstimate(Workload):
    """Alternating zero-delay and event-driven ``PowerEstimator.gate``."""

    throughput = "estimates_per_s"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        if self.smoke:
            self.shape = {"zero": (16, 200, 4, 4096), "event": (4, 1024)}
        else:
            self.shape = {"zero": (32, 3000, 16, 131072),
                          "event": (8, 32768)}
        self.manifest_cycles = self.shape["zero"][3]
        self.done: List[Tuple[str, int, float]] = []
        self.turn = 0

    def setup(self) -> None:
        # A fresh process store: plans compile again, as in a new process.
        artifact_store.set_store(None)
        n_in, n_gates, n_out, _ = self.shape["zero"]
        self.circuits = {
            "zero": generators.random_logic(n_in, n_gates, n_out),
            "event": generators.array_multiplier(self.shape["event"][0]),
        }
        fastsim.compile_circuit(self.circuits["zero"])
        fasttimer.compile_timed(self.circuits["event"])
        self.estimator = PowerEstimator()
        for kind in ("zero", "event"):
            self.execute((kind, 1, self._stimulus(kind, 1)))
        self.done = []

    def _stimulus(self, kind: str, seed: int) -> PackedVectors:
        cycles = self.shape[kind][-1]
        return random_packed_vectors(self.circuits[kind].inputs, cycles,
                                     seed=seed)

    def prepare(self) -> Any:
        kind = ("zero", "event")[self.turn % 2]
        self.turn += 1
        seed = self.rng.getrandbits(63)
        return kind, seed, self._stimulus(kind, seed)

    def execute(self, inputs: Any) -> Done:
        kind, seed, vectors = inputs
        technique = "simulation" if kind == "zero" else "event-driven"
        start = time.perf_counter()
        result = self.estimator.gate(self.circuits[kind], vectors,
                                     technique=technique)
        elapsed = time.perf_counter() - start
        self.done.append((kind, seed, result.power))
        return Done(1, [elapsed])

    def check(self) -> Tuple[int, int]:
        """Fast engine against the scalar reference on stimulus prefixes.

        The first two estimates of each kind are re-run on a short
        prefix of their stimulus with the default engine and with the
        reference engine; the powers must be equal to the last bit.
        """
        n = {"zero": 64 if self.smoke else 256,
             "event": 32 if self.smoke else 64}
        reference = PowerEstimator(engine="reference")
        sample = [d for d in self.done if d[0] == "zero"][:2] \
            + [d for d in self.done if d[0] == "event"][:2]
        failed = 0
        for kind, seed, power in sample:
            technique = "simulation" if kind == "zero" else "event-driven"
            circuit = self.circuits[kind]
            vectors = prefix(self._stimulus(kind, seed), n[kind])
            fast = self.estimator.gate(circuit, vectors, technique=technique)
            ref = reference.gate(circuit, vectors.to_vectors(),
                                 technique=technique)
            if fast.power != ref.power or not power > 0:
                failed += 1
        return len(sample), failed


# ----------------------------------------------------------------------
def guarded_bank(blocks: int, gates_per_block: int, ins_per_block: int,
                 seed: int) -> Circuit:
    """Independent guardable cones; a guarded variant dirties one block."""
    rng = random.Random(seed)
    c = Circuit(f"bank{blocks}x{gates_per_block}")
    for b in range(blocks):
        ins = c.add_inputs([f"b{b}_i{j}" for j in range(ins_per_block)])
        c.add_input(f"b{b}_g")
        nets = list(ins)
        last = ins[0]
        for _ in range(gates_per_block):
            a, d = rng.choice(nets), rng.choice(nets)
            last = c.add_gate(
                rng.choice(["AND2", "OR2", "XOR2", "NAND2", "NOR2"]),
                [a, d])
            nets.append(last)
        z = c.add_gate("BUF", [last], output=f"b{b}_z")
        c.add_gate("MUX2", [z, f"b{b}_g", f"b{b}_g"], output=f"b{b}_y")
        c.add_output(f"b{b}_y")
    return c


class OptSweep(Workload):
    """The 24-candidate multi-pass sweep through the search pool.

    The population is the one of ``benchmarks/bench_perf_search.py``:
    a guarded bank plus 16 guarded variants, the waiter FSM plus 3
    gated variants, a comparator baseline plus 2 precomputed variants.
    Every sweep draws fresh stimuli, so no cone record can be reused
    from an earlier sweep, and every sweep starts from an empty disk
    store directory (set up untimed), so every sweep sees the same
    store state.  The directory is the run's own, installed with
    ``repro.store.configure``; the workers share it exactly as they
    share the private directory a default pool makes for itself.
    """

    throughput = "candidates_per_s"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.blocks = 4 if self.smoke else 16
        self.cycles = {"bank": 8192 if self.smoke else 65536,
                       "fsm": 2048 if self.smoke else 8192,
                       "comp": 2048 if self.smoke else 8192}
        self.manifest_cycles = self.cycles["bank"]
        self.workers = nproc()
        self.trash = 0

    def _population(self) -> None:
        candidates = []
        bank = guarded_bank(self.blocks, 40 if self.smoke else 150, 8,
                            seed=11)
        candidates.append((bank, "bank"))
        for b in range(self.blocks):
            cand = GuardCandidate(guard=f"b{b}_g", guarded=f"b{b}_z",
                                  cone_gates=1, guard_probability=0.5)
            candidates.append((apply_guarded_evaluation(bank, cand),
                               "bank"))
        stg = fsm_benchmark("waiter")
        candidates.append((synthesize_fsm(stg), "fsm"))
        for fraction in (1.0, 0.6, 0.3):
            gated, _ = build_gated_fsm(stg, simplify_fraction=fraction)
            candidates.append((gated, "fsm"))
        comp = generators.magnitude_comparator(5)
        candidates.append((registered_baseline(comp, "gt"), "comp"))
        for size in (1, 2):
            candidates.append((build_precomputed_circuit(
                comp, "gt", best_subset(comp, "gt", size)), "comp"))
        self.candidates = candidates
        self.inputs = {}
        for circuit, key in candidates:
            self.inputs.setdefault(key, list(circuit.inputs))

    def setup(self) -> None:
        self.store = artifact_store.configure(
            root=self.fresh_dir("sweep-store"))
        incremental.clear_cone_cache()
        self._population()
        # Start the pool (workers fork here) on the three small
        # comparator candidates.
        comp = [c for c in self.candidates if c[1] == "comp"]
        stimuli = {"comp": random_packed_vectors(self.inputs["comp"], 256,
                                                 seed=1)}
        search.evaluate_candidates(search.activity_job, comp,
                                   stimuli=stimuli, workers=self.workers,
                                   label="perfbench-warmup")
        self.sweeps: List[Tuple[Dict[str, PackedVectors], list]] = []

    def teardown(self) -> None:
        search.shutdown_pool()
        artifact_store.configure(root=None)

    def prepare(self) -> Any:
        # Every sweep starts from an empty disk store.  The full one is
        # moved aside, not deleted: deleting thousands of files makes
        # the file system busy while the next sweep is timed.
        self.trash += 1
        self.store.root.rename(self.run_dir / f"trash-{self.trash}")
        self.store.root.mkdir()
        return {key: random_packed_vectors(names, self.cycles[key],
                                           seed=self.rng.getrandbits(63))
                for key, names in self.inputs.items()}

    def execute(self, stimuli: Any) -> Done:
        start = time.perf_counter()
        reports = search.evaluate_candidates(
            search.activity_job, self.candidates, stimuli=stimuli,
            extras={"incremental": True}, workers=self.workers,
            label="perfbench-sweep")
        elapsed = time.perf_counter() - start
        # The check needs the first and the latest sweep; keeping every
        # sweep would make memory grow with throughput.
        self.sweeps = self.sweeps[:1] + [(stimuli, reports)]
        n = len(self.candidates)
        return Done(n, [elapsed], attempted=n)

    def check(self) -> Tuple[int, int]:
        """Pooled reports of the first and last sweep against a serial
        walk (one process, ``workers=1``): every report bit-identical."""
        checked = failed = 0
        # The serial walk needs no disk store; leaving it out spares the
        # file system thousands of file creations and deletions.
        artifact_store.configure(root=None)
        for stimuli, pooled in self.sweeps:
            serial = search.evaluate_candidates(
                search.activity_job, self.candidates, stimuli=stimuli,
                extras={"incremental": True}, workers=1,
                label="perfbench-check")
            for a, b in zip(pooled, serial):
                checked += 1
                failed += not incremental.reports_equal(a, b)
        return checked, failed

    def layer_extras(self) -> Dict[str, float]:
        return {"store.disk_mb": self.store.disk_bytes() / 1e6}


# ----------------------------------------------------------------------
#: Generator circuits of the serve mix: (generator, params).
SIM_CIRCUITS = [
    ("ripple_carry_adder", {"width": 8}),
    ("carry_lookahead_adder", {"width": 8}),
    ("array_multiplier", {"width": 4}),
    ("magnitude_comparator", {"width": 6}),
    ("parity_tree", {"width": 16}),
    ("counter", {"width": 6}),
]
EVENT_CIRCUITS = [
    ("ripple_carry_adder", {"width": 8}),
    ("magnitude_comparator", {"width": 6}),
    ("parity_tree", {"width": 16}),
    ("counter", {"width": 6}),
]
PROB_CIRCUITS = [
    ("parity_tree", {"width": 8}),
    ("equality_comparator", {"width": 8}),
    ("ripple_carry_adder", {"width": 4}),
]


class ServeBatch(Workload):
    """One client sending fixed-size batches to an in-process server.

    About 80% of jobs are zero-delay simulations of a few generator
    circuits, 15% event-driven, 5% probabilistic, and 1.5% name a
    ``random_logic`` seed not seen before (a cold compile and a store
    write).  A job's latency runs from sending its batch to the arrival
    of its NDJSON line.
    """

    throughput = "jobs_per_s"
    manifest_cycles = 1024

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.batch = 16 if self.smoke else 40
        self.workers = nproc()
        self.next_id = 0
        self.server = None

    def _job(self) -> Dict[str, Any]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.015:
            job = {"circuit": {"generator": "random_logic",
                               "params": {"n_inputs": 16, "n_gates": 120,
                                          "n_outputs": 6,
                                          "seed": rng.getrandbits(40)}},
                   "technique": "simulation", "cycles": 512}
        elif roll < 0.065:
            name, params = rng.choice(PROB_CIRCUITS)
            job = {"circuit": {"generator": name, "params": params},
                   "technique": "probabilistic"}
        elif roll < 0.215:
            name, params = rng.choice(EVENT_CIRCUITS)
            job = {"circuit": {"generator": name, "params": params},
                   "technique": "event-driven", "cycles": 256}
        else:
            name, params = rng.choice(SIM_CIRCUITS)
            job = {"circuit": {"generator": name, "params": params},
                   "technique": "simulation",
                   "cycles": rng.choice((256, 512, 1024))}
        if job["technique"] != "probabilistic":
            job["seed"] = rng.getrandbits(31)
        job["id"] = self.next_id
        self.next_id += 1
        return job

    def setup(self) -> None:
        self.store_dir = self.fresh_dir("serve-store")
        self.server = EstimationServer(workers=self.workers,
                                       store_dir=str(self.store_dir))
        self.server.start()
        # Warm-up: every circuit and technique of the mix, twice, so
        # the plan store holds every plan the hot jobs read.
        warm = [{"circuit": {"generator": name, "params": params},
                 "technique": technique, "cycles": 256, "seed": 1}
                for circuits, technique in ((SIM_CIRCUITS, "simulation"),
                                            (EVENT_CIRCUITS, "event-driven"),
                                            (PROB_CIRCUITS, "probabilistic"))
                for name, params in circuits]
        for rep in range(2):
            for i, job in enumerate(warm):
                job["id"] = f"warm{rep}-{i}"
            self._post(warm)
        #: Jobs the check recomputes: id -> (job, served result).
        self.sampled: Dict[int, Tuple[Dict[str, Any], Any]] = {}
        #: Running sums of what the client sees.
        self.client = dict.fromkeys(
            ("batches", "request_s", "jobs", "job_ms", "wait_ms", "hits",
             "misses"), 0.0)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        artifact_store.configure(root=None)

    def _post(self, jobs: List[Dict[str, Any]]
              ) -> Tuple[float, List[Tuple[float, Dict[str, Any]]]]:
        """Send one batch; return (send time, [(arrival, result)])."""
        host, port = self.server.address
        conn = HTTPConnection(host, port, timeout=120)
        try:
            body = json.dumps({"jobs": jobs}).encode()
            sent = time.perf_counter()
            conn.request("POST", "/estimate", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"HTTP {resp.status}: {resp.read()!r}")
            lines = []
            while True:
                raw = resp.readline()
                if not raw:
                    break
                arrived = time.perf_counter()
                record = json.loads(raw)
                if "summary" not in record:
                    lines.append((arrived, record))
            return sent, lines
        finally:
            conn.close()

    def prepare(self) -> Any:
        return [self._job() for _ in range(self.batch)]

    def execute(self, jobs: Any) -> Done:
        sent, lines = self._post(jobs)
        done = lines[-1][0] if lines else time.perf_counter()
        served = {record["id"]: record for _, record in lines}
        for job in jobs:
            cold = job["circuit"]["generator"] == "random_logic"
            if cold or job["id"] % 25 == 0:
                self.sampled[job["id"]] = (job, served.get(job["id"]))
        latencies = []
        c = self.client
        for arrived, record in lines:
            latency = arrived - sent
            latencies.append(latency)
            if record.get("ok"):
                c["jobs"] += 1
                c["job_ms"] += record["elapsed_ms"]
                c["wait_ms"] += latency * 1e3 - record["elapsed_ms"]
                c["hits"] += record["store_hits"]
                c["misses"] += record["store_misses"]
        c["batches"] += 1
        c["request_s"] += done - sent
        ok = sum(1 for _, r in lines if r.get("ok"))
        return Done(ok, latencies, attempted=len(jobs),
                    failed=len(jobs) - ok)

    def check(self) -> Tuple[int, int]:
        """Served power against a direct ``PowerEstimator`` call, on
        every 25th job and on every cold-compile job."""
        estimator = PowerEstimator()
        failed = 0
        for job, served in self.sampled.values():
            spec = job["circuit"]
            circuit = getattr(generators, spec["generator"])(
                **spec["params"])
            if job["technique"] == "probabilistic":
                direct = estimator.gate(circuit, technique="probabilistic")
            else:
                vectors = random_packed_vectors(
                    circuit.inputs, job["cycles"], seed=job["seed"])
                direct = estimator.gate(circuit, vectors,
                                        technique=job["technique"])
            if served is None or not served.get("ok") \
                    or served["power"] != direct.power:
                failed += 1
        return len(self.sampled), failed

    def layer_extras(self) -> Dict[str, float]:
        c = self.client
        jobs = max(1.0, c["jobs"])
        lookups = max(1.0, c["hits"] + c["misses"])
        return {
            "serve.request_s": c["request_s"] / max(1.0, c["batches"]),
            "serve.job_ms": c["job_ms"] / jobs,
            "serve.wait_ms": c["wait_ms"] / jobs,
            "serve.store_hit_ratio": c["hits"] / lookups,
            "store.disk_mb": artifact_store.ArtifactStore(
                self.store_dir).disk_bytes() / 1e6,
        }


# ----------------------------------------------------------------------
class IsaEnergy(Workload):
    """``Machine.run`` plus ``TiwariModel.estimate`` over a program mix."""

    throughput = "sim_instr_per_s"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.mix = self._programs(6 if self.smoke else 60)
        self.order = 0

    def _programs(self, count: int) -> List[Dict[str, Any]]:
        """Random programs, FIR filters and dot products in equal numbers,
        with their data and the expected architectural result.  Sizes
        vary within narrow ranges, so every seed gives a similar mix."""
        rng = self.rng
        small = self.smoke
        mix = []
        for i in range(count):
            kind = ("random", "fir", "dot")[i % 3]
            if kind == "random":
                length = rng.randint(100, 300) if small \
                    else rng.randint(800, 1600)
                mix.append({"kind": kind, "memory": {}, "expect": None,
                            "program": programs.random_program(
                                length, seed=rng.getrandbits(31))})
            elif kind == "fir":
                taps = [rng.randint(1, 255)
                        for _ in range(rng.randint(6, 10))]
                n = rng.randint(8, 16) if small else rng.randint(48, 96)
                x = [rng.getrandbits(16) for _ in range(n + len(taps))]
                expect = tuple(
                    sum(c * x[i + k] for k, c in enumerate(taps)) & MASK32
                    for i in range(n))
                mix.append({"kind": kind, "n": n,
                            "memory": {0: x, 3000: taps}, "expect": expect,
                            "program": programs.fir_program(taps, n)})
            else:
                n = rng.randint(16, 32) if small else rng.randint(192, 384)
                a = [rng.getrandbits(16) for _ in range(n)]
                b = [rng.getrandbits(16) for _ in range(n)]
                expect = sum(p * q for p, q in zip(a, b)) & MASK32
                mix.append({"kind": kind, "memory": {0: a, 1024: b},
                            "expect": expect,
                            "program": programs.dot_product(n)})
        rng.shuffle(mix)
        return mix

    def setup(self) -> None:
        opcodes = ["ADD", "MUL", "LD", "ST", "ADDI", "NOP"] \
            if self.smoke else None
        self.model = TiwariModel.characterize(opcodes=opcodes)
        self.outcomes: List[Tuple[int, Any]] = []
        for index in range(min(3, len(self.mix))):
            self.execute(index)
        self.outcomes = []

    def prepare(self) -> Any:
        index = self.order % len(self.mix)
        self.order += 1
        return index

    def execute(self, index: Any) -> Done:
        entry = self.mix[index]
        machine = Machine()
        for base, values in entry["memory"].items():
            machine.load_memory(base, values)
        start = time.perf_counter()
        stats = machine.run(entry["program"])
        energy = self.model.estimate(stats)
        elapsed = time.perf_counter() - start
        if entry["kind"] == "dot":
            outcome = machine.registers[1]
        elif entry["kind"] == "fir":
            outcome = tuple(machine.memory[2048:2048 + entry["n"]])
        else:
            outcome = stats.halted and energy > 0
        self.outcomes.append((index, outcome))
        return Done(stats.instructions, [elapsed])

    def check(self) -> Tuple[int, int]:
        """Every dot product and FIR result against Python arithmetic;
        every random program must halt with positive energy."""
        failed = 0
        for index, outcome in self.outcomes:
            expect = self.mix[index]["expect"]
            failed += outcome != (True if expect is None else expect)
        return len(self.outcomes), failed


WORKLOADS = {
    "gate_estimate": GateEstimate,
    "opt_sweep": OptSweep,
    "serve_batch": ServeBatch,
    "isa_energy": IsaEnergy,
}
