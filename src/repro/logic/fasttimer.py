"""Compiled tick-wheel timed simulation (the fast timed engine).

:class:`~repro.logic.eventsim.EventSimulator`'s reference engine pops
one event at a time through per-gate dict traffic — the last
unaccelerated layer after fastsim's zero-delay engine.  This module
compiles the *whole timed schedule* ahead of time and then evaluates
N cycles bit-parallel, one packed word per (net, tick):

- :func:`compile_timed` discretizes the cell library's transport
  delays onto the integer tick grid of
  :func:`repro.logic.eventsim.tick_grid` and levelizes the circuit
  into a *static* per-tick schedule: a gate is (re)evaluated at every
  tick at which any of its fan-in nets can change, and its output is
  applied ``delay_ticks`` later.  The schedule is lowered to one
  ``exec``-compiled, branch-free straight-line function — a timing
  wheel whose slots are inlined apply/evaluate kernels on packed
  words.  The popcount is injected (``int.bit_count`` for bignum
  words, :meth:`~repro.backend.core.Backend.popcount` for lane
  arrays), so the one kernel serves every backend.
- The key observation that makes lanes independent: the *settled*
  value of every net in a cycle is delay-free (equal to the
  zero-delay evaluation), so fastsim's packed functional simulation
  supplies each lane's start and end values and the timed evolution
  of cycle ``t`` never couples to cycle ``t+1``.  Bit ``i`` of every
  kernel word therefore replays cycle ``i``'s waveform, and popcounts
  tally toggles and glitches instead of per-event Python; events are
  the sum of the toggle increments.
- The static schedule evaluates a superset of the dynamic engine's
  gate evaluations; the extra evaluations see unchanged inputs and
  apply unchanged outputs, so every counter stays bit-identical to
  the reference (the equivalence suite in ``tests/test_fasttimer.py``
  checks this per net).

:func:`timed_batch` runs one batch and returns raw
:class:`BatchCounts` for ``EventSimulator`` to merge;
:func:`timed_activity` is the standalone batch API with optional
multiprocessing sharding of long vector streams (lanes are
independent given the functional settle, so shards simply re-derive
their boundary state from the packed functional words and partial
reports merge by summation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro import store as artifact_store
from repro.backend.core import Backend, BackendUnavailable, \
    default_engine, get_backend, resolve_engine
from repro.logic import fastsim
from repro.logic.fastsim import CompileError, PackedVectors, Stimulus
from repro.logic.netlist import Circuit
from repro.util.bits import popcount

#: C-level popcount for bignum words (``int.bit_count`` is 3.10+).
_bit_count = getattr(int, "bit_count", popcount)
_BIGNUM = get_backend("bignum")

#: Straight-line kernel size cap: total scheduled applies+evaluations.
#: Past this the generated function stops being worth exec-compiling;
#: the dispatcher falls back to the reference engine.
_MAX_OPS = 60_000


@dataclass
class TimedPlan:
    """Compiled tick-wheel schedule for one circuit.

    ``kernel(C, N, T, M, PC)`` advances one packed window: ``C`` holds
    the per-slot start-value words (cycle-start state of every lane),
    ``N`` the per-slot settled words (the functional values the lanes
    settle to; only root slots are read), ``T`` the per-slot toggle
    accumulators (plain ints), ``M`` the lane mask and ``PC`` the
    popcount of one word.  It mutates ``C`` to the settled values and
    adds every applied value change into ``T``; the kernel is
    branch-free, so the same code runs on bignum words (``PC`` is
    ``int.bit_count``) and on lane arrays (``PC`` is
    :meth:`~repro.backend.core.Backend.popcount`).  Events are the sum
    of the toggle increments, so callers read them off a fresh ``T``.
    """

    circuit: Circuit
    version: int
    func: fastsim.CompiledCircuit     # zero-delay plan (slots, caps...)
    quantum: object                   # Fraction; tick length in delay units
    n_ticks: int                      # schedule horizon (last apply tick)
    n_ops: int                        # applies + evaluations in the kernel
    kernel: Callable[..., None]


#: Artifact kind under which timed plans land in :mod:`repro.store`.
#: The kind is part of the store key; it changes with the kernel's
#: calling convention so entries written for an older signature are
#: never rehydrated.
STORE_KIND = "fasttimer2"


def _rehydrate_timed(circuit: Circuit, version: int,
                     payload: Dict[str, object]) -> Optional[TimedPlan]:
    """Rebuild a tick-wheel plan from a store payload, or ``None``.

    The kernel indexes slots positionally, so the payload's slot
    layout must match the functional plan bound to this circuit (it
    always does when both artifacts came from the same compile; a
    mismatch is treated as a miss and triggers a clean recompile).
    """
    try:
        func = fastsim.compile_circuit(circuit)
    except CompileError:
        return None
    if payload.get("nets") != func.nets:
        return None
    try:
        kernel = artifact_store.load_function(
            payload["kernel"], "__fasttimer_eval")
        num, den = payload["quantum"]
        return TimedPlan(
            circuit=circuit,
            version=version,
            func=func,
            quantum=Fraction(int(num), int(den)),
            n_ticks=int(payload["n_ticks"]),
            n_ops=int(payload["n_ops"]),
            kernel=kernel,
        )
    except Exception:
        return None


def compile_timed(circuit: Circuit) -> TimedPlan:
    """Lower ``circuit`` to its tick-wheel plan.

    Cached like the zero-delay plan: on the circuit object, then in
    the content-addressed plan store (fingerprint-keyed, process-
    crossing with ``REPRO_STORE``), then compiled fresh and published
    back.
    """
    from repro.logic import eventsim

    plan = getattr(circuit, "_fasttimer_plan", None)
    version = getattr(circuit, "_version", 0)
    if isinstance(plan, TimedPlan) and plan.version == version:
        return plan

    st = artifact_store.get_store()
    fp = circuit.fingerprint()
    payload = st.get(fp, STORE_KIND)
    if payload is not None:
        with obs.span("fasttimer.rehydrate", circuit=circuit.name):
            plan = _rehydrate_timed(circuit, version, payload)
        if plan is not None:
            obs.inc("fasttimer.rehydrates")
            circuit._fasttimer_plan = plan
            return plan

    with obs.span("fasttimer.compile", circuit=circuit.name) as sp:
        func = fastsim.compile_circuit(circuit)    # raises CompileError
        grid = eventsim.tick_grid(circuit)
        slot = func.slot
        order = circuit.topological_gates()

        # Arrival ticks: the set of ticks at which a net can change.
        # Roots (primary inputs and latch outputs) change only at the
        # cycle boundary, tick 0; a gate output changes delay_ticks
        # after any tick at which the gate is evaluated, and the gate
        # is evaluated whenever any fan-in can change.
        arrivals: Dict[str, frozenset] = {n: frozenset((0,))
                                          for n in circuit.inputs}
        for latch in circuit.latches:
            arrivals[latch.output] = frozenset((0,))
        # schedule[tick] = (applies, evals): slots applied at the tick
        # and gates evaluated at it (both in topological order).
        schedule: Dict[int, Tuple[List[int], List]] = {0: (
            [slot[n] for n in circuit.inputs]
            + [slot[latch.output] for latch in circuit.latches], [])}

        n_ops = len(circuit.inputs) + len(circuit.latches)
        for gate in order:
            eval_ticks: set = set()
            for name in gate.inputs:
                eval_ticks |= arrivals.get(name, frozenset())
            d = grid.ticks[gate.output]
            arrivals[gate.output] = frozenset(t + d for t in eval_ticks)
            n_ops += 2 * len(eval_ticks) if d else len(eval_ticks)
            if n_ops > _MAX_OPS:
                raise CompileError(
                    f"timed schedule for {circuit.name!r} exceeds "
                    f"{_MAX_OPS} operations")
            for t in sorted(eval_ticks):
                schedule.setdefault(t, ([], []))[1].append(gate)
                if d:
                    schedule.setdefault(t + d, ([], []))[0].append(
                        slot[gate.output])

        # Branch-free applies: every apply adds its popcount (zero when
        # nothing changed) and stores the new word, so one rendering
        # serves bignum and lane-array words alike.
        lines = ["def __fasttimer_eval(C, N, T, M, PC):"]

        def emit_apply(s: int, src: str) -> None:
            lines.append(f"    T[{s}] += PC(C[{s}] ^ {src})")
            lines.append(f"    C[{s}] = {src}")

        emitted_pending = set()
        for tick in sorted(schedule):
            applies, evals = schedule[tick]
            # Phase 1: apply every value arriving at this tick
            # simultaneously; count the lanes in which it changes.
            for s in applies:
                emit_apply(s, f"N[{s}]" if tick == 0 else f"p{s}_{tick}")
            # Phase 2: evaluate affected gates once against the
            # updated values, topological order; zero-delay cells
            # apply inline so later gates in the tick see them.
            for gate in evals:
                s = slot[gate.output]
                expr = fastsim._expression(
                    gate.spec, [f"C[{slot[n]}]" for n in gate.inputs])
                d = grid.ticks[gate.output]
                if d == 0:
                    lines.append(f"    _v = {expr}")
                    emit_apply(s, "_v")
                else:
                    name = f"p{s}_{tick + d}"
                    if name in emitted_pending:
                        raise CompileError(
                            f"duplicate writer for net slot {s} at tick "
                            f"{tick + d}")
                    emitted_pending.add(name)
                    lines.append(f"    {name} = {expr}")
        lines.append("    return")      # keeps an empty schedule valid
        namespace: Dict[str, object] = {}
        source = "\n".join(lines)
        code = compile(source, f"<fasttimer:{circuit.name}>", "exec")
        exec(code, namespace)

        n_ticks = max(schedule)
        sp.set("gates", circuit.gate_count())
        sp.set("ticks", n_ticks)
        sp.set("ops", n_ops)
        sp.set("source_bytes", len(source))
        obs.inc("fasttimer.compiles")

    plan = TimedPlan(
        circuit=circuit,
        version=version,
        func=func,
        quantum=grid.quantum,
        n_ticks=n_ticks,
        n_ops=n_ops,
        kernel=namespace["__fasttimer_eval"],  # type: ignore[arg-type]
    )
    quantum = Fraction(grid.quantum)
    st.put(fp, STORE_KIND, {
        "nets": func.nets,
        "quantum": [quantum.numerator, quantum.denominator],
        "n_ticks": n_ticks,
        "n_ops": n_ops,
        "kernel": artifact_store.code_blob(
            source, f"<fasttimer:{fp[:12]}>", code),
    })
    circuit._fasttimer_plan = plan
    return plan


# ----------------------------------------------------------------------
# Batch evaluation
# ----------------------------------------------------------------------
@dataclass
class BatchCounts:
    """Raw timed counters for one batch, ready to merge.

    Counted (non-settling) lanes feed ``toggles``/``glitches``; every
    lane feeds ``ones``/``events``.  ``latch_edges_lo`` is the enabled
    clocked-latch count summed over all batch cycles but the last;
    ``latch_edges_last`` the count in the final cycle (committed by
    the merger once a later cycle exists — the zero-delay clock-edge
    convention).
    """

    n: int
    toggles: Dict[str, int]
    ones: Dict[str, int]
    events: int
    glitches: int
    latch_edges_lo: int
    latch_edges_last: int
    final_values: Dict[str, int]
    final_state: Dict[str, int]


def _settled_words(plan: fastsim.CompiledCircuit, in_words: List[object],
                   n: int, state: Optional[Dict[str, int]],
                   be: Backend = _BIGNUM) -> List[object]:
    """Per-slot packed functional values over the whole batch.

    ``in_words`` must already be ``be`` words.  Bignum words keep their
    own settle loop: per-latch backend calls made a 256-cycle
    ``counter(6)`` event job ~1.5x slower through the iterator.
    """
    if be is _BIGNUM:
        settled = [0] * plan.n_slots
        for V, base, c, mask in fastsim._iter_chunks(plan, in_words, n,
                                                     state):
            for i in range(plan.n_slots):
                w = V[i] & mask
                if w:
                    settled[i] |= w << base
        return settled
    settled = [be.zeros(n) for _ in range(plan.n_slots)]
    for V, base, c, mask in fastsim._iter_chunks_backend(plan, in_words,
                                                         n, state, be):
        for i in range(plan.n_slots):
            # Chunk words leave the iterator masked to c bits, and
            # bases stay 64-aligned, so the blit needs no re-mask.
            settled[i] = be.blit(settled[i], V[i], base)
    return settled


def _boundary(func: fastsim.CompiledCircuit, settled: List[object], t: int,
              get_bit: Callable[[object, int], int]
              ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Settled net values of lane ``t`` and the latch state it hands on."""
    values = {net: get_bit(settled[i], t) for i, net in enumerate(func.nets)}
    state: Dict[str, int] = {}
    for lp, latch in zip(func.latches, func.circuit.latches):
        hold = lp.enable_slot >= 0 and not get_bit(settled[lp.enable_slot], t)
        state[latch.output] = get_bit(
            settled[lp.out_slot if hold else lp.data_slot], t)
    return values, state


def timed_batch(circuit: Circuit, vectors: Stimulus,
                prev_values: Dict[str, int],
                state: Optional[Dict[str, int]],
                settling_first: bool,
                backend: Optional[str] = None) -> BatchCounts:
    """Run one packed timed batch.

    ``prev_values`` gives every net's value before the first cycle
    (each lane's waveform starts from the previous cycle's settled
    values); ``state`` the latch state entering the first cycle.
    With ``settling_first`` the first lane only establishes initial
    values: it contributes ``events``/``ones`` but not
    ``toggles``/``glitches``, exactly like the reference engine's
    settling step.  ``backend`` selects the word representation
    (``None``/"bignum" for the native path, "numpy" for lane arrays);
    one body runs over the :class:`~repro.backend.core.Backend`
    primitives, so counters are bit-identical either way.  A backend
    that cannot run the batch (numpy missing, or a lane backend
    declining a tight-feedback settle) degrades to bignum words here,
    so callers never see
    :class:`~repro.backend.core.BackendUnavailable`.
    """
    plan = compile_timed(circuit)
    func = plan.func
    be = _BIGNUM
    if backend is not None:
        try:
            be = get_backend(backend)
        except BackendUnavailable:
            pass
    try:
        in_words, n = fastsim._pack_inputs_backend(circuit, vectors, be)
    except KeyError as exc:
        # The reference engine lets unspecified inputs hold their
        # previous value; the packed path cannot, so defer to it.
        raise CompileError(f"stimulus missing input {exc}") from exc

    nets = func.nets
    empty = {net: 0 for net in nets}
    if n == 0:
        return BatchCounts(0, dict(empty), dict(empty), 0, 0, 0, 0,
                           dict(prev_values), dict(state or {}))

    with obs.span("fasttimer.batch", circuit=circuit.name,
                  backend=be.name) as sp:
        try:
            settled = _settled_words(func, in_words, n, state, be)
        except BackendUnavailable:
            # A lane backend declined a tight-feedback settle.
            be = _BIGNUM
            sp.set("backend", be.name)
            settled = _settled_words(
                func, fastsim._pack_inputs(circuit, vectors)[0], n, state)
        PC = _bit_count if be is _BIGNUM else be.popcount
        carries = [1 if prev_values[net] else 0 for net in nets]
        n_slots = func.n_slots
        toggles = [0] * n_slots
        events = 0
        glitches = 0
        width = n - 1 if settling_first else n      # counted lanes

        if settling_first:
            # Settling lane: a single cycle on plain ints, scratch
            # toggle accumulators that only feed the event count.
            T0 = [0] * n_slots
            plan.kernel(carries, [be.get_bit(w, 0) for w in settled], T0,
                        1, _bit_count)
            events += sum(T0)
            # Counted lane k (cycle k + 1) starts from settled lane k.
            C = [be.extract(w, 0, width) for w in settled]
            N = [be.extract(w, 1, width) for w in settled]
        else:
            # Lane k starts from lane k - 1's settled values, lane 0
            # from the values before the batch.
            C = [be.shift_in_time(w, n, c)
                 for w, c in zip(settled, carries)]
            N = settled
        if width:
            # One toggle per lane whose settled value changed; every
            # other applied change is a glitch.
            settled_changes = sum(PC(c ^ v) for c, v in zip(C, N))
            plan.kernel(C, N, toggles, be.ones_mask(width), PC)
            counted = sum(toggles)
            events += counted
            glitches = counted - settled_changes

        # Settled words leave the chunk iterators masked to n bits.
        ones = [PC(w) for w in settled]

        edges_lo = edges_last = 0
        lowmask = be.low_mask(n - 1, n)
        for lp in func.latches:
            if lp.clocked and lp.enable_slot < 0:
                edges_lo += n - 1
                edges_last += 1
            elif lp.clocked:
                e = settled[lp.enable_slot]
                edges_lo += PC(e & lowmask)
                edges_last += be.get_bit(e, n - 1)

        final_values, final_state = _boundary(func, settled, n - 1,
                                              be.get_bit)

        sp.add("lanes", n)
        sp.set("ops", plan.n_ops)
    if obs.enabled():
        obs.inc("fasttimer.lanes", n)
        if be is not _BIGNUM:
            obs.inc(f"fasttimer.backend.{be.name}", n)
        if sp.duration > 0:
            # Packed-word throughput: kernel ops times lanes per wall
            # second — the engine's native work unit.
            obs.gauge("fasttimer.words_per_s",
                      round(plan.n_ops * n / sp.duration, 1))

    return BatchCounts(
        n=n,
        toggles=dict(zip(nets, toggles)),
        ones=dict(zip(nets, ones)),
        events=events,
        glitches=glitches,
        latch_edges_lo=edges_lo,
        latch_edges_last=edges_last,
        final_values=final_values,
        final_state=final_state,
    )


# ----------------------------------------------------------------------
# Standalone batch API + multiprocessing sharding
# ----------------------------------------------------------------------
#: Lanes below which a shard is not worth a worker process.
_MIN_SHARD = 256


def _shard_slice(packed: PackedVectors, lo: int, hi: int) -> PackedVectors:
    m = (1 << (hi - lo)) - 1
    return PackedVectors(
        packed.names, hi - lo,
        {name: (w >> lo) & m for name, w in packed.words.items()})


def _timed_batch_star(args) -> BatchCounts:
    """Module-level worker target (must be picklable)."""
    return timed_batch(*args)


def timed_activity(circuit: Circuit, vectors: Stimulus,
                   workers: Optional[int] = None,
                   engine: Optional[str] = None):
    """Timed :class:`ActivityReport` for ``vectors`` from reset.

    Equivalent to ``EventSimulator(circuit, engine=engine).run(vectors)``
    on a fresh simulator.  ``engine`` takes the full
    "fast"/"numpy"/"reference"/"auto" set (default: the session
    engine, see :func:`repro.backend.core.default_engine`).  With
    ``workers > 1`` (compiled engines only) the lanes are split into
    contiguous shards evaluated in parallel processes: each shard
    re-derives its boundary state from the packed functional settle,
    partial counts merge by summation, and the result is bit-identical
    to the serial run.
    """
    from repro.logic import gates as gatelib
    from repro.logic.eventsim import EventSimulator
    from repro.logic.simulate import ActivityReport, evaluate

    if not isinstance(vectors, PackedVectors):
        vecs = list(vectors)
        try:
            vectors = PackedVectors.from_vectors(circuit.inputs, vecs)
        except KeyError:
            # Unspecified inputs hold their value only in the
            # reference engine; let the simulator handle it.
            return EventSimulator(circuit, engine=engine).run(vecs)
    n = vectors.n
    resolved = resolve_engine(engine, default_engine(), cycles=n,
                              sequential=bool(circuit.latches))
    if resolved == "reference" or not workers or workers <= 1 \
            or n < 2 * _MIN_SHARD:
        return EventSimulator(circuit, engine=resolved).run(vectors)
    shard_backend = "numpy" if resolved == "numpy" else None

    try:
        plan = compile_timed(circuit)
        in_words, _ = fastsim._pack_inputs(circuit, vectors)
    except (CompileError, KeyError):
        return EventSimulator(circuit, engine=resolved).run(vectors)

    with obs.span("fasttimer.sharded", circuit=circuit.name,
                  workers=workers) as sp:
        func = plan.func
        nets = func.nets
        reset_state = {l.output: l.init for l in circuit.latches}
        reset_values = evaluate(
            circuit, {name: 0 for name in circuit.inputs}, reset_state)

        # One cheap functional pass gives every shard its boundary
        # conditions: the settled values just before its first lane
        # and the latch state entering it.
        settled = _settled_words(func, in_words, n, reset_state)

        n_shards = min(workers, max(1, n // _MIN_SHARD))
        bounds = [round(k * n / n_shards) for k in range(n_shards + 1)]
        jobs = []
        for k in range(n_shards):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == 0:
                prev, st = reset_values, reset_state
            else:
                prev, st = _boundary(func, settled, lo - 1,
                                     _BIGNUM.get_bit)
            jobs.append((circuit, _shard_slice(vectors, lo, hi),
                         prev, st, lo == 0, shard_backend))

        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_shards) as pool:
            parts = list(pool.map(_timed_batch_star, jobs))

        toggles = {net: 0 for net in nets}
        ones = {net: 0 for net in nets}
        events = 0
        glitches = 0
        edges = 0
        for k, part in enumerate(parts):
            for net, t in part.toggles.items():
                if t:
                    toggles[net] += t
            for net, o in part.ones.items():
                if o:
                    ones[net] += o
            events += part.events
            glitches += part.glitches
            edges += part.latch_edges_lo
            if k + 1 < len(parts):
                # The shard's last cycle is interior to the full run,
                # so its pending clock edge is committed.
                edges += part.latch_edges_last

        caps = circuit.load_capacitances()
        switched = sum(caps[net] * t for net, t in toggles.items() if t)
        clock_cap = 0.0
        if circuit.latches and n > 1:
            clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * edges
        sp.add("lanes", n)
        sp.set("shards", n_shards)
    return ActivityReport(
        cycles=n,
        toggles=toggles,
        ones=ones,
        switched_capacitance=switched,
        clock_capacitance=clock_cap,
        events=events,
        glitches=glitches,
    )


def timed_activity_cached(circuit: Circuit, vectors: Stimulus,
                          workers: Optional[int] = None,
                          engine: Optional[str] = None):
    """Memoized :func:`timed_activity` (whole-run granularity).

    Timed reports cannot be spliced per cone the way zero-delay
    activity can — glitch waveforms on a dirty region's boundary nets
    are not recoverable from settled lanes — so the incremental story
    for the timed engine is run-level memoization: results are stored
    in the shared :class:`~repro.store.ArtifactStore` (kind
    ``"activity"``, schema ``repro.activity/1``) keyed by circuit
    fingerprint, stimulus fingerprint, resolved engine, and batch
    length.  Optimization sweeps that re-evaluate structurally
    identical candidates (retiming's plain-vs-smart cuts, repeated
    probes of one pipeline level) hit instead of resimulating; a
    corrupt or wrong-schema entry degrades to a plain rerun.  Every
    hit returns a *fresh* report (callers mutate reports in place).
    ``workers`` affects only how a miss is computed — the report is
    bit-identical either way, so it is not part of the key.
    """
    from repro.logic.simulate import ActivityReport

    if not isinstance(vectors, PackedVectors):
        try:
            vectors = PackedVectors.from_vectors(circuit.inputs,
                                                 list(vectors))
        except KeyError:
            return timed_activity(circuit, vectors, workers=workers,
                                  engine=engine)
    n = vectors.n
    resolved = resolve_engine(engine, default_engine(), cycles=n,
                              sequential=bool(circuit.latches))
    key = artifact_store.activity_key(
        circuit.fingerprint(), fastsim.stimulus_fingerprint(vectors),
        f"timed/{resolved}", n)
    st = artifact_store.get_store()
    decoded = artifact_store.unpack_activity(
        st.get(key, artifact_store.ACTIVITY_KIND))
    if decoded is not None and decoded["cycles"] == n \
            and set(decoded["nets"]) == set(circuit.nets):
        if obs.enabled():
            obs.inc("fasttimer.run_memo_hits")
        return ActivityReport(
            cycles=n,
            toggles=dict(decoded["toggles"]),
            ones=dict(decoded["ones"]),
            switched_capacitance=decoded["switched"],
            clock_capacitance=decoded["clock"],
            events=decoded["events"],
            glitches=decoded["glitches"],
        )
    report = timed_activity(circuit, vectors, workers=workers,
                            engine=resolved)
    st.put(key, artifact_store.ACTIVITY_KIND, artifact_store.pack_activity(
        report.cycles, circuit.nets, report.toggles, report.ones,
        report.switched_capacitance, report.clock_capacitance,
        events=report.events, glitches=report.glitches))
    return report
