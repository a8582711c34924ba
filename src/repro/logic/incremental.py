"""Incremental cone-of-influence re-estimation for optimization loops.

Every Section-III optimization pass evaluates candidate circuits by
resimulating the whole netlist, even though a candidate typically
shares almost all structure with the base design.  This module makes
repeated estimation of *nearby* circuits cheap — the delta-evaluation
lever the paper's estimate/transform/re-estimate loop hinges on:

- :meth:`Circuit.cone_fingerprints` hashes every net's transitive
  fanin cone (closed over latch feedback, net names significant), so
  two circuits agree on a net's cone fingerprint exactly when the
  logic driving it is identical,
- a **cone key** extends that with the engine name, the batch length,
  and the stimulus lane hashes of the primary inputs in the cone's
  support (:meth:`Circuit.cone_supports`): equal keys imply identical
  settled lane values, hence identical toggle/ones counts,
- :func:`delta_activity` looks every net up in a process-wide
  byte-budgeted :class:`ConeCache`, resimulates *only* the dirty
  region — cache-missing nets, which by key construction are already
  closed under transitive fanout — via
  :meth:`Circuit.extract_cone`, replaying clean boundary nets from
  cached lanes as pseudo-inputs, and splices the per-net counts into
  an :class:`ActivityReport` **bit-identical** to full resimulation
  (same float summation order, same clock-capacitance accounting),
- with a disk-backed :mod:`repro.store`, each run that leaves nets
  missing probes *one* whole-run record of kind ``"activity"`` (keyed
  by :func:`~repro.store.activity_key` over circuit fingerprint,
  stimulus fingerprint, engine and batch length) and, on a miss,
  writes one after assembling the report — counts only, so another
  process rerunning the same (circuit, stimulus) skips simulation
  while lanes for boundary replay stay in the process's own cache,
- :func:`estimate_delta` wraps the base-prime + variant-delta pair;
  :func:`cached_activity` is the zero-overhead probe the
  :class:`~repro.core.estimator.PowerEstimator` uses to engage the
  cache transparently inside ``technique="simulation"``.

Correctness is content-addressed: a cache hit is valid *because its
key covers everything the cached counts depend on* — eviction can
only cause extra misses, never stale hits.  The one contract carried
over from the plan store: in-place structural mutation must be
followed by ``circuit.invalidate()`` (the construction methods do it
automatically), otherwise the cone fingerprints themselves are stale.

Engine note: only zero-delay (settled-value) activity can be spliced
from cached lanes; timed/glitch simulation needs full waveforms on
boundary nets, so :mod:`repro.logic.fasttimer` memoizes only whole
timed runs (:func:`~repro.logic.fasttimer.timed_activity_cached`)
under the same ``"activity"`` store kind and envelope.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro import store as artifact_store
from repro.backend.core import resolve_engine
from repro.logic import gates as gatelib
from repro.logic.fastsim import PackedVectors, input_lane_hashes, \
    lane_counts, net_words_engine, stimulus_fingerprint
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, Vector, collect_activity

__all__ = [
    "ConeCache", "ConeRecord", "DeltaStats",
    "get_cone_cache", "set_cone_cache", "clear_cone_cache",
    "cone_keys", "delta_activity", "collect_activity_incremental",
    "prime", "estimate_delta", "cached_activity", "reports_equal",
]

Stimulus = Union[PackedVectors, Sequence[Vector]]

#: In-process cone-cache key: (cone fingerprint hex, stimulus tail
#: bytes).  Cheap to hash/compare; never leaves the process.
ConeKey = Tuple[str, bytes]

#: Dirty fraction (of non-input nets) above which a plain full
#: resimulation is cheaper than cone extraction + splicing.
DELTA_MAX_FRACTION = 0.7

#: Runs shorter than this are not mirrored to the disk store — the
#: envelope overhead would exceed the resimulation cost.
STORE_MIN_CYCLES = 256

ENV_CACHE_BYTES = "REPRO_CONE_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024


# ----------------------------------------------------------------------
# Cache records
# ----------------------------------------------------------------------
@dataclass
class ConeRecord:
    """Cached activity of one net under one (cone, stimulus, engine).

    ``ones``/``toggles``/``last`` follow the pinned normalization
    (ones over all ``n`` cycles, toggles over the ``n - 1``
    boundaries, ``last`` = final-cycle value); ``lane`` is the packed
    settled-value word, kept so the net can be replayed as a
    pseudo-input on the dirty-region boundary.
    """

    n: int
    ones: int
    toggles: int
    last: int
    lane: int

    def nbytes(self) -> int:
        return 96 + (self.n >> 3)


@dataclass
class DeltaStats:
    """How one incremental evaluation was satisfied."""

    #: "cached" (every net from the cone cache), "store" (the whole
    #: run from a disk-store run record), "delta" (dirty region
    #: resimulated), "full" (whole circuit resimulated) or
    #: "fallback" (plain ``collect_activity``).
    source: str
    total_nets: int = 0
    reused_nets: int = 0   # non-input nets served from cache
    dirty_nets: int = 0    # non-input nets resimulated
    boundary_nets: int = 0
    store_hits: int = 0    # nets served by a disk-store run record


class ConeCache:
    """Process-wide LRU of :class:`ConeRecord` by cone key, byte-budgeted.

    The budget (``REPRO_CONE_CACHE_BYTES``, default 128 MiB) counts
    lane payloads — one record for an ``n``-cycle run costs about
    ``n/8`` bytes — so long traces over large circuit populations
    evict gracefully instead of growing without bound.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_CACHE_BYTES, ""))
            except ValueError:
                max_bytes = DEFAULT_CACHE_BYTES
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, ConeRecord]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ConeKey) -> Optional[ConeRecord]:
        rec = self._entries.get(key)
        if rec is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return rec

    def put(self, key: ConeKey, rec: ConeRecord) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes()
        self._entries[key] = rec
        self._bytes += rec.nbytes()
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes()

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "bytes": self._bytes,
                "hits": self.hits, "misses": self.misses,
                "max_bytes": self.max_bytes}


_cone_cache: Optional[ConeCache] = None


def get_cone_cache() -> ConeCache:
    """The process-wide cone cache (created lazily)."""
    global _cone_cache
    if _cone_cache is None:
        _cone_cache = ConeCache()
    return _cone_cache


def set_cone_cache(cache: Optional[ConeCache]) -> Optional[ConeCache]:
    """Swap the process-wide cache (tests, isolation); returns the old."""
    global _cone_cache
    old = _cone_cache
    _cone_cache = cache
    return old


def clear_cone_cache() -> None:
    if _cone_cache is not None:
        _cone_cache.clear()


# ----------------------------------------------------------------------
# Cone keys
# ----------------------------------------------------------------------
def cone_keys(circuit: Circuit, packed: PackedVectors, engine: str,
              ) -> Dict[str, "ConeKey"]:
    """Per-net cache key: cone fingerprint x stimulus support x engine.

    Mixes each net's structural cone fingerprint with the batch
    length, the (resolved) engine name, and the stimulus lane hash of
    every primary input in the net's support — nothing else the
    cached counts depend on exists.  Editing one input stream (or one
    gate) therefore re-keys exactly the cones that can observe it.
    When the stimulus came from :class:`~repro.rtl.streams.WordStream`
    packing, the lane hashes change exactly when the originating
    streams' ``fingerprint()`` changes.
    """
    fps = circuit.cone_fingerprints()
    masks = circuit.cone_supports()
    lane_hashes = input_lane_hashes(packed)
    digests: List[bytes] = []
    for net in circuit.inputs:
        digests.append(lane_hashes.get(net, b"\xffmissing"))
    suffix = f"|{engine}|{packed.n}".encode("ascii")
    # In-process keys are plain (fingerprint, stimulus-tail) tuples:
    # tuple equality/hash is what dict probes pay for, and hashing a
    # cryptographic digest again for a process-local dict would buy
    # nothing.  Tails depend only on (stimulus, engine, batch length,
    # input order), so the mask->tail memo rides the packed-stimulus
    # object: a candidate sweep over one stimulus pays each distinct
    # support mask's bit-walk once, and identical tails across
    # candidates stay one shared bytes object.
    memo_key = (engine, packed.n, tuple(circuit.inputs))
    memos = getattr(packed, "_tail_memo", None)
    if memos is None:
        memos = {}
        try:
            packed._tail_memo = memos
        except AttributeError:
            pass
    mask_bytes = memos.setdefault(memo_key, {})
    keys: Dict[str, ConeKey] = {}
    fps_get = fps.__getitem__
    masks_get = masks.__getitem__
    for net in circuit.nets:
        m = masks_get(net)
        tail = mask_bytes.get(m)
        if tail is None:
            parts = []
            mm = m
            while mm:
                low = mm & -mm
                parts.append(digests[low.bit_length() - 1])
                mm ^= low
            tail = suffix + b"".join(parts)
            mask_bytes[m] = tail
        keys[net] = (fps_get(net), tail)
    return keys


def _record_from_lane(lane: int, n: int) -> ConeRecord:
    ones, toggles, last = lane_counts(lane, n)
    return ConeRecord(n=n, ones=ones, toggles=toggles, last=last,
                      lane=lane & ((1 << n) - 1))


def _resolve(circuit: Circuit, engine: Optional[str], n: int) -> str:
    """The zero-delay engine a run of ``n`` cycles would use."""
    from repro.logic.simulate import DEFAULT_ENGINE

    return resolve_engine(engine, DEFAULT_ENGINE, cycles=n,
                          sequential=bool(circuit.latches))


def _ensure_packed(circuit: Circuit,
                   vectors: Stimulus) -> Optional[PackedVectors]:
    """Pack dict-vector stimulus; ``None`` when inputs are missing."""
    if isinstance(vectors, PackedVectors):
        if all(net in vectors.words for net in circuit.inputs):
            return vectors
        return None
    try:
        return PackedVectors.from_vectors(circuit.inputs, list(vectors))
    except KeyError:
        return None


# ----------------------------------------------------------------------
# The delta engine
# ----------------------------------------------------------------------
def delta_activity(circuit: Circuit, vectors: Stimulus, *,
                   engine: Optional[str] = None,
                   initial_state: Optional[Dict[str, int]] = None,
                   cache: Optional[ConeCache] = None,
                   populate: bool = True,
                   _keys: Optional[Dict[str, ConeKey]] = None,
                   ) -> Tuple[ActivityReport, DeltaStats]:
    """Activity via the cone cache; bit-identical to full resim.

    Looks every net up by cone key, resimulates only the dirty region
    (with clean boundary nets replayed from cached lanes), and
    assembles the report from per-net records.  When nets are missing
    and the process store has a disk root, a whole-run record for this
    (circuit, stimulus, engine, cycles) is probed once first (a hit is
    the report) and, on a miss, written once after assembly.

    Falls back to a plain :func:`~repro.logic.simulate.collect_activity`
    when the stimulus cannot be packed, an explicit ``initial_state``
    is given (cached lanes assume latch init values), or the batch is
    empty; falls back to a full (but cache-populating) lane run when
    the dirty region exceeds :data:`DELTA_MAX_FRACTION` of the nets.
    """
    cache = cache if cache is not None else get_cone_cache()
    packed = _ensure_packed(circuit, vectors)
    if packed is None or packed.n == 0 or initial_state is not None:
        report = collect_activity(circuit, vectors,
                                  initial_state=initial_state,
                                  engine=engine)
        return report, DeltaStats(source="fallback",
                                  total_nets=len(circuit.nets))
    n = packed.n
    resolved = _resolve(circuit, engine, n)
    keys = _keys if _keys is not None else cone_keys(circuit, packed,
                                                     resolved)
    nets = circuit.nets
    inputs = set(circuit.inputs)
    records: Dict[str, ConeRecord] = {}
    missing: List[str] = []
    # Bulk cache probe: one dict.get per net against the raw entry
    # table (the per-net ``cache.get`` call overhead is measurable at
    # a few thousand nets); counters and LRU recency are settled in
    # aggregate afterwards.
    entries = cache._entries
    entry_get = entries.get
    move = entries.move_to_end
    hits = 0
    for net in nets:
        if net in inputs:
            # Input lanes are the stimulus itself — no cache needed.
            records[net] = _record_from_lane(packed.words[net], n)
            continue
        key = keys[net]
        rec = entry_get(key)
        if rec is not None and rec.n == n:
            records[net] = rec
            move(key)
            hits += 1
        else:
            missing.append(net)
    cache.hits += hits
    cache.misses += len(missing)
    non_input = len(nets) - len(inputs)
    stats = DeltaStats(source="cached", total_nets=len(nets),
                       reused_nets=non_input - len(missing),
                       dirty_nets=len(missing))

    # Second chance: one whole-run record in the shared artifact store
    # (cross-process reruns of this exact circuit and stimulus).  It
    # holds counts only; lanes for boundary replay never leave the
    # process.  The stored net list must match in order, too: it fixes
    # the float summation order of the switched capacitance.
    st = artifact_store.get_store()
    run_key = None
    report = None
    if missing and st.root is not None and n >= STORE_MIN_CYCLES:
        run_key = artifact_store.activity_key(
            circuit.fingerprint(), stimulus_fingerprint(packed),
            f"zero-delay/{resolved}", n)
        decoded = artifact_store.unpack_activity(
            st.get(run_key, artifact_store.ACTIVITY_KIND))
        if decoded is not None and decoded["cycles"] == n \
                and decoded["nets"] == list(nets):
            report = ActivityReport(
                cycles=n, toggles=decoded["toggles"],
                ones=decoded["ones"],
                switched_capacitance=decoded["switched"],
                clock_capacitance=decoded["clock"])
            stats.source = "store"
            stats.store_hits = len(missing)
            stats.reused_nets = non_input
            stats.dirty_nets = 0

    if missing and report is None:
        fresh: Dict[str, int] = {}
        if len(missing) > DELTA_MAX_FRACTION * max(1, non_input):
            lanes, _ = net_words_engine(circuit, packed,
                                        initial_state=None,
                                        engine=resolved)
            fresh = {net: lanes[net] for net in missing}
            stats.source = "full"
        else:
            # By key construction the miss set is closed under
            # transitive fanout (a consumer's key hashes its fanin
            # cones), so extracting exactly the missing nets yields a
            # well-formed sub-circuit whose boundary is clean.
            sub, boundary = circuit.extract_cone(missing)
            stats.boundary_nets = len(boundary)
            words = {net: packed.words[net]
                     for net in sub.inputs if net in packed.words}
            words.update((b, records[b].lane) for b in boundary)
            sub_packed = PackedVectors(list(sub.inputs), n, words)
            lanes, _ = net_words_engine(sub, sub_packed,
                                        initial_state=None,
                                        engine=resolved)
            fresh = {net: lanes[net] for net in missing}
            stats.source = "delta"
        for net, lane in fresh.items():
            rec = _record_from_lane(lane, n)
            records[net] = rec
            if populate:
                cache.put(keys[net], rec)

    if report is None:
        report = _assemble(circuit, records, n, nets)
        if run_key is not None and populate:
            st.put(run_key, artifact_store.ACTIVITY_KIND,
                   artifact_store.pack_activity(
                       n, nets, report.toggles, report.ones,
                       report.switched_capacitance,
                       report.clock_capacitance))

    if obs.enabled():
        obs.inc(f"incremental.source.{stats.source}")
        obs.inc("incremental.reused_nets", stats.reused_nets)
        obs.inc("incremental.dirty_nets", stats.dirty_nets)
    return report, stats


def _assemble(circuit: Circuit, records: Dict[str, ConeRecord],
              n: int, nets: Optional[List[str]] = None
              ) -> ActivityReport:
    """Splice per-net records into a report, bit-identically.

    Switched capacitance is summed in ``circuit.nets`` order skipping
    zero-toggle nets — the exact float summation both engines use —
    against the *variant's own* load capacitances (cached lanes are
    load-independent).  Clock capacitance counts enable assertions
    over cycles ``0..n-2`` per clocked load-enable latch and ``n - 1``
    per plain clocked flop, matching the chunked accumulation.
    """
    caps = circuit.load_capacitances()
    if nets is None:
        nets = circuit.nets
    toggles: Dict[str, int] = {}
    ones: Dict[str, int] = {}
    for net in nets:
        rec = records[net]
        toggles[net] = rec.toggles
        ones[net] = rec.ones
    switched = 0.0
    for net in nets:
        t = toggles[net]
        if t:
            switched += caps[net] * t
    clock_cap = 0.0
    if circuit.latches and n > 1:
        edges = 0
        for latch in circuit.latches:
            if not latch.clocked:
                continue
            if latch.enable is None:
                edges += n - 1
            else:
                rec = records[latch.enable]
                edges += rec.ones - rec.last
        clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * edges
    return ActivityReport(cycles=n, toggles=toggles, ones=ones,
                          switched_capacitance=switched,
                          clock_capacitance=clock_cap)


def collect_activity_incremental(circuit: Circuit, vectors: Stimulus,
                                 engine: Optional[str] = None,
                                 initial_state: Optional[Dict[str, int]]
                                 = None,
                                 cache: Optional[ConeCache] = None,
                                 ) -> ActivityReport:
    """Drop-in :func:`~repro.logic.simulate.collect_activity` via the
    cone cache (same report, bit for bit)."""
    report, _ = delta_activity(circuit, vectors, engine=engine,
                               initial_state=initial_state, cache=cache)
    return report


def prime(circuit: Circuit, vectors: Stimulus,
          engine: Optional[str] = None,
          cache: Optional[ConeCache] = None) -> ActivityReport:
    """Populate the cone cache for a base circuit (returns its report).

    A disk-store run record carries counts but no lanes, so when one
    serves the base, the base is simulated once more here: the edited
    variants that follow need its lanes as replay boundaries.
    """
    cache = cache if cache is not None else get_cone_cache()
    report, stats = delta_activity(circuit, vectors, engine=engine,
                                   cache=cache)
    if stats.source == "store":
        packed = _ensure_packed(circuit, vectors)
        resolved = _resolve(circuit, engine, packed.n)
        keys = cone_keys(circuit, packed, resolved)
        lanes, _ = net_words_engine(circuit, packed, initial_state=None,
                                    engine=resolved)
        inputs = set(circuit.inputs)
        for net in circuit.nets:
            if net not in inputs:
                cache.put(keys[net], _record_from_lane(lanes[net],
                                                       packed.n))
    return report


def estimate_delta(base: Circuit, variant: Circuit, vectors: Stimulus,
                   engine: Optional[str] = None,
                   cache: Optional[ConeCache] = None,
                   ) -> Tuple[ActivityReport, DeltaStats]:
    """Re-estimate an edited ``variant`` against a cached ``base``.

    Primes the cache with the base circuit (free when already
    resident), then evaluates the variant through the cone cache:
    only the dirty cone — edited nets plus transitive fanout, closed
    over latch feedback — is resimulated.  Returns the variant's
    report (bit-identical to full resimulation) plus the
    :class:`DeltaStats` describing the reuse.
    """
    prime(base, vectors, engine=engine, cache=cache)
    return delta_activity(variant, vectors, engine=engine, cache=cache)


def cached_activity(circuit: Circuit, vectors: Stimulus,
                    engine: Optional[str] = None,
                    min_hit_fraction: float = 0.25,
                    ) -> Optional[ActivityReport]:
    """Opportunistic cache probe for the estimator facade.

    Returns a (bit-identical) report when the process cone cache can
    serve at least ``min_hit_fraction`` of the circuit's non-input
    nets, ``None`` otherwise — the caller then runs the plain path.
    With an empty cache this is a single ``len()`` check, so one-shot
    estimates pay nothing.
    """
    cache = get_cone_cache()
    if not len(cache):
        return None
    packed = _ensure_packed(circuit, vectors)
    if packed is None or packed.n == 0:
        return None
    resolved = _resolve(circuit, engine, packed.n)
    keys = cone_keys(circuit, packed, resolved)
    inputs = set(circuit.inputs)
    non_input = [net for net in circuit.nets if net not in inputs]
    if not non_input:
        return None
    hits = 0
    entries = cache._entries
    for net in non_input:
        rec = entries.get(keys[net])
        if rec is not None and rec.n == packed.n:
            hits += 1
    if hits < min_hit_fraction * len(non_input):
        return None
    report, _ = delta_activity(circuit, packed, engine=resolved,
                               cache=cache, _keys=keys)
    return report


def reports_equal(a: ActivityReport, b: ActivityReport) -> bool:
    """Exact (bitwise, including floats) report comparison."""
    return (a.cycles == b.cycles
            and a.toggles == b.toggles
            and a.ones == b.ones
            and a.switched_capacitance == b.switched_capacitance
            and a.clock_capacitance == b.clock_capacitance
            and a.events == b.events
            and a.glitches == b.glitches)
