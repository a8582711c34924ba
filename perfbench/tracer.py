"""Span and counter collection around the public calls of each layer.

The benchmark installs these wrappers itself, from outside the program:
a wrapped function records its wall time, its self time (wall time
minus the time of wrapped calls made inside it) and any counters its
hook derives from the arguments and result.  Totals are kept in memory.

Pool and server workers forked after the wrappers are installed
inherit them.  A worker starts from empty totals and
writes them to ``<dump_dir>/w<pid>.json`` each time its outermost
wrapped call returns, which is before the parent can see that call's
result.  :meth:`Tracer.snapshot` adds the parent's totals to every
worker file; the difference of two snapshots is the activity between
them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Totals:
    """Span totals and counters, addable across processes."""

    def __init__(self, spans: Optional[Dict[str, List[float]]] = None,
                 counters: Optional[Dict[str, float]] = None) -> None:
        #: name -> [calls, wall seconds, self seconds]
        self.spans: Dict[str, List[float]] = spans or {}
        self.counters: Dict[str, float] = counters or {}

    def add(self, other: "Totals", sign: float = 1.0) -> None:
        for name, rec in other.spans.items():
            mine = self.spans.setdefault(name, [0.0, 0.0, 0.0])
            for i in range(3):
                mine[i] += sign * rec[i]
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) \
                + sign * value

    def minus(self, earlier: "Totals") -> "Totals":
        out = Totals()
        out.add(self)
        out.add(earlier, -1.0)
        return out

    def calls(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0, 0.0])[0]

    def wall(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0, 0.0])[2]

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def to_json(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counters": self.counters}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Totals":
        return cls({k: list(v) for k, v in data["spans"].items()},
                   dict(data["counters"]))


class Tracer:
    """Installs wrappers and keeps per-process totals."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self._fresh_state()
        os.register_at_fork(after_in_child=self._fresh_state)

    def _fresh_state(self) -> None:
        # A forked worker must not inherit the parent's totals, its
        # open span stack or a lock another parent thread held.
        self.totals = Totals()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stores = {}
        self._dump_fd = None

    # -- recording -----------------------------------------------------
    def count(self, name: str, by: float = 1.0) -> None:
        with self._lock:
            self.totals.counters[name] = \
                self.totals.counters.get(name, 0.0) + by

    def watch_store(self, store: Any) -> None:
        """Remember a store whose eviction counter the snapshot reads."""
        self._stores.setdefault(id(store), store)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, wall: float, own: float,
                nested_same: bool) -> None:
        with self._lock:
            rec = self.totals.spans.setdefault(name, [0.0, 0.0, 0.0])
            rec[0] += 1
            if not nested_same:
                rec[1] += wall
            rec[2] += own

    def _process_totals(self) -> Totals:
        with self._lock:
            out = Totals()
            out.add(self.totals)
        evictions = 0
        for store in list(self._stores.values()):
            evictions += store.stats().get("disk_evictions", 0)
        out.counters["store.evictions"] = float(evictions)
        return out

    def dump(self) -> None:
        """Write this worker's totals where the parent collects them.

        One file per worker, rewritten in place: creating a file per
        dump would cost more than the jobs being traced.  The parent
        reads it only while no job is running.
        """
        if self._dump_fd is None:
            self._dump_fd = os.open(self.dump_dir / f"w{os.getpid()}.json",
                                    os.O_CREAT | os.O_WRONLY, 0o644)
        data = json.dumps(self._process_totals().to_json()).encode()
        os.pwrite(self._dump_fd, data, 0)
        os.ftruncate(self._dump_fd, len(data))

    def snapshot(self) -> Totals:
        """Parent totals plus the last dump of every worker."""
        out = self._process_totals()
        for path in sorted(self.dump_dir.glob("w*.json")):
            out.add(Totals.from_json(json.loads(path.read_text())))
        return out

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn: Callable, name: str,
               hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            nested_same = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                wall = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                tracer._record(name, wall, wall - frame[1], nested_same)
                if not stack and os.getpid() != tracer.main_pid:
                    tracer.dump()

        return wrapper

    def _untimed(self, fn: Callable, name: str,
                 hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            else:
                # One dict update, no lock: only for functions that run
                # on one thread per process.
                counters = tracer.totals.counters
                counters[name] = counters.get(name, 0.0) + 1.0
            return result

        return wrapper

    def wrap_function(self, module: Any, attr: str, name: str,
                      hook: Optional[Hook] = None,
                      timed: bool = True) -> None:
        """Wrap ``module.attr`` everywhere a loaded module binds it.

        ``timed=False`` makes a wrapper that reads no clock: with a
        hook it only runs the hook, without one it counts calls under
        ``name`` (for functions called millions of times).  Modules
        that imported the function by name hold their own reference,
        so every loaded ``repro`` module attribute that *is* the
        original is replaced.
        """
        original = getattr(module, attr)
        make = self._timed if timed else self._untimed
        wrapper = make(original, name, hook)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str,
                    hook: Optional[Hook] = None) -> None:
        setattr(cls, attr, self._timed(cls.__dict__[attr], name, hook))


def arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    """Positional-or-keyword argument lookup for hooks."""
    if len(args) > index:
        return args[index]
    return kwargs.get(key)
