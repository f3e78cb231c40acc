"""Span tracer installed around msubres functions from outside the package.

Each wrapped call records one span: name, thread, wall start and end, and the
span that caused it.  Self time is measured in thread CPU time
(``time.thread_time``): a span's self time is its CPU time minus the CPU time
of the child spans on the same thread.  Wall-clock self time would
double-count under ``--jobs 2``, where both sweep threads hold spans open
while only one of them holds the interpreter lock.

A span opened on a thread whose stack is empty (a sweep worker thread) is
parented to the innermost span open on the thread that created the tracer,
so spans from a ``run_sweep`` thread pool hang under ``cli.run_sweep``.

Aggregates (calls and self time per name, plus counters) are complete.  Span
records are kept in memory up to ``max_spans`` per thread and written when
the run ends; the number dropped beyond the cap is reported.
"""

from __future__ import annotations

import functools
import json
import threading
import time

_cpu = time.thread_time
_wall = time.perf_counter


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "spans", "dropped", "next_id")

    def __init__(self, index: int):
        self.index = index
        # frames: [span_id, wall0, cpu0, child_cpu]
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_cpu]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0


class Tracer:
    def __init__(self, max_spans: int = 40_000):
        self.max_spans = max_spans
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._origin = self._state()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def count(self, name: str, k: int = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(tracer, args, result)``
        may record counters derived from the call's inputs and output."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1][0]
            else:
                origin = tracer._origin.stack
                parent = origin[-1][0] if origin and st is not tracer._origin else None
            sid = (st.index, st.next_id)
            st.next_id += 1
            frame = [sid, _wall(), _cpu(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = _cpu()
                wall1 = _wall()
                stack.pop()
                dur = cpu1 - frame[2]
                self_s = dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += self_s
                if len(st.spans) < tracer.max_spans:
                    st.spans.append((sid, parent, name, frame[1], wall1, self_s))
                else:
                    st.dropped += 1
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` by its traced version until ``unpatch``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def patch_everywhere(self, modules, attr: str, name: str, on_result=None):
        """Trace ``attr`` in every module that binds the same function object,
        so ``from .polyring import divide_qq`` call sites are traced too."""
        target = getattr(modules[0], attr)
        traced = self.wrap(name, target, on_result)
        for mod in modules:
            if getattr(mod, attr, None) is target:
                self._patches.append((mod, attr, target))
                setattr(mod, attr, traced)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self) -> dict[str, tuple[int, float]]:
        """Calls and self CPU seconds per span name, over all threads."""
        out: dict[str, list] = {}
        for st in self._threads:
            for name, (calls, self_s) in st.stats.items():
                agg = out.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dropped(self) -> int:
        return sum(st.dropped for st in self._threads)

    def origin_self(self) -> float:
        """Self CPU of the spans on the tracer's own thread."""
        return sum(s for _, s in self._origin.stats.values())

    def write(self, path):
        """One JSON object per line: span id, parent id, name, wall start and
        end (perf_counter seconds), self CPU seconds."""
        with open(path, "w") as fh:
            for st in self._threads:
                for sid, parent, name, w0, w1, self_s in st.spans:
                    fh.write(json.dumps({
                        "id": f"{sid[0]}.{sid[1]}",
                        "parent": None if parent is None else f"{parent[0]}.{parent[1]}",
                        "name": name, "start": w0, "end": w1, "self_s": self_s,
                    }) + "\n")
            fh.write(json.dumps({"dropped": self.dropped()}) + "\n")
