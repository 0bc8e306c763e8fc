"""In-memory span recorder for the benchmark's traced runs.

The traced run wraps the public functions of each layer *from the
benchmark's own files* (nothing under ``src/`` is edited): every call
through a wrapped function records one span ``(id, name, start, end,
parent)`` in memory, and the spans are written out once, when the
process ends.  Parents follow the calling thread's stack of open spans.
A span opened on a thread with no open span (the ask/tell engine
threads, the tcp reader threads, the lease heartbeat) is parented to the
*root* span, the ``run``/``serve`` call being measured, so those spans
count as covered run time too.

Self time of a span is its duration minus the part of its interval that
its child spans cover (a union of intervals, so concurrent children on
other threads are not counted twice).  A layer's time is the summed
duration of its outermost spans; nested spans of the same layer are not
counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: Span name -> the layer (module) it belongs to, for the per-layer table.
LAYER_OF = {
    "runner.run": "repro.campaign.runner",
    "runner.serve": "repro.campaign.runner",
    "core.ask": "repro.core",
    "core.tell": "repro.core",
    "core.driver.run": "repro.core.async_driver",
    "noise.merge": "repro.noise",
    "functions.batch": "repro.functions",
    "functions.call": "repro.functions",
    "mw.codec.pack": "repro.mw.codec",
    "mw.codec.unpack": "repro.mw.codec",
    "mw.submit": "repro.mw.driver",
    "mw.pump": "repro.mw.driver",
    "execution.batch_work": "repro.campaign.execution",
    "execution.proposal_work": "repro.campaign.execution",
    "execution.eval": "repro.campaign.execution",
    "execution.job": "repro.campaign.execution",
    "scheduler.select": "repro.campaign.scheduler",
    "spec.expand": "repro.campaign.spec",
    "spec.job_id": "repro.campaign.spec",
}


def layer_of(name: str) -> str:
    """Layer of a span name; store spans are ``store.<engine>.<op>``."""
    if name.startswith("store."):
        return "repro.campaign.backends"
    return LAYER_OF[name]


class Tracer:
    """Records spans around wrapped functions, plus named counts."""

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent); list.append is atomic
        self.counts = Counter()
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, n=1) -> None:
        """Add ``n`` to the named count (thread-safe)."""
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, fn, name: str, before=None, after=None, root: bool = False):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(args, result, before_value)``, which runs after a call that
        returned; both record counts.  A ``root`` span becomes the parent
        of spans opened on threads with no open span while it runs.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            span_id = next(tracer._ids)
            context = before(args) if before is not None else None
            stack.append(span_id)
            if root:
                tracer.root = span_id
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if root:
                    tracer.root = parent
                tracer.spans.append((span_id, name, t0, t1, parent))
            if after is not None:
                after(args, result, context)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module function) by its traced form."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.traced(fn, name, **options))

    def dump(self, path) -> None:
        """Write the spans and counts as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``time_s`` (outermost spans) and ``self_s``.

    Also returns per-layer rows under ``"layers"`` and the root span's
    duration and self time under ``"root"`` (``None`` without one).
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))

    def nested_in_same(span, key) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if key(parent[1]) == key(span[1]):
                return True
            parent = by_id.get(parent[4])
        return False

    names = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    layers = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    for s in spans:
        duration = s[3] - s[2]
        self_s = duration - _covered(children.get(s[0], ()), s[2], s[3])
        for table, key in ((names, lambda n: n), (layers, layer_of)):
            row = table[key(s[1])]
            row["calls"] += 1
            row["self_s"] += self_s
            if not nested_in_same(s, key):
                row["time_s"] += duration
    roots = [s for s in spans if s[1] in ("runner.run", "runner.serve")]
    root = None
    if roots:
        r = roots[0]
        duration = r[3] - r[2]
        root = {
            "run_s": duration,
            "self_s": duration - _covered(children.get(r[0], ()), r[2], r[3]),
        }
    return {"names": dict(names), "layers": dict(layers), "root": root}


def merge_summaries(summaries) -> dict:
    """Sum :func:`summarize` results of separate processes (span ids are per process)."""
    out = {"names": {}, "layers": {}, "root": None}
    for summary in summaries:
        for table in ("names", "layers"):
            for key, row in summary[table].items():
                acc = out[table].setdefault(key, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
                for field in acc:
                    acc[field] += row[field]
    return out
