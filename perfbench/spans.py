"""Span recording around the calls hpss modules make into each other.

The benchmark never edits the package. For a traced run it replaces every
public function of a layer module, wherever an ``hpss`` module binds it, by
a wrapper that records a span (name, start, end, parent span, operation id)
and restores the originals afterwards. Calls are looked up through module
globals at call time, so patching those bindings sees every cross-layer
call, and every same-module call to a public name as well.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# the modules under src/hpss/ that count as layers; synth only makes inputs
LAYERS = (
    "stft", "phase", "prox", "solver", "baseline",
    "metrics", "pipeline", "audio_io", "cli",
)

# spans the benchmark itself opens (counter hooks); never part of a layer
OWN_LAYER = "perfbench"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Recorder:
    """In-memory span store with a stack of open spans.

    A span opened with no open parent starts a new operation; its
    descendants share that operation id. ``hooks`` maps a span name to
    ``hook(recorder, args, kwargs, result)``, which records counters after
    the call returns; its time is kept in a span of the benchmark's own,
    so no layer is charged for it.
    """

    def __init__(self, hooks=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.active = True
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._ops = 0
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent].op
        self.spans.append(Span(name, self._clock(), 0.0, parent, op))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = self._clock()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def wrap(self, fn, name: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hid = self.open(f"{OWN_LAYER}.hook")
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self.close(hid)
            return result

        return wrapper


class PeakRecorder:
    """Peak ``tracemalloc`` bytes above the entry level, per wrapped name.

    Nested frames are supported: before an inner frame resets the peak, the
    peak so far is folded into every open outer frame.
    """

    def __init__(self):
        self.peaks: Counter = Counter()
        self._stack: list[list[int]] = []

    def measure(self, name: str, fn, *args, **kwargs):
        if not tracemalloc.is_tracing():
            raise RuntimeError("PeakRecorder needs tracemalloc to be tracing")
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], frame[1])
            self.peaks[name] = max(self.peaks[name], frame[1] - frame[0])

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.measure(name, fn, *args, **kwargs)

        return wrapper


def layer_functions(names=None):
    """(module, attribute, function, span name) for every binding to patch.

    Covers the namespace of every loaded ``hpss.*`` module and every public
    function defined in a layer module. ``names`` restricts the span names.
    """
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("hpss.") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, layer = obj.__module__.rpartition(".")
            if package != "hpss" or layer not in LAYERS:
                continue
            name = f"{layer}.{obj.__name__}"
            if names is None or name in names:
                found.append((mod, attr, obj, name))
    return found


@contextmanager
def patched(recorder, names=None):
    """Install ``recorder.wrap`` around layer functions; restore on exit."""
    wrappers = {}
    done = []
    try:
        for mod, attr, fn, name in layer_functions(names):
            if fn not in wrappers:
                wrappers[fn] = recorder.wrap(fn, name)
            setattr(mod, attr, wrappers[fn])
            done.append((mod, attr, fn))
        yield recorder
    finally:
        for mod, attr, fn in reversed(done):
            setattr(mod, attr, fn)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its child spans' durations.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def layer_self_times(spans, selfs=None) -> list:
    """Self time with same-layer children folded into their parent.

    This charges, say, ``metrics.bss_eval`` with the work of the
    ``metrics.bss_eval_sources`` call it makes, while an ``stft.forward``
    call made by ``phase.ipc_forward`` stays with the stft layer. Parents
    precede their children in ``spans``.
    """
    out = list(self_times(spans) if selfs is None else selfs)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i].parent
        if parent is not None and spans[parent].layer == spans[i].layer:
            out[parent] += out[i]
    return out
