"""Span tracing of the nmrwitness layers for the benchmark's traced run.

``Tracer.install`` replaces every public function of the layer modules, and
the public methods and ``__post_init__`` of their classes, with a wrapper
that records a span: name, layer, start, end and the index of the enclosing
span.  It rebinds those names in every loaded ``nmrwitness`` module, since
the modules import functions from one another by name.  It also wraps the
two third-party calls the per-layer counts need, ``scipy.linalg.expm`` as
bound in ``nmr`` and ``scipy.optimize.minimize`` as bound in
``correlations``.  A name that a later version of the package lacks is
skipped and reads as zero calls.

Spans are recorded only inside ``Tracer.item()``.  At the end of each item
they are folded into per-name inclusive times and self times (a span's
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap) and per-layer self times.  The
layer self times of an item, plus the benchmark's own share (layer
``bench``), add up to the item's traced duration.  Call counts, and the
raw spans kept for the trace file, cover the first ``counted`` items only:
counts depend only on the inputs, so over a fixed set of items they repeat
exactly, whatever the length of the run.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("states", "circuit", "correlations", "nmr", "harness")
EXTERNAL = {"nmr": ("expm",), "correlations": ("minimize",)}
ROOT = "bench.item"
BALANCE_TOL = 1e-9        # s, float error allowed when summing self times


class Tracer:
    def __init__(self, counted: int):
        self.counted = counted
        self._spans = []          # spans of the open item: [name, layer, start, end, parent]
        self._stack = []
        self._nfev = 0            # objective evaluations of the open item's minimize calls
        self.items = 0
        self.calls = Counter()          # per span name, over the first counted items
        self.nfev = 0                   # over the first counted items
        self.kept = []                  # raw spans of the first counted items
        self.inclusive_s = Counter()    # per span name, over all items
        self.self_s = Counter()         # per span name
        self.layer_self_s = Counter()   # per layer
        self.item_s = []                # traced duration of each item
        self.unbalanced = 0             # items whose self times do not sum to their duration

    def _wrap(self, fn, name: str, layer: str, on_result=None):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, layer, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_nfev(self, result):
        self._nfev += int(getattr(result, "nfev", 0))

    def install(self, package) -> int:
        """Wrap the layer modules of ``package``; returns the number of
        functions and methods wrapped."""
        prefix = package.__name__
        replaced = {}
        n_wrapped = 0
        for layer in LAYERS:
            mod = sys.modules.get(f"{prefix}.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                    n_wrapped += 1
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__post_init__" or not attr.startswith("_")):
                            setattr(obj, attr, self._wrap(fn, f"{layer}.{name}.{attr}", layer))
                            n_wrapped += 1
            for name in EXTERNAL.get(layer, ()):
                fn = getattr(mod, name, None)
                if fn is not None:
                    on_result = self._count_nfev if name == "minimize" else None
                    setattr(mod, name, self._wrap(fn, f"{layer}.{name}", layer, on_result))
                    n_wrapped += 1
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == prefix or mod_name.startswith(prefix + "."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, name, replaced[id(obj)])
        return n_wrapped

    @contextlib.contextmanager
    def item(self):
        """Record one timed item as a root span in layer ``bench``."""
        spans, stack = self._spans, self._stack
        spans.clear()
        self._nfev = 0
        root = [ROOT, "bench", time.perf_counter(), 0.0, -1]
        spans.append(root)
        stack.append(0)
        try:
            yield
        finally:
            root[3] = time.perf_counter()
            stack.clear()
            self._fold()

    def _fold(self):
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        layer_self = Counter()
        for k, (name, layer, start, end, parent) in enumerate(spans):
            dur = end - start
            self.inclusive_s[name] += dur
            self.self_s[name] += dur - child_s[k]
            layer_self[layer] += dur - child_s[k]
        item_s = spans[0][3] - spans[0][2]
        if abs(sum(layer_self.values()) - item_s) > BALANCE_TOL:
            self.unbalanced += 1
        self.layer_self_s.update(layer_self)
        self.item_s.append(item_s)
        if self.items < self.counted:
            self.calls.update(s[0] for s in spans)
            self.nfev += self._nfev
            self.kept.append([list(s) for s in spans])
        self.items += 1
