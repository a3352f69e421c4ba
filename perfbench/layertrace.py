"""Per-function spans for the traced benchmark run, recorded from outside.

The program is not edited: ``LayerTrace.install`` replaces the public
functions of the listed greencross modules (and the public methods of the
executor classes) with timing wrappers, in every greencross module namespace
that imported them by name.  ``uninstall`` puts the originals back.  Only
names that exist are wrapped, so a function deleted from the program simply
drops out of the table instead of failing the run.

Each span name gets its call count, inclusive seconds (outermost frame only,
so recursion is not counted twice), self seconds (inclusive minus the time
of wrapped callees on the same thread) and the per-call durations.  The
executor's worker threads keep their own call stacks.
"""

import functools
import importlib
import inspect
import threading
import time

PACKAGE = "greencross"
LAYER_MODULES = ("geometry", "quadrature", "clustering", "batchexec",
                 "assembly", "gca", "h2", "cli")
# Classes whose public methods are layer boundaries.  Tree, box and basis
# node classes are left out: their accessors recurse per node, so a wrapper
# there would cost more than the work it times.
METHOD_CLASSES = {"batchexec": ("BatchExecutor", "TaskList")}


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.durations = []


class LayerTrace:
    def __init__(self):
        self.spans = {}
        self.returns = {}
        self._keep = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def keep_return(self, name):
        """Remember the last return value of the span ``name``."""
        self._keep.add(name)

    def _wrap(self, fn, name):
        stats = self.spans.setdefault(name, SpanStats())
        local = self._local
        lock = self._lock
        keep = name in self._keep
        returns = self.returns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
                active = local.active
            except AttributeError:
                stack = local.stack = []
                active = local.active = {}
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if keep:
                    returns[name] = out
                return out
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                active[name] -= 1
                with lock:
                    stats.calls += 1
                    stats.self_s += dt - child
                    if outer:
                        stats.incl_s += dt
                        stats.durations.append(dt)

        return wrapper

    @staticmethod
    def _modules():
        mods = {}
        for short in LAYER_MODULES:
            try:
                mods[short] = importlib.import_module(
                    "%s.%s" % (PACKAGE, short))
            except ImportError:
                continue
        return mods

    def install(self):
        if self._patches:
            raise RuntimeError("trace already installed")
        mods = self._modules()
        originals = {}  # id -> (function, wrapper)

        def add(fn, name):
            originals[id(fn)] = (fn, self._wrap(fn, name))

        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    add(obj, "%s.%s" % (short, attr))
            for cls_name in METHOD_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                for attr, obj in list(vars(cls or object).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        add(obj, "%s.%s.%s" % (short, cls_name, attr))
                        self._patch(cls, attr, originals[id(obj)][1])
        # every module namespace holding a wrapped function, including the
        # ones that imported it with `from .x import f`
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def call_counts(self):
        """Span name -> calls so far."""
        return {name: st.calls for name, st in self.spans.items()}

    def total_calls(self):
        return sum(s.calls for s in self.spans.values())

    def table(self):
        """Span name -> {calls, incl_s, self_s} for spans that ran."""
        return {name: {"calls": s.calls, "incl_s": s.incl_s,
                       "self_s": s.self_s}
                for name, s in sorted(self.spans.items()) if s.calls}

