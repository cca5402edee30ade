"""Span tracing of qnmlattice's layers from outside the package.

`install` replaces every public function of each package module with a
wrapper that records a span (op id, span id, parent id, label, start, end)
and per-label call counts, inclusive time and self time.  Functions
imported into another module (e.g. `scaling.potential_W_parts`) get a
second span under the importing module's name, around the home wrapper.
Spans stay in memory; the caller writes them out when the run ends.
"""

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np


def _points(index):
    def hook(tracer, label, args, result):
        tracer.counts[label + ".points"] += np.size(args[index])
    return hook


def _eigensolve(tracer, label, args, result):
    m = args[0]
    n = m.dim if hasattr(m, "dim") else np.shape(m)[0]
    tracer.counts["scaling.eigensolve.eigenvalues"] += n
    # LAPACK count for an eigenvalues-only dense nonsymmetric solve is
    # about 10 n^3 complex operations, about 40 n^3 real flops
    tracer.counts["scaling.eigensolve.gflop_computed"] += 40.0 * n ** 3 / 1e9
    if tracer.active["scaling.qnm_direct"]:
        tracer.counts["scaling.qnm_direct.eigenvalues"] += n


def _qnm_direct(tracer, label, args, result):
    tracer.counts["scaling.qnm_direct.modes"] += len(result)


HOOKS = {
    "potentials.potential_W_parts": _points(0),
    "catalog.eval_symbol": _points(1),
    "scaling.eigensolve": _eigensolve,
    "scaling.qnm_direct": _qnm_direct,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.active = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def call(self, label, fn, args, kwargs):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        self.active[label] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.active[label] -= 1
            dur = t1 - t0
            self.calls[label] += 1
            self.self_time[label] += dur - frame[1]
            if not self.active[label]:  # outermost of a recursion only
                self.inclusive[label] += dur
            if parent is not None:
                parent[1] += dur
            self.spans.append((self.op, frame[0],
                               parent[0] if parent else None, label, t0, t1))
        hook = HOOKS.get(label)
        if hook is not None:
            hook(self, label, args, result)
        return result

    def wrap(self, label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(label, fn, args, kwargs)
        return traced

    def layer_self_time(self, layer):
        return sum(v for k, v in self.self_time.items()
                   if k.split(".", 1)[0] == layer)


def install(tracer, modules, methods):
    """Wrap the public functions of `modules` and the given
    (class, attribute names, label) methods.  Returns an undo list for
    `uninstall`."""
    undo = []
    home = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapper = tracer.wrap("%s.%s" % (short, name), obj)
                home[id(obj)] = wrapper
                undo.append((mod, name, obj))
                setattr(mod, name, wrapper)
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if id(obj) in home:  # imported from another module
                undo.append((mod, name, obj))
                setattr(mod, name,
                        tracer.wrap("%s.%s" % (short, name), home[id(obj)]))
    for cls, names, label in methods:
        wrapper = tracer.wrap(label, vars(cls)[names[0]])
        for name in names:
            undo.append((cls, name, vars(cls)[name]))
            setattr(cls, name, wrapper)
    return undo


def uninstall(undo):
    for owner, name, obj in reversed(undo):
        setattr(owner, name, obj)
