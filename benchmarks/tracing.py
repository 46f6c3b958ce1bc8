"""Per-layer tracing of phasealg from outside the program.

Every public function of each layer module is wrapped, and the wrapper is
installed on every module attribute that names the function: ``cli`` and
``casimir`` import functions by name, so patching only the defining module
would miss their calls.  Spans (name, start, end, parent, request) are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "phasealg"
LAYERS = ("cli", "core", "linalg", "classify", "casimir", "spinor", "pheno")

# O(1) index and predicate helpers that run hundreds of times per structure
# constant build: wrapping them would cost more than they do, so their time
# stays in the caller's self time.
UNTRACED = frozenset(
    {"core.F", "core.P", "core.X", "core.metric", "core.is_exact", "classify.so6_index"}
)

# Functions whose calls and self time the benchmark reports (per request).
REPORTED = {
    "core": ("structure_constants", "jacobi_residual"),
    "classify": ("classify", "killing_form", "killing_det", "pseudo_orthogonal_embedding",
                 "embedding_deviation", "transform_structure_constants",
                 "adjoint_representation"),
    "linalg": ("det_exact", "inertia_exact", "inertia_float"),
    "casimir": ("casimir_k2", "casimir_eps", "kgf_check"),
    "spinor": ("spinor_momentum_rep", "robertson"),
    "pheno": ("dgl_spectrum",),
}

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, request]
        self.request = -1
        self.errors = Counter()  # layer -> exceptions that originated there
        self._stack = []
        self._last_exc = None

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = perf_counter_ns()
        self._stack.pop()

    def raised(self, name, exc):
        # count an exception once, in the innermost traced layer it left
        if exc is not self._last_exc:
            self._last_exc = exc
            self.errors[name.split(".")[0]] += 1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised(name, exc)
                raise
            finally:
                self.close(index)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,request\n")
            for span in self.spans:
                fh.write("%s,%d,%d,%d,%d\n" % tuple(span))


def install(tracer):
    """Wrap the layers' public functions everywhere they are bound.

    Returns a function that restores the original bindings.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules["%s.%s" % (PACKAGE, layer)]
        for attr, fn in vars(mod).items():
            name = "%s.%s" % (layer, attr)
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrappers[fn] = tracer.wrap(name, fn)
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                patched.append((mod, attr, value))

    def restore():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return restore


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _under(spans, index, prefix):
    """True when an ancestor of span index has a name starting with prefix."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer, requests, points):
    """Per-request calls and self time per reported function and per layer,
    plus the wasted-work ratios."""
    spans = tracer.spans
    calls, self_ns = Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        self_ns[span[NAME]] += own
    per = max(requests, 1)
    out = {}
    for layer, names in REPORTED.items():
        for fn in names:
            name = "%s.%s" % (layer, fn)
            out[name + ".calls"] = calls[name] / per
            out[name + ".self_ms"] = self_ns[name] / 1e6 / per
    for layer in LAYERS:
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        out[layer + ".self_ms"] = ns / 1e6 / per
        out[layer + ".errors"] = tracer.errors[layer] / per
    out["core.structure_constants.builds_per_point"] = (
        calls["core.structure_constants"] / max(points, 1))
    embeds = calls["bench.cmd.embed"] + calls["bench.cmd.embed_exact"]
    in_embed = sum(1 for i, s in enumerate(spans)
                   if s[NAME] == "classify.embedding_deviation"
                   and _under(spans, i, "bench.cmd.embed"))
    out["classify.embedding_deviation.calls_per_embed"] = in_embed / embeds if embeds else 0.0
    return out
