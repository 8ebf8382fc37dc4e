"""Per-layer tracing by wrapping the package's functions from outside.

Nothing in the package is edited.  `Tracer.install` replaces each public
function of every gcalg module, and the listed methods on their classes, with
a wrapper; because modules import functions by name (`from .forms import
wedge`), every module attribute bound to the same function object is
replaced.  A listed name that cannot be found raises, so a refactor that moves
a function cannot silently report its layer as zero.

Every wrapped call adds to a count and a summed self time (its duration minus
that of the wrapped calls it made).  Only query and layer entry points also
keep a per-call span; spans of one query share its id.  A separate counting
pass (`Counter`) counts scalar operations and matrix facts, so those counters
do not inflate the span self times.
"""

from __future__ import annotations

import inspect
import sys
from math import comb
from time import perf_counter

MODULES = ("cli", "modelfile", "scalars", "forms", "linalg", "gcmaps", "models", "cartan", "gcy")

# the functions named by per-layer metrics in BENCHMARK.json; tracing
# raises if one of them is missing
LISTED = (
    "cli.main", "modelfile.parse_model",
    "forms.wedge", "forms.clifford", "forms.contract_vector",
    "linalg.rref", "linalg.mat_vec", "linalg.mat_mul", "linalg.operator_matrix",
    "gcmaps.uk_grading", "gcmaps.lifted_action_matrix", "gcmaps.UGrading.decompose",
    "gcmaps.pure_spinor", "gcmaps.annihilator", "gcmaps.validate",
    "models.split_operators", "models.del_delbar_split", "models.ddbar_lemma_check",
    "models.twisted_cohomology", "models.d_twisted",
    "cartan.equivariant_cohomology", "cartan.canonical_extension", "cartan.cartan_map",
    "cartan.kirwan_map",
    "gcy.quotient_family", "gcy.gcy_check", "gcy.dh_density",
)

# query and layer entry points: these keep one span per call
ENTRY = {
    "cli.main", "modelfile.parse_model", "gcmaps.uk_grading", "gcmaps.annihilator",
    "gcmaps.validate", "gcmaps.pure_spinor", "models.split_operators",
    "models.ddbar_lemma_check", "models.twisted_cohomology", "cartan.equivariant_cohomology",
    "cartan.canonical_extension", "cartan.cartan_map", "cartan.kirwan_map",
    "gcy.quotient_family", "gcy.dh_density", "gcy.gcy_check",
}

COUNTED = {
    "scalars.q_mul": "scalars.Q.__mul__",
    "scalars.q_add": ("scalars.Q.__add__", "scalars.Q.__sub__"),
    "scalars.q_div": "scalars.Q.__truediv__",
    "scalars.scalar_mul": "scalars.Scalar.__mul__",
}


def _resolve(dotted):
    """(owner, attribute, function) for 'module.func' or 'module.Class.method'."""
    parts = dotted.split(".")
    owner = sys.modules["gcalg." + parts[0]]
    for p in parts[1:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            raise LookupError("traced name %s not found in gcalg" % dotted)
    fn = owner.__dict__.get(parts[-1]) if inspect.isclass(owner) else getattr(owner, parts[-1], None)
    if not callable(fn):
        raise LookupError("traced name %s not found in gcalg" % dotted)
    return owner, parts[-1], fn


# inner loops of listed functions (sum_q is the body of mat_vec, the matrix
# sums build uk_grading's operators): left unwrapped, their time counts
# toward the caller
INNER = {"linalg.sum_q", "linalg.zeros", "linalg.identity", "linalg.mat_add", "linalg.mat_sub",
         "linalg.mat_scale", "linalg.transpose", "scalars.scalar"}


def traced_names():
    """Every public function defined in a gcalg module except INNER, plus
    everything LISTED (methods included)."""
    names = set(LISTED)
    for mod in MODULES:
        m = sys.modules["gcalg." + mod]
        for attr, obj in vars(m).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == m.__name__:
                names.add("%s.%s" % (mod, attr))
    return sorted(names - INNER)


class _Patches:
    """Replace functions everywhere they are bound; undo and redo."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original, wrapper)

    def replace(self, dotted, make_wrapper):
        owner, attr, fn = _resolve(dotted)
        wrapper = make_wrapper(fn)
        if inspect.isclass(owner):
            found = [(owner, attr, fn, wrapper)]
        else:
            mods = [m for name, m in sys.modules.items() if name == "gcalg" or name.startswith("gcalg.")]
            found = [(m, a, fn, wrapper) for m in mods for a, obj in vars(m).items() if obj is fn]
        if not found:
            raise LookupError("no gcalg module binds %s" % dotted)
        self._patches += found
        for owner, attr, _, wrapper in found:
            setattr(owner, attr, wrapper)

    def redo(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def undo(self):
        for owner, attr, fn, _ in reversed(self._patches):
            setattr(owner, attr, fn)


class Tracer:
    """Span and self-time bookkeeping for one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.spans = []  # (query id, name, parent span index, start, end)
        self.query_id = None
        self._stack = []  # [name, start, child seconds, span index]
        self._patches = _Patches()

    def install(self, names):
        for dotted in names:
            self._patches.replace(dotted, lambda fn, d=dotted: self._wrap(d, fn))

    def enable(self):
        self._patches.redo()

    def disable(self):
        self._patches.undo()

    def _wrap(self, name, fn):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        entry = name in ENTRY
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            span = None
            if entry:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                span = len(spans)
                spans.append([self.query_id, name, parent, 0.0, 0.0])
            frame = [name, perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span is not None:
                    spans[span][3:] = [frame[1], end]

        return traced


class Counter:
    """Operation counts and matrix facts for one counting pass."""

    def __init__(self):
        self.counts = {name: 0 for name in COUNTED}
        self.facts = {"linalg.rref.cells": 0, "linalg.rref.rows": 0, "linalg.rref.pivots": 0,
                      "linalg.mat_vec.entries": 0, "linalg.mat_vec.nonzeros": 0,
                      "cartan.equivariant_cohomology.basis_dim": 0, "modelfile.parse_model.bytes": 0}
        self._patches = _Patches()

    def install(self):
        """Wrap and enable the counters."""
        for metric, targets in COUNTED.items():
            for dotted in (targets,) if isinstance(targets, str) else targets:
                self._patches.replace(dotted, lambda fn, m=metric: self._count(m, fn))
        self._patches.replace("linalg.rref", self._rref)
        self._patches.replace("linalg.mat_vec", self._mat_vec)
        self._patches.replace("cartan.equivariant_cohomology", self._equivariant)
        self._patches.replace("modelfile.parse_model", self._parse)

    def disable(self):
        self._patches.undo()

    def _count(self, metric, fn):
        counts = self.counts

        def counted(*args):
            counts[metric] += 1
            return fn(*args)
        return counted

    def _rref(self, fn):
        facts = self.facts

        def rref(rows):
            out = fn(rows)
            facts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
            facts["linalg.rref.rows"] += len(rows)
            facts["linalg.rref.pivots"] += len(out[1])
            return out
        return rref

    def _mat_vec(self, fn):
        facts = self.facts

        def mat_vec(a, v):
            facts["linalg.mat_vec.entries"] += sum(len(r) for r in a)
            # Fraction truth tests, so no counted Q operation runs here
            facts["linalg.mat_vec.nonzeros"] += sum(1 for r in a for x in r if x.re or x.im)
            return fn(a, v)
        return mat_vec

    def _equivariant(self, fn):
        facts = self.facts

        def equivariant_cohomology(act, h_g, trunc):
            facts["cartan.equivariant_cohomology.basis_dim"] += comb(trunc + act.k, act.k) << act.model.n
            return fn(act, h_g, trunc)
        return equivariant_cohomology

    def _parse(self, fn):
        facts = self.facts

        def parse_model(text):
            facts["modelfile.parse_model.bytes"] += len(text.encode())
            return fn(text)
        return parse_model
