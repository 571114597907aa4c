"""Per-layer tracing of gradedk0 from outside the package.

`Tracer.install()` wraps public entry points of each layer (the modules of
gradedk0) and rebinds every name that refers to them, including by-name
imports such as `enumerate_window` inside modules, k0, cli and presets, and
the `decomposition` / `mirror_decomposition` cached properties (so only
computed conjugations are seen, not cache hits).  Nothing in the package is
edited; `uninstall()` restores the originals.

Spans (name, start, end, parent, op id) are kept in memory and written out by
`dump`.  Ring multiplication and cone membership are the most frequent timed
calls, so they are aggregated per name (calls and time) instead of kept one
by one; their time is still subtracted from the parent span's self time.  Pure counters (ring additions, ring equality tests, scalar multiplies,
idempotency checks, class computations) count calls only.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from functools import cached_property
from time import perf_counter

# (layer name, owner module, attribute, kind); owner "Class.attr" means a method.
# kind: span = recorded span, leaf = aggregated span, count = call counter,
# property = cached_property whose computation is a span.
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("jobspec.parse", "jobspec", "parse_job", "span"),
    ("jobspec.build", "jobspec", "build_ring", "span"),
    ("jobspec.build", "jobspec", "build_module", "span"),
    ("k0.verify", "k0", "verify_theorem_k0", "span"),
    ("k0.hilbert", "k0", "hilbert_table", "span"),
    ("k0.graded_rank", "k0", "graded_rank", "span"),
    ("k0.class", "k0", "k0_of_idempotent", "count"),
    ("modules.filtration_stage", "modules", "filtration_idempotent", "span"),
    ("modules.conjugate", "modules", "IdempotentPresentation.decomposition", "property"),
    ("modules.conjugate", "modules", "IdempotentPresentation.mirror_decomposition", "property"),
    ("modules.compose", "modules", "GradedMatrix.compose", "span"),
    ("modules.matrix_init", "modules", "GradedMatrix.__init__", "span"),
    ("modules.idempotent_check", "modules", "GradedMatrix.is_idempotent", "count"),
    ("cones.enumerate", "cones", "enumerate_window", "span"),
    ("cones.contains", "cones", "Cone.contains", "leaf"),
    ("linalg.rank", "linalg", "rank", "span"),
    ("rings.mul", "rings", "RingElem.__mul__", "leaf"),
    ("rings.add", "rings", "RingElem.__add__", "count"),
    ("rings.ring_eq", "rings", "GradedRing.__eq__", "count"),
    ("scalars.quadratic_mul", "scalars", "QuadraticReal.__mul__", "count"),
    ("scalars.prime_mul", "scalars", "PrimeFieldElem.__mul__", "count"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "gradedk0" or name.startswith("gradedk0.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_child = array("d")  # time covered by child spans, for self time
        self.leaf_calls: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.counts: Counter = Counter()  # calls of count-only targets
        self.derived: Counter = Counter()  # figures read off arguments and results
        self.op = -1
        self._stack: list = []
        self._undo: list = []
        self._stage_keys: set = set()
        self._alive: list = []  # keeps presentations alive so id() stays unique per op

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self._alive.clear()

    # -- wrappers ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)
        stack, child = self._stack, self.s_child
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end = self.s_start, self.s_end

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            child.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                s_end[idx] = end
                stack.pop()
                if stack:
                    child[stack[-1]] += end - s_start[idx]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        stack, child = self._stack, self.s_child
        calls, total = self.leaf_calls, self.leaf_time

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                calls[name] += 1
                total[name] += dt
                if stack:
                    child[stack[-1]] += dt

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks for derived counters -----------------------------------

    def _after_enumerate(self, args, kwargs, result) -> None:
        self.derived["cones.enumerate_points"] += len(result)

    def _after_conjugate(self, args, kwargs, result) -> None:
        pres = args[0]
        self.derived["modules.geometric_terms"] += result.nilpotency_bound
        self.derived["modules.chain_links"] += max(len(set(pres.shifts)) - 1, 0)

    def _after_stage(self, args, kwargs, result) -> None:
        pres, a = args[0], tuple(args[1])
        dec = args[2] if len(args) > 2 and args[2] is not None else kwargs.get("dec") or pres.decomposition
        order = pres.ring.order
        kept = frozenset(b for b in dec.blocks if order.leq(b, a))
        self._alive.append(pres)
        key = (self.op, id(pres), kept)
        if key not in self._stage_keys:
            self._stage_keys.add(key)
            self.derived["modules.filtration_stage_distinct"] += 1

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import gradedk0.cli  # noqa: F401  (loads every layer)

        pkg = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        hooks = {
            "cones.enumerate": self._after_enumerate,
            "modules.conjugate": self._after_conjugate,
            "modules.filtration_stage": self._after_stage,
        }
        for name, owner, attr, kind in TARGETS:
            module = pkg[owner]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if kind == "property":
                    new = cached_property(self._span(name, original.func, hooks.get(name)))
                    new.__set_name__(cls, meth)
                else:
                    new = self._wrap(kind, name, original, hooks.get(name))
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._undo.append((cls, key, original))
                        setattr(cls, key, new)
            else:
                original = getattr(module, attr)
                new = self._wrap(kind, name, original, hooks.get(name))
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, new)

    def _wrap(self, kind: str, name: str, fn, after):
        if kind == "span":
            return self._span(name, fn, after)
        if kind == "leaf":
            return self._leaf(name, fn)
        return self._count(name, fn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus leaf aggregates and counters."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, start, end, child in zip(self.s_name, self.s_start, self.s_end, self.s_child):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end - start - child
        for name in self.leaf_calls:
            calls[name] += self.leaf_calls[name]
            self_s[name] += self.leaf_time[name]
        for name, value in self.counts.items():
            calls[name] += value
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def dump(self, path: str, extra: dict) -> None:
        spans = [
            [self.names[n], s, e, p, o]
            for n, s, e, p, o in zip(self.s_name, self.s_start, self.s_end, self.s_parent, self.s_op)
        ]
        doc = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": spans,
            "leaves": {n: [self.leaf_calls[n], self.leaf_time[n]] for n in self.leaf_calls},
            "counters": dict(self.counts),
            "derived": dict(self.derived),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
