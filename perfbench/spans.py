"""In-memory span tracer for the cqlock benchmark.

The tracer replaces every public function of the cqlock modules, under every
module attribute that refers to it, with a wrapper that records a span, and
does the same for the numpy kernels cqlock calls. ``discord`` and ``cli``
import names directly (``from .accessible import accessible_information``),
so patching the defining module alone would miss those call sites.

Span i is stored column-wise in ``Tracer.spans``: its parent span id (-1 at
the top), operation id, name, start, end and input MB. Flat arrays keep
thousands of spans from slowing Python's garbage collector. The input MB of
a kernel span is computed from the sizes of its ndarray arguments, not
measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, namespace, attribute) of the numpy kernels cqlock calls
KERNELS = (
    ("kernel.qr", np.linalg, "qr"),
    ("kernel.eigh", np.linalg, "eigh"),
    ("kernel.eigvalsh", np.linalg, "eigvalsh"),
    ("kernel.einsum", np, "einsum"),
)


def _input_mb(args, kwargs) -> float:
    return sum(a.nbytes for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)) / 1e6


class Spans:
    """Column store of spans; ``names`` lists every span name a wrapper was made for, by name id."""

    def __init__(self):
        self.parent, self.op, self.name = array("q"), array("q"), array("q")
        self.start, self.end, self.mb_in = array("d"), array("d"), array("d")
        self.names = []

    def rows(self):
        names = self.names
        return zip(self.parent, self.op, (names[i] for i in self.name), self.start, self.end, self.mb_in)


class Tracer:
    """Records parent-linked spans of wrapped calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = Spans()
        self.op = -1  # operation (CLI command) the next spans belong to
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn, sized: bool = False):
        sp, stack, clock = self.spans, self._stack, self.clock
        if name not in sp.names:
            sp.names.append(name)
        name_id = sp.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(sp.start)
            sp.parent.append(stack[-1] if stack else -1)
            sp.op.append(self.op)
            sp.name.append(name_id)
            sp.mb_in.append(_input_mb(args, kwargs) if sized else 0.0)
            sp.end.append(0.0)
            stack.append(sid)
            sp.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end[sid] = clock()
                stack.pop()

        return traced

    def install(self, modules):
        """Wrap the public functions defined in ``modules`` wherever those modules refer to them."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for name, ns, attr in KERNELS:
            self._patch(ns, attr, self.wrap(name, getattr(ns, attr), sized=True))

    def _patch(self, ns, attr, new):
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self):
        while self._undo:
            ns, attr, old = self._undo.pop()
            setattr(ns, attr, old)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (parent, op, name, t0, t1, mb) in enumerate(self.spans.rows()):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1, "mb_in": mb}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: Spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and computed input MB.

    Inclusive seconds count only spans with no ancestor of the same name, so a
    recursive call is not counted twice. Self seconds are a span's duration
    minus the part of it that its child spans cover.
    """
    children = defaultdict(list)
    for parent, t0, t1 in zip(spans.parent, spans.start, spans.end):
        children[parent].append((t0, t1))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "mb_in": 0.0})
    for sid, (parent, _, name, t0, t1, mb) in enumerate(spans.rows()):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        row["mb_in"] += mb
        anc = parent
        while anc >= 0 and spans.names[spans.name[anc]] != name:
            anc = spans.parent[anc]
        if anc < 0:
            row["s"] += t1 - t0
    return dict(out)
