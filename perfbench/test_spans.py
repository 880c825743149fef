"""Checks of the tracer's arithmetic on a synthetic nested call tree.

    python3 -m pytest perfbench/test_spans.py
"""

import types

import numpy as np
import pytest

import spans


class FakeClock:
    """Advances by one second per reading, so every span boundary is a distinct integer."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_nested_calls_give_inclusive_and_self_time():
    tracer = spans.Tracer(clock=FakeClock())
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("m.top", lambda: (mid(), leaf()))
    top()
    # clock readings: top 1..10, mid 2..7 with leaves 3..4 and 5..6, last leaf 8..9
    table = spans.summarize(tracer.spans)
    assert table["m.leaf"] == {"calls": 3, "s": 3.0, "self_s": 3.0, "mb_in": 0.0}
    # mid spans 2..7 (5 s) and covers its two leaves (1 s each)
    assert table["m.mid"] == {"calls": 1, "s": 5.0, "self_s": 3.0, "mb_in": 0.0}
    # top spans 1..10 (9 s): mid covers 5 s and the last leaf 1 s
    assert table["m.top"] == {"calls": 1, "s": 9.0, "self_s": 3.0, "mb_in": 0.0}
    assert list(tracer.spans.parent) == [-1, 0, 1, 1, 0]


def test_recursive_span_counted_once_in_inclusive_time():
    tracer = spans.Tracer(clock=FakeClock())

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.wrap("m.fact", fact)
    assert traced(2) == 2
    row = spans.summarize(tracer.spans)["m.fact"]
    # outer span 1..6 is the only one without a same-name ancestor; self times sum to the same 5 s
    assert row["calls"] == 3 and row["s"] == 5.0 and row["self_s"] == 5.0


def test_covered_merges_overlaps_and_clips():
    assert spans._covered([(2, 4), (3, 6), (8, 9), (0, 1)], 1, 8.5) == pytest.approx(4.5)


def test_install_patches_every_alias_and_uninstall_restores():
    lib = types.ModuleType("pkg.lib")
    exec("def public(x):\n    return x + 1\n\ndef _private(x):\n    return x\n", lib.__dict__)
    user = types.ModuleType("pkg.user")
    user.public = lib.public  # a `from .lib import public` alias
    orig_public, orig_qr = lib.public, np.linalg.qr
    tracer = spans.Tracer()
    tracer.install([lib, user])
    try:
        assert user.public(1) == 2 and lib.public(1) == 2 and lib._private(1) == 1
        np.linalg.qr(np.eye(4))
    finally:
        tracer.uninstall()
    assert lib.public is orig_public and user.public is orig_public and np.linalg.qr is orig_qr
    table = spans.summarize(tracer.spans)
    assert table["lib.public"]["calls"] == 2 and "lib._private" not in table
    assert table["kernel.qr"]["mb_in"] == pytest.approx(4 * 4 * 8 / 1e6)
