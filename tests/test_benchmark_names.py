"""Every per-layer metric the benchmark traces by function name must name a public cqlock function."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# <module>.<function>.<field>; kernel.* are numpy kernels and two-part names are aggregates
TRACED = [m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]
          if m["name"].count(".") == 2 and not m["name"].startswith("kernel.")]


def test_names_were_found():
    assert "accessible.accessible_information" in TRACED


@pytest.mark.parametrize("name", sorted(set(TRACED)))
def test_traced_name_is_a_public_function(name):
    module, function = name.split(".")
    mod = importlib.import_module(f"cqlock.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_"), f"{name} is private, so the tracer skips it"
    assert inspect.isfunction(obj), f"cqlock.{module} defines no function {function!r}, which BENCHMARK.json traces"
    assert obj.__module__ == mod.__name__, f"{name} is imported into cqlock.{module}, not defined there"
