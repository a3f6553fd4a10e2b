"""The benchmark's tracer wraps hermkq functions by name; a renamed or deleted
target silently drops the per-layer metrics read off it."""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    # tracing.py imports only the standard library, never hermkq
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    missing = []
    for module, qualname, kind in targets:
        owner = importlib.import_module(f"hermkq.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
        # a cap target is wrapped with the current cap read off its module
        if kind == "cap" and not callable(getattr(importlib.import_module(f"hermkq.{module}"),
                                                  "global_cap", None)):
            missing.append(f"{module}.global_cap")
    assert targets and missing == []
