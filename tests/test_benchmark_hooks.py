"""The package names the benchmark harness reaches into.

benchmarks/tracing.py wraps each (owner, attribute) in its TARGETS, and
benchmarks/workloads.py patches cli._sweep_worker and cli.classify.  A
rename in the package would only fail the traced benchmark pass; these
tests fail first.  TARGETS is read from the source without importing
the harness.
"""

import ast
import importlib
from pathlib import Path

from kirchhoff_normalized import cli

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def trace_targets() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracing.py defines no TARGETS")


def test_every_trace_target_resolves():
    targets = trace_targets()
    missing = []
    for label, owner, attr in targets:
        module, _, cls_name = owner.partition(":")
        holder = importlib.import_module(f"kirchhoff_normalized.{module}")
        if cls_name:
            # the tracer wraps vars(cls)[attr], so the class itself defines it
            holder = getattr(holder, cls_name, None)
            found = holder is not None and callable(vars(holder).get(attr))
        else:
            found = callable(getattr(holder, attr, None))
        if not found:
            missing.append(label)
    assert targets and not missing


def test_sweep_hooks_exist():
    assert callable(cli._sweep_worker) and callable(cli.classify)
