"""Checks of the benchmark's own machinery on short synthetic inputs."""

import math

import pytest

from kirchhoff_normalized import (Model, SolveParams, affine_coefficient,
                                  constrained_solver, ground_state,
                                  power_nonlinearity, radial_grid)

import answers
import tracing


def test_self_time_is_span_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    names = [0, 1, 1, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    calls, self_s = tracing.self_times(names, starts, ends, parents, 4)
    assert calls.tolist() == [1, 2, 1, 0]
    assert self_s.tolist() == pytest.approx([3.0, 6.0, 1.0, 0.0])
    assert self_s.sum() == pytest.approx(10.0)


def _traced_solve():
    ground_state(4, 2.5)    # cached after the first call, as after set-up
    model = Model(affine_coefficient(1.0, 0.1), power_nonlinearity(2.5, 4))
    params = SolveParams(restarts=2, n_cells=300, max_iter=200)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up at call time, where the tracer put its wrapper
        rep = tracer.point("synthetic", lambda: constrained_solver.minimize_on_sphere(
            model, 1.0, params))
    finally:
        tracer.uninstall()
    return tracer, rep


def test_traced_counts_repeat_and_originals_return():
    originals = (constrained_solver.solveh_banded, constrained_solver.energy,
                 radial_grid.RadialFunction.__dict__["grad_norm_sq"])
    first, rep1 = _traced_solve()
    second, rep2 = _traced_solve()
    calls1 = {k: v["calls"] for k, v in first.totals().items()}
    calls2 = {k: v["calls"] for k, v in second.totals().items()}
    assert calls1 == calls2
    assert calls1["linalg.solveh_banded"] > 0
    assert calls1["constrained_solver.minimize_on_sphere"] == 1
    assert (rep1.restarts_used, rep1.iterations) == (rep2.restarts_used, rep2.iterations)
    assert originals == (constrained_solver.solveh_banded, constrained_solver.energy,
                         radial_grid.RadialFunction.__dict__["grad_norm_sq"])
    # self times partition the root span
    totals = first.totals()
    root = first.ends[0] - first.starts[0]
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(root, rel=1e-9)


def test_answer_gate():
    ref = {"x": {"status": "converged_minimizer", "predicted": "ground_state",
                 "agreement": "corroborated", "restarts_used": 6,
                 "energy": -2.0, "lam": -0.5, "infimum": -2.0, "path_level": None},
           "y": {"status": "no_nontrivial_solution_found", "predicted": None,
                 "agreement": None, "restarts_used": 1, "energy": None,
                 "lam": None, "infimum": answers.number(math.nan), "path_level": 3.0}}
    tol = 1e-6
    same = {pid: dict(a) for pid, a in ref.items()}
    same["x"]["energy"] = -2.0 + 5e-6        # within 2 tol (1 + 2)
    assert answers.departures(ref, same, tol) == {}

    moved = {pid: dict(a) for pid, a in ref.items()}
    moved["x"]["energy"] = -2.0 + 7e-6
    moved["y"]["restarts_used"] = 2
    bad = answers.departures(ref, moved, tol)
    assert sorted(bad) == ["x", "y"]
    assert "energy" in bad["x"][0] and "restarts_used" in bad["y"][0]

    assert answers.departures(ref, {"x": same["x"]}, tol) == {"y": ["no answer"]}


def test_benchmark_json_lists_what_run_prints():
    import json
    from pathlib import Path

    import run
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
