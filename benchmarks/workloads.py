"""The three benchmark workloads: set-up, one pass, and per-point answers.

Inputs are fixed; the seed only becomes SolveParams.seed.  A pass
returns, per point, its wall time and its answer (the fields the gate
compares plus the outcome counters the trace reports).  Every call into
the package goes through module attributes looked up at call time, so
the tracer's wrappers see it.  A pass asks fits(pid) before each point
and stops at the first that does not fit the time left; phase_sweep is
one run_sweep call, so its pass is whole or empty.

phase_sweep     cli.run_sweep on the README axes at jobs=1, b trimmed to
                {0.001, 0.1}: 24 points in (p, a, b) groups sharing a
                4-point c-grid, all four predicted branches.  The only
                workload where continuation in c or group-level work
                sharing can act; two thirds of the rows run every restart
                to stall or max_iter.
point_classify  three independent classify calls at N=4 (the criterion-10
                nonexistence row with 12 restarts, the quick-start point,
                its zero-infimum row at c=10).  No c-grid is shared,
                so continuation must show no gain here.
saddle_search   two mountain_pass calls (N=5 saddle just below the
                attainment threshold, planar exponential model): bead
                sweeps with fixed small steps, fiber_scale, balance-root
                scans and the exponential family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import kirchhoff_normalized as kn
from kirchhoff_normalized import cli

from answers import number

SWEEP_AXES = dict(dimension=5, p_values=(2.5, 2.8, 3.0), a_values=(1.0,),
                  b_values=(0.001, 0.1), c_values=(1.0, 2.0, 3.0, 4.0))


def answer(report, record=None) -> dict:
    """Gate fields and outcome counters of one solve."""
    cand = report.candidate
    candidates = sum(1 for note in report.notes
                     if "candidate with I =" in note or note.startswith("saddle refined"))
    return {
        "status": report.status,
        "predicted": None if record is None else record.predicted,
        "agreement": None if record is None else record.agreement,
        "restarts_used": report.restarts_used,
        "energy": None if cand is None else number(cand.energy),
        "lam": None if cand is None else number(cand.lam),
        "infimum": number(report.infimum_estimate),
        "path_level": number(report.path_level),
        "iterations": report.iterations,
        "candidates": candidates,
    }


def _warm_thresholds(dimension: int, p: float, ab_pairs) -> None:
    q = kn.ground_state(dimension, p)
    for a, b in ab_pairs:
        kn.threshold_set(a, b, p, dimension, q.q_l2, kn.gn_constant(dimension, p))
    if dimension >= 3:
        kn.sobolev_constant(dimension)


def _well_threshold(model, lo: float, hi: float) -> float:
    """Mass radius where the GN fiber well depth crosses zero."""
    def depth(c):
        well = kn.gn_fiber_well(model, c)
        return well[1] if well is not None else 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if depth(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _always(pid: str) -> bool:
    return True


@dataclass
class Point:
    pid: str
    seconds: float
    answer: dict


def _timed(run_point, pid, fn, *args):
    t0 = time.perf_counter()
    out = run_point(pid, fn, *args)
    return time.perf_counter() - t0, out


class PhaseSweep:
    name = "phase_sweep"

    def __init__(self, seed: int):
        for p in SWEEP_AXES["p_values"]:
            _warm_thresholds(5, p, [(a, b) for a in SWEEP_AXES["a_values"]
                                    for b in SWEEP_AXES["b_values"]])
        self.spec = cli.SweepSpec(**SWEEP_AXES, params=kn.SolveParams(seed=seed), jobs=1)

    def run(self, run_point, fits=_always) -> list[Point]:
        # one run_sweep call: the pass is whole or not run at all
        if not fits("sweep"):
            return []
        points: dict[int, Point] = {}
        records: dict[int, object] = {}
        current = [None]
        worker, classify = cli._sweep_worker, cli.classify

        def timed_worker(task):
            index, _, p, a, b, c, _ = task
            pid = f"p={p:g} a={a:g} b={b:g} c={c:g}"
            current[0] = index
            seconds, out = _timed(run_point, pid, worker, task)
            points[index] = Point(pid, seconds, {})
            return out

        def capture(model, c, params):
            records[current[0]] = rec = classify(model, c, params)
            return rec

        def sweep():
            rows = cli.run_sweep(self.spec)
            return rows, cli.render_report(rows, "csv")

        cli._sweep_worker, cli.classify = timed_worker, capture
        try:
            rows, table = run_point("sweep", sweep)
        finally:
            cli._sweep_worker, cli.classify = worker, classify
        if len(table.splitlines()) != len(rows) + 1:
            raise RuntimeError("rendered phase table lost rows")
        for index, row in enumerate(rows):
            rec = records.get(index)
            if row["error"] is None and rec is not None \
                    and rec.observed_status == row["observed_status"]:
                points[index].answer = answer(rec.report, rec)
        return [points[i] for i in sorted(points)]


class PointClassify:
    name = "point_classify"

    def __init__(self, seed: int):
        _warm_thresholds(4, 3.0, [(1.0, 0.019)])
        _warm_thresholds(4, 3.5, [(1.0, 1.0)])
        q = kn.ground_state(4, 3.5)
        c0 = kn.threshold_set(1.0, 1.0, 3.5, 4, q.q_l2, kn.gn_constant(4, 3.5)).c0
        quick = kn.Model(kn.affine_coefficient(1.0, 0.019), kn.power_nonlinearity(3.0, 4))
        params = kn.SolveParams(seed=seed)
        # slowest first, so a pass cut short by the time budget still
        # samples the point that sets point_s_tail
        self.points = [
            ("nonexistence c=0.5c0",
             kn.Model(kn.affine_coefficient(1.0, 1.0), kn.power_nonlinearity(3.5, 4)),
             0.5 * c0, replace(params, restarts=12)),
            ("quick_start c=22", quick, 22.0, params),
            ("zero_infimum c=10", quick, 10.0, params),
        ]

    def run(self, run_point, fits=_always) -> list[Point]:
        out = []
        for pid, model, c, params in self.points:
            if not fits(pid):
                break
            seconds, rec = _timed(run_point, pid, kn.classify, model, c, params)
            out.append(Point(pid, seconds, answer(rec.report, rec)))
        return out


class SaddleSearch:
    name = "saddle_search"

    def __init__(self, seed: int):
        _warm_thresholds(5, 2.9, [(1.0, 0.001)])
        shallow = kn.Model(kn.affine_coefficient(1.0, 0.001), kn.power_nonlinearity(2.9, 5))
        c1 = _well_threshold(shallow, 10.0, 500.0)
        planar = kn.Model(kn.affine_coefficient(1.0, 1.0), kn.make_exp_critical(1.0, 1.0, 1.0))
        params = kn.SolveParams(seed=seed)
        self.points = [
            ("shallow N=5 c=0.97c1", shallow, 0.97 * c1, params),
            ("planar exp c=1", planar, 1.0, params),
        ]

    def run(self, run_point, fits=_always) -> list[Point]:
        out = []
        for pid, model, c, params in self.points:
            if not fits(pid):
                break
            seconds, rep = _timed(run_point, pid, kn.mountain_pass, model, c, params)
            out.append(Point(pid, seconds, answer(rep)))
        return out


WORKLOADS = {w.name: w for w in (PhaseSweep, PointClassify, SaddleSearch)}
RESIDUAL_TOL = kn.SolveParams().residual_tol
