"""Solver benchmark: time to verdict, per-point latency, memory and a
frozen answer gate, per workload; per-layer counts from a traced run.

    python3 benchmarks/run.py --workload phase_sweep --seed 0 --seconds 38 --trace 0

Each workload runs in its own child process with BLAS threads pinned
to 1, importing the package from src/ of this checkout.  Set-up (import,
ground states, threshold constants, input generation) is timed in
fresh processes, several times, and reported as the median.  The
measuring child repeats passes of the workload while they fit in
--seconds (at least one whole pass); the last pass may stop after any
point, so the time left still samples the first points.  With
--trace 1 the child traces set-up and one pass after the untraced
ones, and reports per-layer calls and self time instead of the
end-to-end metrics.  Any answer departing from
benchmarks/reference.json fails the run: the result line says
"correct": false and the exit code is 1.

    python3 benchmarks/run.py --freeze     # rewrite the seed-0 reference

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_SAMPLES = 3          # fresh-process set-ups per run, the worker's own included
CHILD_TIMEOUT_S = 170.0    # the whole run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("phase_sweep", "point_classify", "saddle_search")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("point_s_p50", "s"),
              ("point_s_tail", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# Self time goes into the result line only for layers that every workload
# calls, so that no reported time reads 0 on some workload; the detail
# lines and the spans file carry every layer's self time.  The solver
# stage is the entry points' own time (descent and bead loops, Newton
# assembly) outside the traced kernels.
STAGE = "constrained_solver.stage"
STAGE_PARTS = ("constrained_solver.minimize_on_sphere",
               "constrained_solver.mountain_pass", "constrained_solver.classify")
SELF_TIME_LAYERS = (
    "radial_grid.grad_norm_sq", "radial_grid.stiffness_apply",
    "radial_grid.normalize_mass", "radial_grid.make_grid",
    "models.Nonlinearity.f", "models.Nonlinearity.F",
    "functional.energy", "functional.multiplier_estimate",
    "functional.pde_residual_norm",
    "linalg.solveh_banded", "linalg.solve_banded", "scalar_opt.golden_min",
    "gn_ground_state.ground_state", "omega_thresholds.threshold_set",
    "constrained_solver.gn_fiber_well", STAGE,
)
COUNTERS = (("restarts", "count"), ("iterations", "count"), ("restart_yield", "ratio"))


def tracing_labels() -> list[str]:
    """Traced layer names, in TARGETS order."""
    import tracing
    return [t[0] for t in tracing.TARGETS]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Name and unit of every per-layer metric, in output order."""
    return ([(f"{k}.calls", "count") for k in tracing_labels()]
            + [(f"{k}.self_s", "s") for k in SELF_TIME_LAYERS]
            + [(f"constrained_solver.{k}", unit) for k, unit in COUNTERS]
            + [("trace_overhead_s", "s")])


# ---------------------------------------------------------------- child

def _child_setup(workload: str, seed: int):
    """Import the package and set the workload up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


def _cpu() -> float:
    """CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _plain(pid, fn, *args):
    return fn(*args)


def _pass(wl, run_point, fits=None):
    t0, c0 = time.perf_counter(), _cpu()
    points = wl.run(run_point) if fits is None else wl.run(run_point, fits)
    return points, time.perf_counter() - t0, _cpu() - c0


def _gate(workload: str, points, whole: bool = True) -> list[str]:
    """One line per point of this pass whose answer departs from the
    reference; a pass cut short is checked on the points it ran."""
    import answers
    import workloads
    reference = json.loads(REFERENCE.read_text())[workload]
    if not whole:
        reference = {p.pid: reference[p.pid] for p in points if p.pid in reference}
    bad = answers.departures(reference, {p.pid: p.answer for p in points},
                             workloads.RESIDUAL_TOL)
    return [f"{pid}: {'; '.join(msgs)}" for pid, msgs in bad.items()]


def _counters(points) -> dict[str, float]:
    restarts = sum(p.answer.get("restarts_used", 0) for p in points)
    return {
        "restarts": restarts,
        "iterations": sum(p.answer.get("iterations", 0) for p in points),
        "restart_yield": sum(p.answer.get("candidates", 0) for p in points)
        / max(restarts, 1),
    }


def child(args) -> dict:
    if args.child == "setup":
        _, setup_s = _child_setup(args.workload, args.seed)
        return {"setup_s": setup_s}
    if args.child == "freeze":
        import answers
        wl, _ = _child_setup(args.workload, args.seed)
        points, _, _ = _pass(wl, _plain)
        return {"answers": {p.pid: {k: p.answer[k] for k in answers.EXACT + answers.CLOSE}
                            for p in points}}

    tracer = None
    if args.trace:
        import tracing
        import workloads
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl = tracer.point("setup", workloads.WORKLOADS[args.workload], args.seed)
        finally:
            tracer.uninstall()
        setup_s = None
    else:
        wl, setup_s = _child_setup(args.workload, args.seed)

    start = time.perf_counter()
    passes, points, failures = [], [], []
    samples: dict[str, list[float]] = {}

    def fits(pid: str) -> bool:
        # the first pass runs whole; after it, a point (or a whole sweep)
        # starts only if its median so far fits the time left
        if not passes:
            return True
        past = samples.get(pid) or [p["wall_s"] for p in passes]
        return time.perf_counter() - start + statistics.median(past) <= args.seconds

    whole = None            # points in a whole pass
    while True:
        pts, wall, cpu = _pass(wl, _plain, fits)
        cut = whole is not None and len(pts) < whole    # by the time budget
        points += pts
        failures += _gate(args.workload, pts, whole=not cut)
        for p in pts:
            samples.setdefault(p.pid, []).append(p.seconds)
        if cut:
            break
        whole = len(pts)
        passes.append({"wall_s": wall, "cpu_s": cpu})
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "points": [[p.pid, p.seconds] for p in points],
        "attempted": len(points),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.install()
        try:
            pts, wall, _ = _pass(wl, tracer.point)
        finally:
            tracer.uninstall()
        result["attempted"] += len(pts)
        result["failures"] += _gate(args.workload, pts)
        result["layers"] = tracer.totals()
        result["counters"] = _counters(pts)
        result["trace_overhead_s"] = wall - statistics.median(p["wall_s"] for p in passes)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl.gz"
        tracer.write(str(path))
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN}}


# --------------------------------------------------------------- parent

def _spawn(mode: str, args, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], "max"
    return s[len(s) - 11], f"p{100.0 * (len(s) - 10) / len(s):.0f}"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> int:
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        setups.append(_spawn("setup", args, deadline - time.perf_counter())["setup_s"])
    res = _spawn("measure", args, deadline - time.perf_counter())
    if res["setup_s"] is not None:
        setups.append(res["setup_s"])

    per_point: dict[str, list[float]] = {}
    for pid, sec in res["points"]:
        per_point.setdefault(pid, []).append(sec)
    # a point's time is its median over passes, which damps slow phases
    # of a shared machine; p50 and tail are taken over points
    seconds = [statistics.median(v) for v in per_point.values()]
    attempted, failed = res["attempted"], len(res["failures"])
    for msg in res["failures"]:
        print(f"answer departs: {msg}")
    walls = [p["wall_s"] for p in res["passes"]]
    print(f"environment: {json.dumps(res['versions'], sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {len(walls)} untraced passes, "
          f"{len(res['points'])} point samples, {len(setups)} set-ups, "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")

    if args.trace:
        layers = res["layers"]
        layers[STAGE] = {"calls": sum(layers[k]["calls"] for k in STAGE_PARTS),
                         "self_s": sum(layers[k]["self_s"] for k in STAGE_PARTS)}
        for label, rec in layers.items():
            print(f"  {label}: {rec['calls']} calls, {rec['self_s']:.6g} s self")
        print(f"spans written to {res['trace_file']}")
        values = {f"{k}.calls": layers[k]["calls"] for k in tracing_labels()}
        values.update({f"{k}.self_s": layers[k]["self_s"] for k in SELF_TIME_LAYERS})
        values.update({f"constrained_solver.{k}": v for k, v in res["counters"].items()})
        values["trace_overhead_s"] = res["trace_overhead_s"]
        metrics = {name: _metric(values[name], unit) for name, unit in per_layer_metrics()}
    else:
        tail, tail_label = _tail(seconds)
        print(f"point_s_tail is the {tail_label} of {len(seconds)} per-point medians")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "point_s_p50": statistics.median(seconds),
            "point_s_tail": tail,
            "cpu_s": statistics.median(p["cpu_s"] for p in res["passes"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def freeze(args) -> int:
    reference = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        reference[name] = _spawn("freeze", args, 600.0)["answers"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite the seed-0 answer reference and exit")
    ap.add_argument("--child", choices=("setup", "measure", "freeze"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_PIN)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "kirchhoff_normalized" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if args.freeze:
        args.seed = 0
        return freeze(args)
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"missing answer reference {REFERENCE}", file=sys.stderr)
        return 2
    try:
        return measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
