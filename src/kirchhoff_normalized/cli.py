"""Command-line front end.

Five subcommands.  `thresholds`, `gn`, `solve`, and `moser` emit
single-model artifacts (threshold constants, the extremal profile and
its norms, one constrained solve, the bound check along the
concentration sequence).  `sweep` walks the product of p, a, b, c axes,
classifies every tuple, and writes a phase table in csv, json, or
gnuplot form.

Each subcommand takes only the shared flags it reads (SHARED_FLAGS):
`thresholds` and `moser` take --out, `gn` adds --grid-size and --rmax,
`solve` adds --tol and --seed, and `sweep` adds --jobs and --format.
A --config JSON file may set those flags of its subcommand and no other.

Output is deterministic for a fixed invocation and seed: rows keep the
axis-product order, every float prints through one %.12g formatter, and
each sweep tuple gets its own worker seed derived from the global seed
by tuple index.  Reruns are byte-identical regardless of --jobs.  Only
a sweep with --jobs above 1 (after capping, see _worker_count) imports
the process pool, so the other subcommands and one-process sweeps never
load multiprocessing.

Exit codes: 0 on success, 2 on a bad specification (argparse usage
errors, a flag the subcommand does not read, a `sweep` dimension
outside [2, radial_grid.MAX_DIMENSION], an extremal that the shooting
cannot certify and a `moser` mass whose fiber search finds no maximum
included), 3 on I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import product

from .constrained_solver import (
    SolveParams,
    classify,
    minimize_on_sphere,
    mountain_pass,
)
from .gn_ground_state import DEFAULT_CELLS, ShootError, gn_constant, ground_state
from .models import (
    Model,
    affine_coefficient,
    make_exp_critical,
    power_nonlinearity,
)
from .moser_sequence import mp_bound_check, profile_index
from .omega_thresholds import threshold_set
from .radial_grid import (MAX_DIMENSION, finite_real, integer, integer_dimension,
                          positive_real, write_profile_csv)


class SpecError(ValueError):
    """Invocation asks for something the toolkit cannot mean."""


PHASE_COLUMNS = (
    "dimension", "p", "a", "b", "c",
    "predicted", "observed_status", "infimum_estimate", "multiplier",
    "agreement", "existence_ok", "c0", "c_star", "c1_exact", "c1_upper",
    "error",
)


def _jsonable(obj):
    """Non-finite floats have no strict-JSON spelling; emit null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# most tuples one sweep may ask for: a range's count is checked before
# its axis is built, the axis product before any task list is
MAX_SWEEP_TUPLES = 100_000


def parse_axis(text: str) -> tuple[float, ...]:
    """An axis is `lo:hi:count` (inclusive, evenly spaced) or a comma list."""
    text = text.strip()
    if not text:
        raise SpecError("empty axis")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError(f"axis {text!r}: want lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise SpecError(f"axis {text!r}: {exc}") from None
        if count < 1:
            raise SpecError(f"axis {text!r}: count must be positive")
        if count > MAX_SWEEP_TUPLES:
            raise SpecError(f"axis {text!r}: count exceeds {MAX_SWEEP_TUPLES}")
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + i * step for i in range(count))
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise SpecError(f"axis {text!r}: {exc}") from None
    if not values:
        raise SpecError("empty axis")
    return values


@dataclass
class SweepSpec:
    """One phase-diagram run: the axes, the solver knobs, the output.

    Each p, a and b must pass the finite_real rule and each c the
    positive_real rule; a value that does not is a SpecError naming its
    axis."""

    dimension: int
    p_values: tuple[float, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    c_values: tuple[float, ...]
    params: SolveParams = field(default_factory=SolveParams)
    jobs: int = 1

    def __post_init__(self):
        if not 2 <= integer_dimension(self.dimension) <= MAX_DIMENSION:
            raise SpecError(f"dimension must lie in [2, {MAX_DIMENSION}], "
                            f"got {self.dimension}")
        axes = (self.p_values, self.a_values, self.b_values, self.c_values)
        for name, axis in zip("pabc", axes):
            if not axis:
                raise SpecError(f"{name}_values is empty")
            rule = positive_real if name == "c" else finite_real
            try:
                for v in axis:
                    rule(name, v)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        if math.prod(len(axis) for axis in axes) > MAX_SWEEP_TUPLES:
            raise SpecError(f"the axes span more than {MAX_SWEEP_TUPLES} tuples")
        if integer("jobs", self.jobs) < 1:
            raise SpecError("jobs must be positive")

    def tuples(self):
        axes = product(self.p_values, self.a_values,
                       self.b_values, self.c_values)
        for index, (p, a, b, c) in enumerate(axes):
            yield index, self.dimension, p, a, b, c


def _sweep_worker(task):
    index, dim, p, a, b, c, params = task
    row = dict.fromkeys(PHASE_COLUMNS)
    row.update(dimension=dim, p=p, a=a, b=b, c=c,
               predicted="unclassified", agreement="inconclusive")
    try:
        model = Model(affine_coefficient(a, b), power_nonlinearity(p, dim))
        rec = classify(model, c, replace(params, seed=params.seed + index))
    except Exception as exc:
        row.update(observed_status="error", error=str(exc))
        return index, row
    thr = rec.thresholds
    row.update(predicted=rec.predicted, observed_status=rec.observed_status,
               infimum_estimate=rec.infimum_estimate, multiplier=rec.multiplier,
               agreement=rec.agreement, existence_ok=thr.existence_ok, c0=thr.c0,
               c_star=thr.c_star, c1_exact=thr.c1_exact, c1_upper=thr.c1_upper)
    return index, row


def _worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: --jobs, capped by the task count and
    the CPU count.  A process pool forks all its workers up front, so an
    uncapped huge --jobs would try to fork that many processes."""
    return max(1, min(jobs, n_tasks, os.cpu_count() or 1))


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One phase row per (p, a, b, c) tuple, in product order.

    Tuples are independent, so they fan out over at most --jobs
    processes (see _worker_count); the single collector reorders by
    index.  A tuple that fails records the error in its own row and
    never aborts the rest.
    """
    tasks = [(i, d, p, a, b, c, spec.params)
             for i, d, p, a, b, c in spec.tuples()]
    workers = _worker_count(spec.jobs, len(tasks))
    if workers == 1:
        results = [_sweep_worker(t) for t in tasks]
    else:
        # imported here: the pool loads multiprocessing, socket and logging
        # (about 40 ms), which a one-process sweep never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    results.sort(key=lambda pair: pair[0])
    return [row for _, row in results]


def render_report(rows: list[dict], fmt: str) -> str:
    """Serialize a phase table with a stable column order."""
    if not rows:
        raise SpecError("empty phase table")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(PHASE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in PHASE_COLUMNS])
        return buf.getvalue()
    if fmt == "json":
        table = {"columns": list(PHASE_COLUMNS),
                 "records": [{col: _jsonable(row[col]) for col in PHASE_COLUMNS}
                             for row in rows]}
        return json.dumps(table, indent=2, allow_nan=False) + "\n"
    if fmt == "gnuplot":
        # one index per (N, p, a, b) group: c, I_c estimate, branch
        blocks = []
        seen = {}
        for row in rows:
            key = (row["dimension"], row["p"], row["a"], row["b"])
            if key not in seen:
                seen[key] = []
                seen[key].append(
                    f"# N={_fmt(key[0])} p={_fmt(key[1])}"
                    f" a={_fmt(key[2])} b={_fmt(key[3])}")
            seen[key].append(
                f"{_fmt(row['c'])} {_fmt(row['infimum_estimate'])}"
                f" {row['predicted']}")
        for key in seen:
            blocks.append("\n".join(seen[key]) + "\n")
        return "\n\n".join(blocks)
    raise SpecError(f"unknown format {fmt!r}")


# The shared flags: the subcommands that read each, and its argparse
# keywords.  A subcommand takes only the flags it reads, plus --config,
# whose JSON file may set exactly those.
SHARED_FLAGS = (
    ("--grid-size", "gn solve sweep",
     dict(type=int, help="radial cells (default: solver default)")),
    ("--rmax", "gn solve sweep", dict(type=float, help="truncation radius")),
    ("--tol", "solve sweep", dict(type=float, help="relative residual tolerance")),
    ("--seed", "solve sweep", dict(type=int, help="restart-profile seed (default 0)")),
    ("--jobs", "sweep", dict(type=int, help="sweep worker processes (default 1)")),
    ("--out", "thresholds gn solve moser sweep",
     dict(metavar="DIR", help="directory for emitted files")),
    ("--format", "sweep", dict(choices=("csv", "json", "gnuplot"),
                               help="sweep table format (default csv)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchhoffn",
        description="normalized solutions of Kirchhoff-type equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=summary)
        for flag, readers, kw in SHARED_FLAGS:
            if name in readers.split():
                cmd.add_argument(flag, default=None, **kw)
        cmd.add_argument("--config", default=None, metavar="FILE",
                         help="JSON file of defaults for the flags above")
        return cmd

    pt = command("thresholds", "mass thresholds for one (N, p, a, b)")
    pt.add_argument("--dim", type=int, required=True)
    pt.add_argument("--p", type=float, required=True)
    pt.add_argument("--a", type=float, default=1.0)
    pt.add_argument("--b", type=float, default=1.0)

    pg = command("gn", "interpolation extremal profile and norms")
    pg.add_argument("--dim", type=int, required=True)
    pg.add_argument("--p", type=float, required=True)

    ps = command("solve", "one constrained solve on the mass sphere")
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--a", type=float, default=1.0)
    ps.add_argument("--b", type=float, default=1.0)
    ps.add_argument("--c", type=float, required=True)
    ps.add_argument("--mode", choices=("min", "mp"), default="min")
    ps.add_argument("--restarts", type=int, default=None)

    pm = command("moser", "saddle-level ceiling check, exponential model")
    pm.add_argument("--n-list", default="10,100,1000")
    pm.add_argument("--alpha0", type=float, default=1.0)
    pm.add_argument("--beta", type=float, default=1.0)
    pm.add_argument("--theta", type=float, default=1.0)
    pm.add_argument("--a", type=float, default=1.0)
    pm.add_argument("--b", type=float, default=1.0)
    pm.add_argument("--c", type=float, default=1.0)

    pw = command("sweep", "phase table over a (p, a, b, c) product")
    pw.add_argument("--dim", type=int, required=True)
    pw.add_argument("--p", required=True, metavar="AXIS")
    pw.add_argument("--a", default="1", metavar="AXIS")
    pw.add_argument("--b", default="1", metavar="AXIS")
    pw.add_argument("--c", required=True, metavar="AXIS")
    pw.add_argument("--restarts", type=int, default=None)

    return parser


def _apply_config(args) -> None:
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise SpecError(f"config {args.config}: want a JSON object")
    flags = {flag[2:].replace("-", "_"): kw for flag, readers, kw in SHARED_FLAGS
             if args.command in readers.split()}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise SpecError(f"config {args.config}: unknown keys {unknown}")
    for key, value in cfg.items():
        # explicit flags win over the config file; null leaves a flag unset
        if getattr(args, key) is not None or value is None:
            continue
        # a config value must be what the flag accepts on the command line
        kw = flags[key]
        try:
            value = kw.get("type", str)(str(value))
            if value not in kw.get("choices", (value,)):
                raise ValueError
        except (TypeError, ValueError):
            raise SpecError(f"config {args.config}: bad value "
                            f"{cfg[key]!r} for {key}") from None
        setattr(args, key, value)


def _solve_params(args, restarts=None) -> SolveParams:
    """The SolveParams defaults, overridden by each solver flag given."""
    given = {"n_cells": args.grid_size, "r_max": args.rmax,
             "residual_tol": args.tol, "seed": args.seed, "restarts": restarts}
    return replace(SolveParams(), **{k: v for k, v in given.items() if v is not None})


def _emit(args, filename: str, text: str) -> None:
    """Print the artifact; mirror it into --out when one is given."""
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, filename), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_thresholds(args) -> int:
    q = ground_state(args.dim, args.p)
    thr = threshold_set(args.a, args.b, args.p, args.dim, q.q_l2,
                        gn_constant(args.dim, args.p))
    _emit(args, "thresholds.json",
          json.dumps(thr.to_dict(), indent=2) + "\n")
    return 0


def cmd_gn(args) -> int:
    q = ground_state(args.dim, args.p, r_max=args.rmax,
                     n_cells=args.grid_size if args.grid_size is not None
                     else DEFAULT_CELLS)
    out = args.out if args.out is not None else "."
    os.makedirs(out, exist_ok=True)
    write_profile_csv(q.profile, os.path.join(out, "gn_profile.csv"))
    norms = {
        "dimension": args.dim,
        "p": args.p,
        "q_l2": q.q_l2,
        "mass": q.mass,
        "grad_sq": q.grad_sq,
        "lp": q.lp,
        "crit": q.crit,
        "truncation_radius": q.truncation_radius,
        "gn_constant": gn_constant(args.dim, args.p, q),
    }
    text = json.dumps(norms, indent=2) + "\n"
    with open(os.path.join(out, "gn_norms.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    model = Model(affine_coefficient(args.a, args.b),
                  power_nonlinearity(args.p, args.dim))
    params = _solve_params(args, restarts=args.restarts)
    run = minimize_on_sphere if args.mode == "min" else mountain_pass
    report = run(model, args.c, params)
    payload = {
        "model": {"dimension": args.dim, "p": args.p,
                  "a": args.a, "b": args.b},
        "c": args.c,
        "mode": args.mode,
        "report": report.to_dict(),
    }
    _emit(args, "solve_report.json",
          json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")
    if report.candidate is not None:
        out = args.out if args.out is not None else "."
        os.makedirs(out, exist_ok=True)
        write_profile_csv(report.candidate.u,
                          os.path.join(out, "solve_profile.csv"))
    return 0


def _profile_index(tok: str) -> int:
    """One --n-list entry: a finite integral number such as 100 or 1e4."""
    try:
        return profile_index(float(tok))
    except ValueError as exc:
        raise SpecError(f"--n-list: {tok.strip()!r}: {exc}") from None


def cmd_moser(args) -> int:
    n_list = [_profile_index(tok) for tok in args.n_list.split(",") if tok.strip()]
    if not n_list:
        raise SpecError("--n-list is empty")
    model = Model(affine_coefficient(args.a, args.b),
                  make_exp_critical(args.alpha0, args.beta, args.theta))
    report = mp_bound_check(model, args.c, n_list)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "max_g", "argmax_t", "bound", "margin"))
    for rec in report.records:
        writer.writerow((rec.n, _fmt(rec.max_g), _fmt(rec.argmax_t),
                         _fmt(rec.bound), _fmt(rec.margin)))
    _emit(args, "moser.csv", buf.getvalue())
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        dimension=args.dim,
        p_values=parse_axis(args.p),
        a_values=parse_axis(args.a),
        b_values=parse_axis(args.b),
        c_values=parse_axis(args.c),
        params=_solve_params(args, restarts=args.restarts),
        jobs=args.jobs if args.jobs is not None else 1,
    )
    rows = run_sweep(spec)
    fmt = args.format if args.format is not None else "csv"
    ext = {"csv": "csv", "json": "json", "gnuplot": "dat"}[fmt]
    out = args.out if args.out is not None else "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"sweep.{ext}")
    with open(path, "w") as fh:
        fh.write(render_report(rows, fmt))
    sys.stdout.write(f"wrote {path} ({len(rows)} rows)\n")
    return 0


HANDLERS = {
    "thresholds": cmd_thresholds,
    "gn": cmd_gn,
    "solve": cmd_solve,
    "moser": cmd_moser,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return HANDLERS[args.command](args)
    except (SpecError, ValueError, ShootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
