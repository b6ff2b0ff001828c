"""Command-line front end: artifacts, sweep table, determinism, exits.

Everything drives cli.main() in-process.  Determinism checks compare
emitted bytes across reruns and across --jobs settings; sweep content is
checked against the same classification the library performs directly,
so the CLI layer is plumbing under test, not the solver again.
"""

import json
import os
import subprocess
import sys

import pytest

from kirchhoff_normalized import SolveParams, cli, gn_ground_state, read_profile_csv
from kirchhoff_normalized.cli import (
    MAX_SWEEP_TUPLES,
    PHASE_COLUMNS,
    SpecError,
    SweepSpec,
    _apply_config,
    _worker_count,
    build_parser,
    main,
    parse_axis,
    render_report,
)
from kirchhoff_normalized.radial_grid import MAX_CELLS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _no_sweep(spec):
    raise AssertionError("a rejected specification must not start a sweep")


def _no_solve(*args):
    raise AssertionError("a rejected grid size must not start a solve")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


FAST = ("--grid-size", "1200", "--restarts", "2")

# the required arguments of each subcommand, and the shared flags it
# does not read
COMMAND_ARGS = {
    "thresholds": ("--dim", "4", "--p", "3"),
    "gn": ("--dim", "4", "--p", "3"),
    "solve": ("--dim", "4", "--p", "3", "--c", "1"),
    "moser": (),
    "sweep": ("--dim", "4", "--p", "3", "--c", "1"),
}
UNREAD_FLAGS = {
    "thresholds": ("--grid-size", "--rmax", "--tol", "--seed", "--jobs",
                   "--format"),
    "moser": ("--grid-size", "--rmax", "--tol", "--seed", "--jobs",
              "--format"),
    "gn": ("--tol", "--seed", "--jobs", "--format"),
    "solve": ("--jobs", "--format"),
    "sweep": (),
}


class TestAxisParsing:
    def test_triple_is_inclusive(self):
        assert parse_axis("1:5:5") == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_count_one_collapses(self):
        assert parse_axis("2:9:1") == (2.0,)

    def test_comma_list(self):
        assert parse_axis("2.5, 2.8,3.0") == (2.5, 2.8, 3.0)

    @pytest.mark.parametrize("bad", ["", ",", "1:2", "1:2:0", "a,b", "1:x:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_axis(bad)


class TestThresholds:
    def test_emits_threshold_constants(self, capsys):
        rc, out, _ = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3")
        assert rc == 0
        d = json.loads(out)
        assert d["c1_exact"] == pytest.approx(20.220462519940906, rel=1e-9)
        assert d["existence_ok"] is True

    def test_c0_past_the_float_range_is_a_note(self, capsys):
        rc, out, _ = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3.999999")
        assert rc == 0
        d = json.loads(out)
        assert d["c0"] is None
        assert any(note.startswith("c0 unavailable") for note in d["notes"])

    def test_c0_overflow_near_two_star_is_a_note(self, capsys):
        rc, out, _ = run_cli(capsys, "thresholds", "--dim", "5", "--p", "3.333",
                             "--b", "0.1")
        assert rc == 0
        d = json.loads(out)
        assert d["c0"] is None and d["c_star"] > 0.0
        assert any(note.startswith("c0 unavailable") for note in d["notes"])

    def test_planar_dimension_is_one_note(self, capsys):
        # no critical embedding at N = 2: no Sobolev constant, no
        # threshold, and one note saying so
        rc, out, _ = run_cli(capsys, "thresholds", "--dim", "2", "--p", "3")
        assert rc == 0
        d = json.loads(out)
        assert d["sobolev"] is None and d["existence_ok"] is False
        assert d["notes"] == ["no explicit thresholds below dimension 4"]

    def test_out_dir_mirrors_stdout(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "thresholds", "--dim", "5", "--p", "2.8",
                             "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "thresholds.json").read_text() == out


class TestGn:
    def test_profile_and_norms(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "gn", "--dim", "4", "--p", "3",
                             "--grid-size", "1500", "--out", str(tmp_path))
        assert rc == 0
        norms = json.loads(out)
        assert norms == json.loads((tmp_path / "gn_norms.json").read_text())
        q = read_profile_csv(str(tmp_path / "gn_profile.csv"))
        assert q.mass() == pytest.approx(norms["mass"], rel=1e-12)
        assert norms["q_l2"] == pytest.approx(norms["mass"] ** 0.5, rel=1e-12)


class TestSolve:
    def test_minimizer_artifacts(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "solve", "--dim", "4", "--p", "2.5",
                             "--c", "1", *FAST, "--out", str(tmp_path))
        assert rc == 0
        d = json.loads(out)
        assert d["mode"] == "min"
        assert d["report"]["status"] == "converged_minimizer"
        assert d["report"]["candidate"]["lambda"] < 0
        u = read_profile_csv(str(tmp_path / "solve_profile.csv"))
        assert u.mass() == pytest.approx(1.0, rel=1e-8)

    def test_saddle_mode_reports_absence_honestly(self, capsys, tmp_path):
        # below the mass-critical threshold the fiber never descends
        rc, out, _ = run_cli(capsys, "solve", "--dim", "4", "--p", "3",
                             "--c", "10", "--mode", "mp", *FAST,
                             "--out", str(tmp_path))
        assert rc == 0
        d = json.loads(out)
        assert d["report"]["status"] == "no_nontrivial_solution_found"
        assert any("no saddle geometry" in n for n in d["report"]["notes"])
        assert not (tmp_path / "solve_profile.csv").exists()

    def test_diverged_report_is_strict_json(self, capsys, tmp_path):
        # b = 0.001 < 1/S^2 at N=4: the quartic term cannot stop the
        # descent, the energy is unbounded below
        rc, out, _ = run_cli(capsys, "solve", "--dim", "4", "--p", "3",
                             "--b", "0.001", "--c", "22", "--restarts", "2",
                             "--grid-size", "400", "--out", str(tmp_path))
        assert rc == 0
        assert "NaN" not in out and "Infinity" not in out
        report = json.loads(out)["report"]
        assert report["status"] == "diverged"
        assert report["infimum_estimate"] is None
        assert report["candidate"] is None
        assert not (tmp_path / "solve_profile.csv").exists()

    def test_domain_too_small_for_the_saddle_path_exits_2(self, capsys, tmp_path):
        # the profile tail cannot spread within r_max = 4: a domain limit,
        # reported as an error, not as an absent saddle
        rc, out, err = run_cli(capsys, "solve", "--dim", "4", "--p", "3",
                               "--c", "5", "--mode", "mp", "--rmax", "4",
                               "--out", str(tmp_path))
        assert rc == 2
        assert out == "" and err.startswith("error: domain radius r_max = 4 ")
        assert "no saddle geometry" not in err
        assert not (tmp_path / "solve_report.json").exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--rmax", "inf", "r_max"),
        ("--tol", "inf", "residual_tol"),
        ("--grid-size", "-5", "n_cells"),
        ("--grid-size", str(MAX_CELLS + 1), "n_cells"),
    ])
    def test_bad_solve_params_exit_2(self, capsys, monkeypatch, flag, value,
                                     field):
        monkeypatch.setattr(cli, "minimize_on_sphere", _no_solve)
        rc, out, err = run_cli(capsys, "solve", "--dim", "4", "--p", "3",
                               "--c", "1", flag, value)
        assert rc == 2
        assert out == "" and err.startswith(f"error: {field} must")


class TestMoser:
    def test_margin_column_is_bound_minus_max(self, capsys):
        rc, out, _ = run_cli(capsys, "moser", "--n-list", "10,1e2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,max_g,argmax_t,bound,margin"
        assert len(lines) == 3
        for line in lines[1:]:
            n, max_g, _, bound, margin = line.split(",")
            assert int(n) in (10, 100)
            assert float(margin) == pytest.approx(
                float(bound) - float(max_g), abs=1e-9)

    def test_alpha0_four_pi_runs(self, capsys):
        rc, out, _ = run_cli(capsys, "moser", "--n-list", "10",
                             "--alpha0", "12.566370614359172")
        assert rc == 0
        assert float(out.strip().splitlines()[1].split(",")[-1]) > 0

    @pytest.mark.parametrize("n_list", ["inf", "1e400", "2.7", "nan"])
    def test_non_integral_n_is_spec_error(self, capsys, n_list):
        rc, out, err = run_cli(capsys, "moser", "--n-list", n_list)
        assert rc == 2
        assert out == "" and "--n-list" in err

    def test_infinite_c_is_spec_error(self, capsys):
        rc, _, err = run_cli(capsys, "moser", "--n-list", "10", "--c", "inf")
        assert rc == 2
        assert "mass radius" in err


class TestSweep:
    def test_sign_change_straddles_the_threshold(self, capsys, tmp_path):
        # mass-critical N=4 with the quartic term above its floor: the
        # infimum estimate flips sign across c1 within grid resolution.
        # the spread minimizer lives on a widened grid, so this sweep
        # needs more cells than the other smoke runs or the balance
        # filter trips on quadrature error
        rc, out, _ = run_cli(capsys, "sweep", "--dim", "4", "--p", "3",
                             "--b", "0.019", "--c", "18,20,22",
                             "--grid-size", "2500", "--restarts", "2",
                             "--out", str(tmp_path))
        assert rc == 0
        assert "3 rows" in out
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == ",".join(PHASE_COLUMNS)
        recs = [dict(zip(PHASE_COLUMNS, r.split(","))) for r in rows[1:]]
        assert [r["predicted"] for r in recs] == [
            "zero_infimum_unattained", "zero_infimum_unattained",
            "ground_state"]
        assert float(recs[0]["infimum_estimate"]) >= -1e-6
        assert float(recs[2]["infimum_estimate"]) < 0
        assert recs[2]["agreement"] == "corroborated"

    def test_error_recorded_in_row_not_fatal(self, capsys, tmp_path):
        rc, _, _ = run_cli(capsys, "sweep", "--dim", "5", "--p", "2.5,5.0",
                           "--c", "1", *FAST, "--out", str(tmp_path))
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        recs = [dict(zip(PHASE_COLUMNS, next(
            iter(__import__("csv").reader([r]))))) for r in rows[1:]]
        assert recs[0]["error"] == ""
        assert recs[1]["observed_status"] == "error"
        assert recs[1]["error"] != ""

    def test_planar_row_has_no_error(self, capsys, tmp_path):
        rc, _, _ = run_cli(capsys, "sweep", "--dim", "2", "--p", "3",
                           "--c", "1", *FAST, "--out", str(tmp_path))
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        [rec] = [dict(zip(PHASE_COLUMNS, r.split(","))) for r in rows[1:]]
        assert rec["dimension"] == "2" and rec["error"] == ""
        assert rec["observed_status"] != "error"
        assert rec["predicted"] == "unclassified"

    def test_byte_identical_across_jobs(self, capsys, tmp_path):
        base = ("sweep", "--dim", "5", "--p", "2.5,2.8", "--c", "1,2",
                *FAST)
        rc1, _, _ = run_cli(capsys, *base, "--out", str(tmp_path / "one"))
        rc2, _, _ = run_cli(capsys, *base, "--jobs", "2",
                            "--out", str(tmp_path / "two"))
        assert rc1 == rc2 == 0
        assert (tmp_path / "one" / "sweep.csv").read_bytes() == \
            (tmp_path / "two" / "sweep.csv").read_bytes()

    def test_json_round_trip(self, capsys, tmp_path):
        rc, _, _ = run_cli(capsys, "sweep", "--dim", "5", "--p", "2.5",
                           "--c", "1,2", *FAST, "--format", "json",
                           "--out", str(tmp_path))
        assert rc == 0
        table = json.loads((tmp_path / "sweep.json").read_text())
        assert table["columns"] == list(PHASE_COLUMNS)
        assert len(table["records"]) == 2
        again = render_report(table["records"], "json")
        assert json.loads(again) == table

    def test_gnuplot_block_per_group(self, capsys, tmp_path):
        rc, _, _ = run_cli(capsys, "sweep", "--dim", "5", "--p", "2.5,2.8",
                           "--c", "1,2", *FAST, "--format", "gnuplot",
                           "--out", str(tmp_path))
        assert rc == 0
        text = (tmp_path / "sweep.dat").read_text()
        headers = [l for l in text.splitlines() if l.startswith("# N=")]
        assert len(headers) == 2
        blocks = [b for b in text.split("\n\n\n") if b.strip()]
        assert len(blocks) == 2
        for block in blocks:
            data = [l for l in block.splitlines() if not l.startswith("#")]
            assert len(data) == 2


class TestConfigAndExits:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "from_cfg")}))
        rc, _, _ = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3",
                           "--config", str(cfg))
        assert rc == 0
        assert (tmp_path / "from_cfg" / "thresholds.json").exists()
        rc, _, _ = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3",
                           "--config", str(cfg),
                           "--out", str(tmp_path / "flag_wins"))
        assert rc == 0
        assert (tmp_path / "flag_wins" / "thresholds.json").exists()

    def test_unknown_config_key_is_spec_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gridsize": 100}))
        rc, _, err = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3",
                             "--config", str(cfg))
        assert rc == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("command,key", [
        ("thresholds", "tol"), ("moser", "grid_size"), ("gn", "seed"),
        ("solve", "jobs"), ("solve", "format"),
    ])
    def test_config_key_the_command_does_not_read(self, capsys, tmp_path,
                                                  command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        rc, out, err = run_cli(capsys, command, *COMMAND_ARGS[command],
                               "--config", str(cfg))
        assert rc == 2
        assert out == "" and "unknown keys" in err

    @pytest.mark.parametrize("cfg", [{"jobs": "two"}, {"jobs": True},
                                     {"tol": [1e-6]}, {"format": "xml"}])
    def test_mistyped_config_value_is_spec_error(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, _, err = run_cli(capsys, "sweep", "--dim", "4", "--p", "3",
                             "--c", "1", "--config", str(path))
        assert rc == 2
        assert err.startswith("error:") and "bad value" in err

    def test_config_values_take_the_flag_types(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"jobs": "2", "rmax": 24,
                                    "out": str(tmp_path / "typed")}))
        args = build_parser().parse_args(["sweep", "--dim", "4", "--p", "3",
                                          "--c", "1", "--config", str(path)])
        _apply_config(args)
        assert (args.jobs, args.rmax) == (2, 24.0)
        assert isinstance(args.rmax, float)

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in UNREAD_FLAGS.items()
        for flag in flags])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command,
                                                    flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *COMMAND_ARGS[command], flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("gn", "--dim", "4", "--p", "3", "--rmax", "0"),
        ("gn", "--dim", "4", "--p", "3", "--grid-size", "0"),
        ("gn", "--dim", "4", "--p", "3", "--rmax", "inf"),
        ("gn", "--dim", "4", "--p", "3", "--rmax", "nan"),
        ("gn", "--dim", "4", "--p", "3", "--rmax", "1e-3"),
        ("gn", "--dim", "2", "--p", "12"),
        ("gn", "--dim", "2", "--p", "3", "--grid-size", "16"),
        ("gn", "--dim", "2", "--p", "1e308"),
        ("thresholds", "--dim", "5", "--p", "nan"),
        ("thresholds", "--dim", "5", "--p", "2.8", "--a", "inf"),
        ("thresholds", "--dim", "5", "--p", "2.8", "--b", "nan"),
        ("thresholds", "--dim", "5", "--p", "2.8", "--a", "-1"),
        ("sweep", "--dim", "4", "--p", "2.5", "--c", "1", "--seed", "-1"),
        ("sweep", "--dim", "4", "--p", "2.5", "--c", "1", "--jobs", "0"),
        ("moser", "--n-list", ","),
        ("moser", "--theta", "-2"),
        ("moser", "--theta", "-5"),
        ("moser", "--theta", "-1.5"),
        ("moser", "--alpha0", "1e8"),
        ("moser", "--alpha0", "1e-300"),
        ("moser", "--beta", "1e8"),
        ("solve", "--dim", "4", "--p", "3", "--c", "1e300"),
        ("solve", "--dim", "4", "--p", "3", "--c", "1e100"),
        ("gn", "--dim", "2", "--p", "4", "--grid-size", "16"),
        ("moser", "--n-list", "2", "--c", "3000"),
        ("moser", "--n-list", "2", "--c", "1e-300"),
        ("moser", "--n-list", "2", "--c", "1e8"),
        ("moser", "--n-list", "10", "--b", "1e300"),
    ])
    def test_bad_input_exits_2(self, capsys, tmp_path, argv):
        rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert rc == 2
        assert out == "" and err.startswith("error:")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gn", "solve", "sweep"])
    def test_oversized_grid_exits_2(self, capsys, tmp_path, monkeypatch,
                                    command):
        monkeypatch.setattr(gn_ground_state, "_shoot_core", _no_solve)
        monkeypatch.setattr(cli, "minimize_on_sphere", _no_solve)
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        rc, out, err = run_cli(capsys, command, *COMMAND_ARGS[command],
                               "--grid-size", str(MAX_CELLS + 1),
                               "--out", str(tmp_path))
        assert rc == 2
        assert out == "" and str(MAX_CELLS) in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("text,message", [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "want a JSON object"),
    ])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc, out, err = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3",
                               "--config", str(cfg))
        assert rc == 2
        assert out == "" and err.startswith("error:") and message in err

    def test_module_entry_point(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

        def module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "kirchhoff_normalized", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                timeout=120)
        done = module("thresholds", "--dim", "4", "--p", "3")
        assert done.returncode == 0
        assert json.loads(done.stdout)["dimension"] == 4
        done = module("thresholds", "--dim", "4", "--p", "3", "--seed", "1")
        assert done.returncode == 2
        assert "unrecognized arguments" in done.stderr

    def test_import_loads_no_optional_scipy_module(self, tmp_path):
        # brentq and PCHIP live in the package and the LAPACK routines
        # come from scipy.linalg._flapack alone, so scipy.linalg's
        # __init__ (numpy.f2py, numpy.testing) never runs; the process
        # pool is imported only by a sweep with --jobs above 1
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, kirchhoff_normalized, kirchhoff_normalized.cli; "
             "print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert "scipy.linalg._flapack" in loaded
        for name in ("scipy.optimize", "scipy.interpolate", "scipy.special",
                     "scipy.linalg", "numpy.f2py", "numpy.testing",
                     "concurrent.futures.process"):
            assert name not in loaded

    def test_bad_p_is_spec_error(self, capsys):
        rc, _, err = run_cli(capsys, "thresholds", "--dim", "5", "--p", "9")
        assert rc == 2
        assert err.startswith("error:")

    def test_empty_axis_is_spec_error(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--dim", "5", "--p", "2.5",
                             "--c", ",")
        assert rc == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--dim", "4"])
        assert exc.value.code == 2

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc, _, err = run_cli(capsys, "thresholds", "--dim", "4", "--p", "3",
                             "--out", str(blocker))
        assert rc == 3
        assert "i/o error" in err

    def test_worker_count_is_capped(self):
        # checked on the function only: a pool of this size is never started
        cpus = os.cpu_count() or 1
        assert _worker_count(100_000, 24) == min(24, cpus)
        assert _worker_count(100_000, 1) == 1
        assert _worker_count(1, 24) == 1

    @pytest.mark.parametrize("axis,value", [
        ("--c", "nan"), ("--c", "inf"), ("--c", "1,nan"), ("--p", "nan"),
        ("--a", "inf"), ("--b", "-inf"), ("--c", "1:inf:3"),
    ])
    def test_non_finite_axis_exits_2(self, capsys, tmp_path, monkeypatch,
                                     axis, value):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        axes = {"--p": "2.5", "--a": "1", "--b": "0.1", "--c": "1"}
        axes[axis] = value
        # flag=value, so that argparse reads "-inf" as a value
        rc, out, err = run_cli(capsys, "sweep", "--dim", "4",
                               *(f"{k}={v}" for k, v in axes.items()),
                               "--out", str(tmp_path))
        assert rc == 2
        assert out == "" and "must be finite" in err
        assert not any(tmp_path.iterdir())

    def test_axis_count_capped_before_building(self):
        # one past the cap: harmless to build, so a missing check fails
        # the test instead of allocating
        assert len(parse_axis(f"1:4:{MAX_SWEEP_TUPLES}")) == MAX_SWEEP_TUPLES
        with pytest.raises(SpecError, match="count exceeds"):
            parse_axis(f"1:4:{MAX_SWEEP_TUPLES + 1}")

    def test_axis_product_capped(self):
        side = tuple(1.0 + k for k in range(18))  # 18**4 > MAX_SWEEP_TUPLES
        with pytest.raises(SpecError, match="tuples"):
            SweepSpec(4, side, side, side, side)
        assert len(list(SweepSpec(4, side, side, (0.1,), side).tuples())) \
            == 18**3

    def test_oversized_sweep_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        rc, _, err = run_cli(capsys, "sweep", "--dim", "4", "--p", "2.5",
                             "--c", f"1:4:{MAX_SWEEP_TUPLES + 1}",
                             "--out", str(tmp_path))
        assert rc == 2 and "count exceeds" in err
        rc, _, err = run_cli(capsys, "sweep", "--dim", "4",
                             "--p", "2.5:3:20", "--a", "1:2:20",
                             "--b", "0.1:0.2:20", "--c", "1:4:20",
                             "--out", str(tmp_path))
        assert rc == 2 and "tuples" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("dim", ["0", "1", "-3", "11"])
    def test_sweep_dimension_outside_the_range_exits_2(self, capsys, tmp_path,
                                                       monkeypatch, dim):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        rc, out, err = run_cli(capsys, "sweep", "--dim", dim, "--p", "3",
                               "--c", "1", "--out", str(tmp_path))
        assert rc == 2
        assert out == "" and "dimension must lie in [2, 10]" in err
        assert not any(tmp_path.iterdir())

    def test_solve_flags_map_onto_solve_params(self):
        parse = build_parser().parse_args
        bare = parse(["solve", "--dim", "4", "--p", "3", "--c", "1"])
        assert cli._solve_params(bare) == SolveParams()
        args = parse(["sweep", "--dim", "4", "--p", "3", "--c", "1",
                      "--grid-size", "800", "--rmax", "30", "--tol", "1e-7",
                      "--seed", "5"])
        assert cli._solve_params(args, restarts=3) == SolveParams(
            n_cells=800, r_max=30.0, residual_tol=1e-7, seed=5, restarts=3)
        only_seed = parse(["solve", "--dim", "4", "--p", "3", "--c", "1",
                           "--seed", "2"])
        assert cli._solve_params(only_seed) == SolveParams(seed=2)

    def test_spec_invariants(self):
        with pytest.raises(SpecError):
            SweepSpec(4, (3.0,), (1.0,), (1.0,), ())
        with pytest.raises(SpecError):
            SweepSpec(4, (3.0,), (1.0,), (1.0,), (-1.0,))
        with pytest.raises(SpecError):
            render_report([], "csv")
        with pytest.raises(SpecError, match="unknown format"):
            render_report([dict.fromkeys(PHASE_COLUMNS)], "xml")
