import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccfour
from ccfour.census import MAX_RESOLUTION
from ccfour.cli import (MAX_GRID_VALUES, build_parser, main, parse_grid,
                        parse_sq, positive_float)
from ccfour.solver import CONVERGED


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_positive_float_validator():
    assert positive_float("1.5") == 1.5
    import argparse
    for bad in ("0", "-2", "abc", "inf", "nan", "1e999"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_float(bad)


def test_parse_grid_forms():
    assert parse_grid("0.5,1.0,2.0") == [0.5, 1.0, 2.0]
    assert parse_grid("0.2:0.6:0.2") == pytest.approx([0.2, 0.4, 0.6])
    import argparse
    for bad in ("0.5:0.1:0.2", "1:2", "0,-1", "nan", "0.5,inf",
                "0.1:inf:0.1", "0.1:1:nan", "0.1:1:0", ","):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(bad)


def test_parse_sq_validator():
    sq = parse_sq("2,1,1,1,1,2")
    assert tuple(sq) == (2, 1, 1, 1, 1, 2)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_sq("1,2,3")
    for bad in ("1,1,1,1,1,-1", "2,1,1,1,1,inf", "2,1,1,1,1,nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_sq(bad)


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--alpha", "-1", "--beta", "0.8"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.5", "--beta", "0.8", "--max-iterations", "0"],
    ["census", "--alpha", "0.5", "--beta", "0.8", "--resolution", "1"],
    ["verify", "--theorem1-grid", "0.5"],
    ["verify", "--rng-seed", "-1"],
    ["verify", "--resolution", "1"],
    ["sweep", "--beta-grid", "1", "--alpha-grid", "nan"],
    ["sweep", "--alpha-grid", "1", "--beta-grid", "0.1:inf:0.1"],
    ["verify", "--theorem2-grid", "nan"],
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-5"],
    ["realize", "--alpha", "1", "--beta", "1", "--sq", "2,1,1,1,1,inf"],
    pytest.param(["sweep", "--beta-grid", "1", "--alpha-grid", "0.1:1:1e-12"],
                 id="grid-of-9e11-values"),
    pytest.param(["sweep", "--beta-grid", "1", "--alpha-grid",
                  "0.1:1:1e-320"], id="grid-of-inf-values"),
], ids=lambda argv: argv[-2])
def test_bad_flag_value_exits_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"argument {argv[-2]}" in err


def test_verify_plot_data_is_a_usage_error(capsys, tmp_path):
    """verify has no plot data, so it has no --plot-data flag: exit 2 with
    one line on stderr, before any check runs, and no file."""
    plot = tmp_path / "p.csv"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--plot-data", str(plot)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "unrecognized arguments: --plot-data" in captured.err
    assert not plot.exists()


@pytest.mark.parametrize("argv", [
    ["realize", "--sq", "2,1,1,1,1,1e300", "--alpha", "1", "--beta", "1"],
    ["solve", "--alpha", "1e308", "--beta", "1e308"],
    ["census", "--alpha", "1e-200", "--beta", "1e-200"],
    ["solve", "--alpha", "1e100", "--beta", "1e100", "--ansatz", "rhombus"],
    ["solve", "--alpha", "1e150", "--beta", "1e150", "--ansatz", "rhombus"],
], ids=["realize-overflow", "solve-mass-overflow", "census-mass-underflow",
        "solve-rhombus-dilation-overflow-1e100",
        "solve-rhombus-dilation-overflow-1e150"])
def test_domain_and_planarity_errors_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def fresh_python(*args):
    """Run a fresh interpreter on this checkout that turns every warning
    into an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ccfour.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv, code", [
    (["solve", "--alpha", "1e200", "--beta", "1e-200"], 0),
    (["solve", "--alpha", "1e150", "--beta", "1e150", "--ansatz", "full"], 1),
    (["solve", "--alpha", "1e-300", "--beta", "1e-20"], 1),
    (["solve", "--alpha", "1e-300", "--beta", "1e-20", "--ansatz", "full"], 1),
], ids=["solve-extreme-ratio", "solve-full-huge-masses",
        "solve-subnormal-pair-product", "solve-full-subnormal-pair-product"])
def test_extreme_masses_end_without_warnings(argv, code):
    """Valid output or one error line, in a process that turns every
    warning into an error."""
    proc = fresh_python("-m", "ccfour.cli", *argv)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["report"]["converged"]
        assert doc["oracle_residual"] < 1e-12
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


# every command that never solves the 1-D rhombus root
SCIPY_FREE_COMMANDS = [
    ["census", "--alpha", "0.5", "--beta", "0.8", "--resolution", "2"],
    ["sweep", "--alpha-grid", "0.5", "--beta-grid", "0.8,1.0"],
    ["solve", "--alpha", "0.5", "--beta", "0.8", "--ansatz", "kite"],
    ["solve", "--alpha", "0.5", "--beta", "0.8", "--ansatz", "full"],
    ["realize", "--sq", "2,1,1,1,1,2", "--alpha", "1", "--beta", "1"],
    ["verify", "--trials", "10"],
]

# every command that solves the rhombus root
RHOMBUS_COMMANDS = [
    ["solve", "--alpha", "0.7", "--beta", "0.7", "--ansatz", "rhombus"],
    ["verify", "--trials", "10", "--resolution", "2",
     "--theorem2-grid", "0.5"],
]

SCIPY_PROBE = """
import contextlib, io, json, sys
from ccfour.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

runs = [[None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        runs.append([main(argv), scipy_modules()])
print(json.dumps(runs))
"""


def exit_codes_and_scipy_modules(commands):
    """Import ccfour.cli and run `commands` through main() in one fresh
    process; for the import and each command, the exit code and the scipy
    modules loaded by then."""
    proc = fresh_python("-c", SCIPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_the_rhombus_root_never_load_scipy():
    runs = exit_codes_and_scipy_modules(SCIPY_FREE_COMMANDS)
    assert runs == [[None, []]] + [[0, []]] * len(SCIPY_FREE_COMMANDS)


def test_rhombus_ansatz_loads_scipy_and_solves():
    """The name is kept from when the rhombus root loaded scipy.optimize.
    The root is now solved in-package, so the commands that solve it must
    exit 0 without loading any scipy module."""
    runs = exit_codes_and_scipy_modules(RHOMBUS_COMMANDS)
    assert runs == [[None, []]] + [[0, []]] * len(RHOMBUS_COMMANDS)


POWERS_OF_TEN = st.integers(-300, 300).map(lambda k: f"1e{k}")


# hypothesis reports a failing example through libcst, whose import warns
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=60)
@given(command=st.sampled_from(["kite", "full", "rhombus", "realize"]),
       alpha=POWERS_OF_TEN, beta=POWERS_OF_TEN)
def test_extreme_masses_exit_cleanly(command, alpha, beta):
    """Any masses from 1e-300 to 1e300: a result, one error line or a flag
    error, and no warning (they are errors under this suite's filter)."""
    if command == "rhombus":
        beta = alpha
    masses = ["--alpha", alpha, "--beta", beta]
    argv = (["realize", "--sq", "2,1,1,1,1,2", *masses]
            if command == "realize" else
            ["solve", *masses, "--ansatz", command])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv


def with_refused(values, *refused):
    """Flag values drawn from `values`, one time in eight one of the
    `refused` ones."""
    return st.sampled_from([False] * 7 + [True]).flatmap(
        lambda refuse: st.sampled_from(refused) if refuse else values)


TOLS = with_refused(st.integers(-330, 330).map(lambda k: f"1e{k}"),
                    "0", "-1e-12", "inf", "nan", "tol")
MAX_ITERATIONS = with_refused(st.integers(-2, 60).map(str), "2.5", "1e2", "")
GRID_VALUES = st.floats(0.05, 3.0).map(repr)
GRIDS = with_refused(
    st.one_of(
        st.lists(GRID_VALUES, min_size=1, max_size=3).map(",".join),
        # start:stop:step ranges of one to three values
        st.tuples(st.floats(0.05, 2.0), st.integers(0, 2),
                  st.floats(0.05, 0.5)).map(
            lambda r: f"{r[0]!r}:{r[0] + r[1] * r[2]!r}:{r[2]!r}")),
    "0.1:1", "1:0.5:0.1", "0.1:1:1e-12", "0.5,-1", ",", "nan")
SQS = with_refused(
    st.one_of(st.just("2,1,1,1,1,2"),  # a square
              st.lists(st.floats(0.01, 10.0).map(repr), min_size=6,
                       max_size=6).map(",".join)),
    "1,2,3", "2,1,1,1,1,inf", "2,1,1,1,1,-1")


# hypothesis reports a failing example through libcst, whose import warns
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(["kite", "full", "sweep", "census",
                                "realize"]),
       tol=TOLS, max_iterations=MAX_ITERATIONS,
       normalization=with_refused(
           st.sampled_from(["fix_inertia_one", "fix_a_one"]), "fix_b_two"),
       alpha_grid=GRIDS, beta_grid=GRIDS, sq=SQS)
def test_solver_and_grid_flags_exit_cleanly(command, tol, max_iterations,
                                            normalization, alpha_grid,
                                            beta_grid, sq):
    """Any --tol, --max-iterations, --normalization, grids or --sq: exit
    0, 1 or 2 with at most one line on stderr and no traceback."""
    masses = ["--alpha", "0.5", "--beta", "0.8"]
    solver = ["--tol", tol, "--max-iterations", max_iterations,
              "--normalization", normalization]
    argv = {
        "kite": ["solve", *masses, "--ansatz", "kite", *solver],
        "full": ["solve", *masses, "--ansatz", "full", *solver],
        "sweep": ["sweep", "--alpha-grid", alpha_grid,
                  "--beta-grid", beta_grid, *solver],
        "census": ["census", *masses, "--resolution", "2", *solver],
        "realize": ["realize", "--sq", sq, *masses],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_resolution_cap_keeps_the_lattice_within_the_grid_cap():
    assert MAX_RESOLUTION ** 4 <= MAX_GRID_VALUES < (MAX_RESOLUTION + 1) ** 4


@pytest.mark.parametrize("command", [
    ["census", "--alpha", "0.5", "--beta", "0.8"], ["verify"]],
    ids=["census", "verify"])
def test_resolution_above_the_cap_exits_2_with_one_line(capsys, command):
    """Parsed only: a census at such a resolution must never run."""
    parser = build_parser()
    args = parser.parse_args([*command, "--resolution", str(MAX_RESOLUTION)])
    assert args.resolution == MAX_RESOLUTION
    for too_many in (str(MAX_RESOLUTION + 1), "1" + "0" * 30):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*command, "--resolution", too_many])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert (f"argument --resolution: must be at most {MAX_RESOLUTION}"
                in err)


@pytest.mark.parametrize("alpha, classes", [("1e6", 0), ("0.5", 1)])
def test_census_warns_only_without_a_class(capsys, tmp_path, alpha, classes):
    """At alpha = beta = 1e6 no seed converges at the default --tol: one
    warning line that names it, and the report as without it."""
    plot = tmp_path / "plot.csv"
    code = main(["census", "--alpha", alpha, "--beta", alpha,
                 "--resolution", "2", "--plot-data", str(plot)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(json.loads(captured.out)["classes"]) == classes
    if classes:
        assert captured.err == ""
    else:
        assert captured.err.startswith("warning: ")
        assert captured.err.count("\n") == 1
        assert "--tol 1e-12" in captured.err
    assert plot.read_text().splitlines()[1] == "class,vertex,x,y,mass"


def test_grid_of_a_million_values_parses():
    assert len(parse_grid("0.1:1:9.00001e-7")) == MAX_GRID_VALUES
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_grid("0.1:1:9e-7")


def test_census_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--alpha", "0.5", "--beta", "0.8", "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--threads" in err


def test_solve_kite_json(capsys):
    code, doc = run_json(capsys, ["solve", "--alpha", "0.5", "--beta", "0.8"])
    assert code == 0
    assert doc["command"] == "solve"
    assert doc["report"]["converged"] is True
    assert doc["report"]["symmetry"] == "kite_axis_34"
    assert doc["lambda_cc"] < 0
    assert doc["oracle_residual"] < 1e-10
    assert len(doc["points"]) == 4


def test_solve_kite_skips_a_seed_that_converges_off_the_plane(capsys):
    # at --tol 1e-5 the first kite seed to converge does not embed in the
    # plane; the second converges to the planar kite
    code, doc = run_json(capsys, ["solve", "--alpha", "0.1", "--beta", "0.3",
                                  "--tol", "1e-5"])
    assert code == 0
    assert doc["report"]["symmetry"] == "kite_axis_34"
    assert doc["oracle_residual"] <= 1e-8


def test_solve_rhombus_requires_equal_masses(capsys):
    code = main(["solve", "--alpha", "0.5", "--beta", "0.8",
                 "--ansatz", "rhombus"])
    assert code == 1
    assert "rhombus" in capsys.readouterr().err


def test_solve_full_matches_kite(capsys):
    _, doc_full = run_json(capsys, ["solve", "--alpha", "0.5", "--beta",
                                    "0.8", "--ansatz", "full"])
    _, doc_kite = run_json(capsys, ["solve", "--alpha", "0.5", "--beta",
                                    "0.8", "--ansatz", "kite"])
    sq_full = doc_full["report"]["state"]["sq"]
    sq_kite = doc_kite["report"]["state"]["sq"]
    assert np.allclose(sq_full, sq_kite, rtol=1e-9)


@pytest.mark.parametrize("alpha", ["2.5", "2.6", "2.7"])
def test_solve_full_under_fix_a_one_finds_the_rhombus(capsys, alpha):
    # the square seed is dilated to a = 1; left at inertia one, off that
    # gauge, Newton stalled at 2.6 with residual 0.58
    code, doc = run_json(capsys, ["solve", "--alpha", alpha, "--beta", alpha,
                                  "--ansatz", "full",
                                  "--normalization", "fix_a_one"])
    assert code == 0
    assert doc["report"]["symmetry"] == "rhombus"
    assert doc["report"]["state"]["sq"][0] == pytest.approx(1.0, rel=1e-12)


def test_solve_csv(capsys):
    code = main(["solve", "--alpha", "0.5", "--beta", "0.8",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["alpha", "beta", "a", "b"]
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert "kite_axis_34" in fields


def test_solve_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["solve", "--alpha", "1.0", "--beta", "1.0",
                 "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["report"]["symmetry"] == "square"
    assert capsys.readouterr().out == ""


def test_solve_plot_data(tmp_path):
    plot = tmp_path / "points.csv"
    main(["solve", "--alpha", "1.0", "--beta", "1.0",
          "--plot-data", str(plot)])
    lines = plot.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "class,vertex,x,y,mass"
    assert len(lines) == 6  # header comment + header + four vertices


COMPUTING_COMMANDS = {
    "solve": (["solve", "--alpha", "0.5", "--beta", "0.8"], "solve_kite"),
    "sweep": (["sweep", "--alpha-grid", "0.5", "--beta-grid", "0.8"],
              "sweep"),
    "census": (["census", "--alpha", "0.5", "--beta", "0.8"], "census"),
}


@pytest.mark.parametrize("flag", ["--output", "--plot-data"])
@pytest.mark.parametrize("command", list(COMPUTING_COMMANDS))
def test_unwritable_path_fails_before_the_computation(
        capsys, monkeypatch, tmp_path, command, flag):
    """A path that cannot be opened for writing exits 1 with one io error
    line and nothing on stdout, before the command computes anything."""
    argv, compute = COMPUTING_COMMANDS[command]
    called = []
    monkeypatch.setattr(f"ccfour.cli.{compute}",
                        lambda *args, **kw: called.append(args))
    code = main([*argv, flag, str(tmp_path / "no" / "such" / "file")])
    out, err = capsys.readouterr()
    assert (code, out, called) == (1, "", [])
    assert err.startswith("io error:") and err.count("\n") == 1


def test_output_and_plot_data_on_one_file_exit_1(capsys, tmp_path):
    path = tmp_path / "both.json"
    code = main(["solve", "--alpha", "0.5", "--beta", "0.8", "--output",
                 str(path), "--plot-data", str(tmp_path / "." / "both.json")])
    out, err = capsys.readouterr()
    assert (code, out, path.exists()) == (1, "", False)
    assert err == "error: --output and --plot-data name the same file\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
@pytest.mark.parametrize("command", list(COMPUTING_COMMANDS))
def test_plot_data_write_error_leaves_no_document(capsys, command):
    """Plot data is written out before the document, so a write that fails
    after the computation exits 1 with nothing on stdout."""
    argv, _ = COMPUTING_COMMANDS[command]
    code = main([*argv, "--plot-data", "/dev/full"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("io error:") and err.count("\n") == 1


def test_sweep_csv_row_count(capsys):
    code = main(["sweep", "--alpha-grid", "0.5,1.0",
                 "--beta-grid", "0.8,1.0", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header + 4 cells


def test_sweep_records_a_cell_that_converges_off_the_plane_as_failed(
        capsys):
    code = main(["sweep", "--alpha-grid", "0.2:1.0:0.2",
                 "--beta-grid", "0.2:2.0:0.2", "--format", "csv",
                 "--tol", "1e-8"])
    assert code == 0
    header, *lines = capsys.readouterr().out.strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 50
    failed = [(float(r["alpha"]), float(r["beta"])) for r in rows
              if r["symmetry"] == "failed"]
    # the warm start at (1.0, 0.8) converges to a point off the plane
    assert failed == [(1.0, 0.8)]
    assert all(float(r["residual"]) < 1e-8 for r in rows
               if r["symmetry"] != "failed")


def test_sweep_json_and_plot(tmp_path, capsys):
    plot = tmp_path / "frames.csv"
    code, doc = run_json(capsys, ["sweep", "--alpha-grid", "1.0",
                                  "--beta-grid", "0.8:1.0:0.2",
                                  "--plot-data", str(plot)])
    assert code == 0
    assert len(doc["rows"]) == 2
    assert all(not math.isnan(row["nu"]) for row in doc["rows"])
    lines = plot.read_text().strip().splitlines()
    assert lines[1] == "alpha,beta,u,v,t,s,theta"
    assert len(lines) == 4


def test_census_json(capsys):
    code, doc = run_json(capsys, ["census", "--alpha", "0.5", "--beta",
                                  "0.8", "--resolution", "4"])
    assert code == 0
    assert doc["command"] == "census"
    assert "threads" not in doc["config"]
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["symmetry"] == "kite_axis_34"
    assert doc["outside_theorem_hypothesis"] is False


def test_census_csv(capsys):
    code = main(["census", "--alpha", "1.0", "--beta", "1.0",
                 "--resolution", "3", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["class", "symmetry", "basin"]
    assert len(lines) == 2
    assert "square" in lines[1]


def test_verify_passes(capsys):
    code, doc = run_json(capsys, ["verify", "--trials", "100",
                                  "--theorem2-grid", "0.8,1.2",
                                  "--resolution", "4"])
    assert code == 0
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "lemma3_sign" in names
    assert "theorem2_unique_rhombus" in names


def test_verify_theorem1_grid(capsys):
    code, doc = run_json(capsys, ["verify", "--trials", "50",
                                  "--theorem1-grid", "0.5,0.8;1.0,1.0",
                                  "--resolution", "4"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "theorem1_unique_kite" in names


def test_realize_json(capsys):
    code, doc = run_json(capsys, ["realize", "--sq", "2,1,1,1,1,2",
                                  "--alpha", "1.0", "--beta", "1.0"])
    assert code == 0
    pts = np.array(doc["points"])
    assert pts.shape == (4, 2)
    # recover the input squared distances
    d2 = [float(np.sum((pts[i] - pts[j]) ** 2))
          for i in range(4) for j in range(i + 1, 4)]
    assert np.allclose(d2, [2, 1, 1, 1, 1, 2], atol=1e-10)


def test_realize_nonplanar_fails(capsys):
    code = main(["realize", "--sq", "1,1,1,1,1,1",
                 "--alpha", "1.0", "--beta", "1.0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_output_digest_families_run_through_the_cli():
    """tools/output_digest.py lists the families README names; its command
    runner captures a command's status, stdout and stderr, and its newton
    runner gives the bits of solve_batch's arrays on the census seeds."""
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    runners = {name: runner for name, runner, _ in digest.families()}
    sizes = {name: len(jobs) for name, _, jobs in digest.families()}
    assert sizes == {
        **{f"census {n}": 80 for n in digest.NORMALIZATIONS},
        **{f"solve {a} {n}": 80 for a in ("kite", "full")
           for n in digest.NORMALIZATIONS},
        **{f"solve rhombus {n}": 30 for n in digest.NORMALIZATIONS},
        "sweep csv": 1, "sweep bench": 1, "verify": 1, "newton": 160}
    assert {name for name, runner in runners.items()
            if runner is not digest.run} == {"newton"}
    status, iters, x, residual = digest.newton((0.5, 0.8, "fix_a_one"))
    assert (len(status), len(iters), len(x), len(residual)) == (
        4096 * 8, 4096 * 8, 4096 * 64, 4096 * 8)
    # the census at (0.5, 0.8) under fix_a_one keeps every converged seed
    assert (np.frombuffer(status, dtype=int) == CONVERGED).sum() == 2742
    status, out, err = digest.run(["realize", "--sq", "2,1,1,1,1,2",
                                   "--alpha", "1", "--beta", "1"])
    assert (status, json.loads(out)["command"], err) == (0, "realize", "")
    status, out, err = digest.run(["census", "--alpha", "0.5", "--beta",
                                   "0.8", "--resolution", "1"])
    assert (status, out, err.count("\n")) == (2, "", 1)
