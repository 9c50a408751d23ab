"""Command-line interface: solve, sweep, census, verify, realize."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__
from .census import MAX_RESOLUTION, census
from .dziobek import MassVector, SquaredDistances
from .errors import CCFourError
from .geometry import PlanarConfig, canonicalize, newtonian_oracle, realize
from .jsonio import csv_text, dumps
from .solver import (NORMALIZATIONS, SolveOptions, SweepCell, gauged_sq,
                     newton_solve, seed_state, solve_kite, solve_rhombus,
                     sweep)
from .verifier import (DEFAULT_SEED, check_lemma1_nu_positive,
                       check_lemma2_albouy, check_lemma3_sign,
                       check_lemma4_orderings, check_theorem_identities,
                       run_theorem1_suite, run_theorem2_suite)


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a strictly positive finite number, got {text!r}")
    return value


def int_in_range(low: int, high: float = math.inf):
    """argparse type for an integer from `low` to `high`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text!r}")
        if value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {text!r}")
        return value
    return parse


MAX_GRID_VALUES = 10 ** 6


def parse_grid(text: str) -> list[float]:
    """Either comma-separated values or start:stop:step (inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"grid ranges use start:stop:step, got {text!r}")
        start, stop, step = (positive_float(p) for p in parts)
        if stop < start:
            raise argparse.ArgumentTypeError(f"bad grid range {text!r}")
        # the steps that stay within stop, up to rounding; may be inf
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_GRID_VALUES:
            raise argparse.ArgumentTypeError(
                f"grid {text!r} has {steps + 1:.0f} values, more than "
                f"{MAX_GRID_VALUES}")
        values = [start + k * step for k in range(math.floor(steps) + 1)]
    else:
        values = [positive_float(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(f"grid has no values: {text!r}")
    return values


def parse_pairs(text: str) -> list[tuple[float, float]]:
    """Semicolon-separated alpha,beta pairs of positive masses."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"expected alpha,beta pairs separated by ';', got {text!r}")
        alpha, beta = (positive_float(p) for p in parts)
        pairs.append((alpha, beta))
    return pairs


def parse_sq(text: str) -> SquaredDistances:
    parts = [positive_float(p) for p in text.split(",")]
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "expected six comma-separated squared distances a,b,c,d,e,f")
    return SquaredDistances(*parts)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=positive_float, default=1e-12,
                   help="residual tolerance (default 1e-12)")
    p.add_argument("--max-iterations", type=int_in_range(1), default=100,
                   help="Newton iteration budget (default 100)")
    p.add_argument("--normalization", choices=NORMALIZATIONS,
                   default="fix_inertia_one",
                   help="scale gauge (default fix_inertia_one)")


def _add_output_flags(p: argparse.ArgumentParser, formats: bool,
                      plot_data: bool) -> None:
    p.add_argument("--output", default=None,
                   help="output path (default stdout)")
    p.set_defaults(plot_data=None)
    if formats:
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="output format (default json)")
    if plot_data:
        p.add_argument("--plot-data",
                       help="also write plot-ready CSV to this path")


class _Parser(argparse.ArgumentParser):
    """Flag errors print one line on stderr and exit with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ccfour",
        description="Convex four-body central configurations in "
                    "squared-distance coordinates: solvers, census and "
                    "verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve for one mass vector")
    p_solve.add_argument("--alpha", type=positive_float, required=True)
    p_solve.add_argument("--beta", type=positive_float, required=True)
    p_solve.add_argument("--ansatz", choices=["kite", "rhombus", "full"],
                         default="kite")
    _add_solver_flags(p_solve)
    _add_output_flags(p_solve, formats=True, plot_data=True)

    p_sweep = sub.add_parser("sweep", help="mass-parameter sweep")
    p_sweep.add_argument("--alpha-grid", type=parse_grid, required=True,
                         help="comma list or start:stop:step")
    p_sweep.add_argument("--beta-grid", type=parse_grid, required=True)
    _add_solver_flags(p_sweep)
    _add_output_flags(p_sweep, formats=True, plot_data=True)

    p_census = sub.add_parser("census",
                              help="count solution classes for fixed masses")
    p_census.add_argument("--alpha", type=positive_float, required=True)
    p_census.add_argument("--beta", type=positive_float, required=True)
    p_census.add_argument("--resolution", default=8,
                          type=int_in_range(2, MAX_RESOLUTION))
    _add_solver_flags(p_census)
    _add_output_flags(p_census, formats=True, plot_data=True)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--trials", type=int_in_range(1), default=1000)
    p_verify.add_argument("--rng-seed", type=int_in_range(0),
                          default=DEFAULT_SEED)
    p_verify.add_argument("--resolution", default=6,
                          type=int_in_range(2, MAX_RESOLUTION),
                          help="census resolution for the theorem suites")
    p_verify.add_argument("--theorem1-grid", type=parse_pairs, default=None,
                          help="semicolon-separated alpha,beta pairs; "
                               "omit to skip the theorem 1 census suite")
    p_verify.add_argument("--theorem2-grid", type=parse_grid, default=None,
                          help="alpha grid; omit to skip the theorem 2 suite")
    _add_output_flags(p_verify, formats=False, plot_data=False)

    p_realize = sub.add_parser(
        "realize", help="realize six squared distances as planar points")
    p_realize.add_argument("--sq", type=parse_sq, required=True,
                           help="a,b,c,d,e,f")
    p_realize.add_argument("--alpha", type=positive_float, required=True)
    p_realize.add_argument("--beta", type=positive_float, required=True)
    _add_output_flags(p_realize, formats=False, plot_data=True)

    return parser


def configs_csv(configs: list[PlanarConfig]) -> str:
    """Plot-ready CSV of the vertices of each configuration."""
    rows = [{"class": k, "vertex": i + 1, "x": x, "y": y, "mass": mass}
            for k, config in enumerate(configs)
            for i, ((x, y), mass) in enumerate(zip(config.points.tolist(),
                                                   config.masses.masses))]
    return ("# columns: class,vertex,x,y,mass\n"
            + csv_text(["class", "vertex", "x", "y", "mass"], rows))


def frames_csv(frames: list[list[float]]) -> str:
    """Plot-ready CSV of (alpha, beta, u, v, t, s, theta) rows: the
    canonical frame of each grid cell."""
    columns = ["alpha", "beta", "u", "v", "t", "s", "theta"]
    return ("# columns: alpha,beta,u,v,t,s,theta (canonical frame shape "
            "parameters per grid cell)\n"
            + csv_text(columns, [dict(zip(columns, row)) for row in frames]))


# the flags that say where and how to write a document, not what it holds
_OUTPUT_FLAGS = ("command", "output", "format", "plot_data")


def _document(args, **body) -> str:
    """The JSON document of a command: its name, then as its config every
    parsed flag but the output ones, in parser order, then body."""
    config = {flag: value for flag, value in vars(args).items()
              if flag not in _OUTPUT_FLAGS}
    return dumps({"command": args.command, "config": config, **body})


def _opts(args) -> SolveOptions:
    return SolveOptions(max_iterations=args.max_iterations,
                        residual_tol=args.tol,
                        normalization=args.normalization)


def _cmd_solve(args) -> tuple:
    m = MassVector(alpha=args.alpha, beta=args.beta)
    opts = _opts(args)
    if args.ansatz == "rhombus":
        if abs(args.alpha - args.beta) > 0:
            raise CCFourError("--ansatz rhombus requires --alpha == --beta")
        report = solve_rhombus(args.alpha, opts)
    elif args.ansatz == "kite":
        report = solve_kite(m, opts)
    else:
        square = gauged_sq([2.0, 1.0, 1.0, 1.0, 1.0, 2.0], m,
                           opts.normalization)
        report = newton_solve(seed_state(square, m), m, opts)
    if args.format == "json":
        lam, resid = newtonian_oracle(report.config, m)
        text = _document(args, report=report.to_json_dict(), lambda_cc=lam,
                         oracle_residual=resid,
                         points=report.config.to_json_dict()["points"])
    else:
        row = SweepCell(args.alpha, args.beta, report).to_row()
        text = csv_text(list(row), [row])
    return 0, text, configs_csv([report.config]) if args.plot_data else None


def _cmd_sweep(args) -> tuple:
    cells = sweep(args.alpha_grid, args.beta_grid, _opts(args))
    rows = [cell.to_row() for cell in cells]
    if args.format == "csv":
        text = csv_text(list(rows[0]), rows)
    else:
        text = _document(args, rows=rows)
    plot = (frames_csv([[cell.alpha, cell.beta,
                         *canonicalize(cell.report.config).as_vector()]
                        for cell in cells if cell.report is not None])
            if args.plot_data else None)
    return 0, text, plot


def _cmd_census(args) -> tuple:
    m = MassVector(alpha=args.alpha, beta=args.beta)
    report = census(m, args.resolution, _opts(args))
    if not report.classes:
        sys.stderr.write(f"warning: no seed converged to a convex central "
                         f"configuration within --tol {args.tol:g}\n")
    if args.format == "json":
        text = _document(args, **report.to_json_dict())
    else:
        columns = ["class", "symmetry", "basin", "a", "b", "c", "d", "e", "f",
                   "nu", "xi"]
        rows = []
        for k, cls in enumerate(report.classes):
            row = {"class": k, "symmetry": cls.symmetry.label,
                   "basin": cls.basin}
            row.update(dict(zip("abcdef", cls.state.sq)))
            row.update({"nu": cls.state.nu, "xi": cls.state.xi})
            rows.append(row)
        text = csv_text(columns, rows)
    plot = (configs_csv([cls.config for cls in report.classes])
            if args.plot_data else None)
    return 0, text, plot


def _cmd_verify(args) -> tuple:
    # solved states feed the state-dependent lemma checks
    masses = [MassVector(alpha=alpha, beta=beta)
              for alpha, beta in ((1.0, 1.0), (0.5, 0.8), (0.7, 0.7))]
    pairs = [(solve_kite(m).state, m) for m in masses]
    results = [
        check_lemma3_sign(args.trials, args.rng_seed),
        check_lemma4_orderings(args.trials, args.rng_seed, pairs),
        check_lemma1_nu_positive([st for st, _ in pairs]),
        check_lemma2_albouy(pairs),
        *(check_theorem_identities(st, m) for st, m in pairs),
    ]
    if args.theorem1_grid:
        results.append(run_theorem1_suite(args.theorem1_grid,
                                          args.resolution))
    if args.theorem2_grid:
        results.append(run_theorem2_suite(args.theorem2_grid,
                                          args.resolution))
    passed = all(r.passed for r in results)
    return 0 if passed else 1, _document(
        args, all_passed=passed,
        checks=[r.to_json_dict() for r in results]), None


def _cmd_realize(args) -> tuple:
    m = MassVector(alpha=args.alpha, beta=args.beta)
    config = realize(args.sq, m)
    text = _document(args, **config.to_json_dict())
    return 0, text, configs_csv([config]) if args.plot_data else None


def main(argv=None) -> int:
    """Run one command.  Each handler gives its exit status, its document
    and, under --plot-data, its plot-ready CSV, and main writes them."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "census": _cmd_census,
        "verify": _cmd_verify,
        "realize": _cmd_realize,
    }
    try:
        plot_path = args.plot_data
        if (plot_path and args.output is not None
                and os.path.realpath(plot_path) == os.path.realpath(
                    args.output)):
            raise CCFourError("--output and --plot-data name the same file")
        with contextlib.ExitStack() as files:
            # opened before the computation, as a shell redirection is, so
            # that a path that cannot be written fails at once
            out = (sys.stdout if args.output is None
                   else files.enter_context(open(args.output, "w")))
            plot = (files.enter_context(open(plot_path, "w"))
                    if plot_path else None)
            code, text, plot_text = handlers[args.command](args)
            if plot is not None:
                # written out before the document, so that an io error
                # leaves no document on stdout
                plot.write(plot_text)
                plot.flush()
            out.write(text)
            return code
    except CCFourError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
