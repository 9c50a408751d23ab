"""Print what one warm-started sweep cell costs, call by call, and what a
census's seeds and its first Newton block cost.

    python tools/cell_costs.py [CHECKOUT ...]

With no argument this times the ccfour of the checkout it sits in; given
checkouts, it times each one's own `src/` and prints one column per
checkout, so one command gives a before and after table.  The cell is the
one `sweep` polishes at masses (1, 1, 0.5, 0.9) from its accepted
neighbour at beta = 0.8, a one-row Newton run of four iterations.  The
calls take the seed record (x, valid, tri) of `solver.seed_vectors`, so
this times checkouts whose `seed_vectors` returns that record; earlier
ones returned the vectors alone.  In checkouts where the acceptance pass,
not Newton, tests planarity, `realize_convex_many` includes that test, and
the planarity row times it alone: `dziobek.planar_many` on Newton's Cayley
determinant.  The census rows take the same masses: the seed record of a
resolution-8 lattice as `census` builds it (from the rows of `seed_grid`,
or from its frames in checkouts where it returns a list of them), and the
linearization and linear solve of the record's first `_BLOCK` rows.

Each checkout runs in a child process pinned to one core (the same core
for all), and the children take turns call by call, so that the drift of
a shared core's speed between phases falls on every column alike.  Each
entry is the least, over 3 rounds, of the least of 5 timeit repeats, in
microseconds per call; the calls that run inside Newton run under one
`np.errstate`, as there.
"""

import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
ROUNDS = 3
ALPHA, BETA_PREV, BETA = 0.5, 0.8, 0.9
SWEEP_BETA_GRID = [round(0.1 * k, 1) for k in range(1, 21)]
CENSUS_RESOLUTION = 8


def calls() -> dict:
    """{label: callable} of each timed call, in table order; the same
    labels in every checkout of the package."""
    import numpy as np

    from ccfour import solver
    from ccfour.dziobek import MassVector, planar_many
    from ccfour.geometry import realize_convex_many

    census_mod = sys.modules["ccfour.census"]  # ccfour.census is a function

    opts = solver.SolveOptions()
    prev = solver.solve_kite(MassVector(alpha=ALPHA, beta=BETA_PREV)).state
    m = MassVector(alpha=ALPHA, beta=BETA)
    sq = np.asarray(prev.sq)[None, :]
    seeds = x0, _, _ = solver.seed_vectors(sq, m)
    fun = solver.Residuals(m, opts.normalization)
    with np.errstate(all="ignore"):
        res, _, tri = fun(x0)
        jac, _ = fun.linearize(x0, tri)
        x, _, _, _, tri_end = solver._newton_batch(fun, seeds, opts)[:5]
        res_end = fun(x)[0]
    batch = solver.solve_batch(fun, seeds, m, opts)
    report = batch.report(0)
    if hasattr(fun, "planar"):
        planar = lambda: fun.planar(x, res_end)
        realize = lambda: realize_convex_many(tri_end[:5], m)
    else:  # planarity in the acceptance pass
        planar = lambda: planar_many(x[:, :6], 32.0 * res_end[:, 6])
        realize = lambda: realize_convex_many(x[:, :6], m, tri_end[:5],
                                              32.0 * res_end[:, 6])
    if hasattr(census_mod.seed_grid(2, m), "rows"):
        census_seeds = lambda: census_mod._seed_vectors(
            census_mod.seed_grid(CENSUS_RESOLUTION, m).rows, m)
    else:  # the census packs seed_grid's frames into rows
        census_seeds = lambda: census_mod._seed_vectors(
            census_mod.seed_grid(CENSUS_RESOLUTION, m), m)
    block = census_seeds()[0][:solver._BLOCK]
    with np.errstate(all="ignore"):
        block_res, _, block_tri = fun(block)
        block_jac, _ = fun.linearize(block, block_tri)
    return {
        f"census seeds (resolution {CENSUS_RESOLUTION})": census_seeds,
        f"census linearize ({len(block)} rows)":
            lambda: fun.linearize(block, block_tri),
        f"census _solve_linear ({len(block)} rows)":
            lambda: solver._solve_linear(block_jac, -block_res),
        "seed_vectors, one row": lambda: solver.seed_vectors(sq, m),
        "Residuals()": lambda: solver.Residuals(m, opts.normalization),
        "residual call": lambda: fun(x0),
        "carried linearize": lambda: fun.linearize(x0, tri),
        "_solve_linear": lambda: solver._solve_linear(jac, -res),
        "_newton_batch": lambda: solver._newton_batch(fun, seeds, opts),
        "solve_batch": lambda: solver.solve_batch(fun, seeds, m, opts),
        "planarity test": planar,
        "realize_convex_many": realize,
        "report": lambda: batch.report(0),
        "to_row": lambda: solver.SweepCell(ALPHA, BETA, report).to_row(),
        "solve_kite": lambda: solver.solve_kite(m, opts),
        f"sweep row ({len(SWEEP_BETA_GRID)} cells)":
            lambda: solver.sweep([ALPHA], SWEEP_BETA_GRID, opts),
    }


def child() -> None:
    """Print the labels, then answer each label read from stdin with the
    least microseconds per call of REPEATS timeit repeats."""
    import numpy as np

    timed = calls()
    print(json.dumps(list(timed)), flush=True)
    with np.errstate(all="ignore"):
        for line in sys.stdin:
            timer = timeit.Timer(timed[line.strip()])
            number = timer.autorange()[0]
            us = 1e6 * min(timer.repeat(REPEATS, number)) / number
            print(json.dumps(us), flush=True)


def main(argv) -> int:
    if argv == ["--child"]:
        child()
        return 0
    checkouts = [Path(a).resolve() for a in argv] or [ROOT]
    core = {max(os.sched_getaffinity(0))}
    children = [subprocess.Popen(
        [sys.executable, __file__, "--child"], text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(c / "src")},
        preexec_fn=lambda: os.sched_setaffinity(0, core))
        for c in checkouts]
    labels = [json.loads(p.stdout.readline()) for p in children][0]
    best = [dict.fromkeys(labels, float("inf")) for _ in children]
    for _ in range(ROUNDS):
        for label in labels:
            for p, col in zip(children, best):
                p.stdin.write(label + "\n")
                p.stdin.flush()
                col[label] = min(col[label], json.loads(p.stdout.readline()))
    for p in children:
        p.stdin.close()
        p.wait()
    width = max(map(len, labels))
    print(f"{'us per call':<{width}}  "
          + "  ".join(f"{c.name:>12}" for c in checkouts))
    for label in labels:
        print(f"{label:<{width}}  "
              + "  ".join(f"{col[label]:12.1f}" for col in best))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
