"""Print one sha256 per family of ccfour's output.

Each family runs a list of jobs in this process and hashes, for each job
in order, its arguments and what it gives.  Most families are commands run
through `ccfour.cli.main`, each hashed with its exit status, stdout and
stderr; the `newton` family hashes the bits of `solver.solve_batch`'s
arrays.  Two checkouts whose digests agree line by line give byte-identical
output on every job listed here:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

in each checkout, then `diff` the two files.  The families are the census
JSON on the 80 acceptance-grid points under both normalizations, `solve`
JSON for each ansatz and normalization (kite and full on the 80 points,
rhombus on the 30 equal-mass ones), the sweep CSV and the `verify` run
that README shows, `sweep bench`: the sweep JSON on the grid of
bench/run.py's sweep workload (alpha = 0.1..3.0 by 0.1, beta = 0.1..2.0 by
0.1), and `newton`: the status, iterations, final vector and final
residual of every census seed of those 80 censuses, under both
normalizations.  A run takes about 4 min on a 2-vCPU machine.
"""

import contextlib
import hashlib
import io

from ccfour import MassVector, SolveOptions, cli
from ccfour.census import _seed_vectors, seed_grid
from ccfour.solver import Residuals, solve_batch

# the census grids of tests/test_acceptance.py: criterion 2 (theorem 1)
# and criterion 3 (theorem 2, alpha = beta)
THEOREM1_GRID = [(round(0.2 * i, 1), round(0.2 * j, 1))
                 for i in range(1, 6) for j in range(1, 11)]
THEOREM2_GRID = [round(0.1 * k, 1) for k in range(1, 31)]
# bench/workloads.py's sweep: each alpha of THEOREM2_GRID over this beta grid
SWEEP_BETA_GRID = [round(0.1 * k, 1) for k in range(1, 21)]
POINTS = THEOREM1_GRID + [(a, a) for a in THEOREM2_GRID]
NORMALIZATIONS = ("fix_inertia_one", "fix_a_one")


def families():
    """(name, runner, list of jobs) of every family, in print order; a
    runner takes one job and gives the parts to hash."""
    def masses(points):
        return [["--alpha", str(a), "--beta", str(b)] for a, b in points]

    for norm in NORMALIZATIONS:
        yield f"census {norm}", run, [["census", *ab, "--normalization", norm]
                                      for ab in masses(POINTS)]
    for ansatz in ("kite", "full", "rhombus"):
        points = ([(a, a) for a in THEOREM2_GRID] if ansatz == "rhombus"
                  else POINTS)
        for norm in NORMALIZATIONS:
            yield f"solve {ansatz} {norm}", run, [
                ["solve", *ab, "--ansatz", ansatz, "--normalization", norm]
                for ab in masses(points)]
    yield "sweep csv", run, [["sweep", "--alpha-grid", "0.2:1.0:0.2",
                              "--beta-grid", "0.2:2.0:0.2", "--format",
                              "csv"]]
    # comma lists, so that each value parses to its round(0.1 k, 1)
    yield "sweep bench", run, [["sweep", "--alpha-grid",
                                ",".join(map(str, THEOREM2_GRID)),
                                "--beta-grid",
                                ",".join(map(str, SWEEP_BETA_GRID))]]
    yield "verify", run, [["verify", "--theorem2-grid", "0.5,1.0,2.0"]]
    yield "newton", newton, [(a, b, norm) for norm in NORMALIZATIONS
                             for a, b in POINTS]


def run(argv):
    """Exit status, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's exits
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def newton(job):
    """The bytes of solve_batch's status, iterations, final vectors and
    final residuals on the seeds of a resolution-8 census at (alpha,
    beta) under one normalization."""
    alpha, beta, norm = job
    m = MassVector(alpha=alpha, beta=beta)
    batch = solve_batch(Residuals(m, norm), _seed_vectors(seed_grid(8, m), m),
                        m, SolveOptions(normalization=norm))
    return tuple(a.tobytes() for a in (batch.status, batch.iterations,
                                       batch.x, batch.residual))


def main():
    for name, runner, jobs in families():
        digest = hashlib.sha256()
        for job in jobs:
            for part in (" ".join(map(str, job)), *runner(job)):
                if not isinstance(part, bytes):
                    part = str(part).encode()
                digest.update(part + b"\0")
        print(f"{digest.hexdigest()}  {name} ({len(jobs)} jobs)")


if __name__ == "__main__":
    main()
