"""Print one sha256 per family of ccfour's output.

Each family runs a list of jobs in this process and hashes, for each job
in order, its arguments and what it gives.  Most families are commands run
through `ccfour.cli.main`, each hashed with its exit status, stdout and
stderr; the `plot data` family hashes the exit status and the bytes of the
`--plot-data` CSV, written to a temporary directory; the `newton` families
hash the bits of `solver.solve_batch`'s arrays.  Two checkouts whose
digests agree line by line give byte-identical output on every job listed
here:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

in each checkout, then `diff` the two files.  The families are the census
JSON on the 80 acceptance-grid points under both normalizations, `solve`
JSON for each ansatz and normalization (kite and full on the 80 points,
rhombus on the 30 equal-mass ones), the sweep CSV on README's grid under
both normalizations, `csv and realize`:
the census and `solve` CSV (each ansatz) under both normalizations at a
few points and the `realize` JSON of a few planar distances, `verify`:
the run that README shows, four `verify --theorem1-grid` runs of one
point each, whose Newtonian-oracle residuals reach the JSON, and a run at
alpha = beta = 1e9 that exits 1, where each theorem suite finds no class
and records that witness, `plot data`: the
plot CSV of `census` on the 80 points, of `sweep` on README's grid and
of `solve` and `realize` on a few points, `sweep bench`:
the sweep JSON on the grid of bench/run.py's sweep workload (alpha =
0.1..3.0 by 0.1, beta = 0.1..2.0 by 0.1), `newton`: the status,
iterations, final vector and final residual of every census seed of
those 80 censuses, under both normalizations, from the seeds' record
(the vectors and the trilateration that fitted them) as `census` takes
it, and `newton kite`: the same of `solve_kite`'s nine seeds on the
kite-reduced system at the 80 points, in one batch from their record, as
`solve_kite` takes it.  Two families run at loose tolerances, where
Newton's convergence test decides planarity: `census loose`, the census
JSON at three points with `--tol` 1e-5 and 1e-8, and `sweep loose`, the
sweep CSV on README's grid with `--tol` 1e-8.  `census hi-res` is the
census JSON at (0.5, 0.8) at resolution 16 under both normalizations.  A
run takes about 2 min on a 2-vCPU machine.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from ccfour import MassVector, SolveOptions, cli
from ccfour.census import _seed_vectors, seed_grid
from ccfour.solver import (_KITE_EMBED, Residuals, _kite_seed_vectors,
                           solve_batch)

# the census grids of tests/test_acceptance.py: criterion 2 (theorem 1)
# and criterion 3 (theorem 2, alpha = beta)
THEOREM1_GRID = [(round(0.2 * i, 1), round(0.2 * j, 1))
                 for i in range(1, 6) for j in range(1, 11)]
THEOREM2_GRID = [round(0.1 * k, 1) for k in range(1, 31)]
# bench/workloads.py's sweep: each alpha of THEOREM2_GRID over this beta grid
SWEEP_BETA_GRID = [round(0.1 * k, 1) for k in range(1, 21)]
# verify's theorem 1 points, where the oracle residual exceeds the area gap
THEOREM1_VERIFY = ["0.2,0.4", "0.5,0.8", "0.8,1.2", "0.4,1.6"]
# verify's failing run: at these masses neither suite's census finds a class
VERIFY_FAILING = ["verify", "--trials", "10", "--theorem1-grid", "1e9,1e9",
                  "--theorem2-grid", "1e9"]
# README's sweep grid
SWEEP_GRID = ["--alpha-grid", "0.2:1.0:0.2", "--beta-grid", "0.2:2.0:0.2"]
# the census points and tolerances of the loose-tolerance family
LOOSE_POINTS = [(0.5, 0.8), (0.1, 0.3), (1.0, 1.4)]
LOOSE_TOLS = ["1e-5", "1e-8"]
# the census point and resolution of the hi-res family
HI_RES_POINT, HI_RES = (0.5, 0.8), 16
# planar squared distances: the unit square, a rhombus and the
# quadrilateral (0, 0), (3, 0), (1, 2), (2, -1)
REALIZE_SQ = [("2,1,1,1,1,2", "1,1"), ("4,1.25,1.25,1.25,1.25,1", "0.7,0.7"),
              ("9,5,5,8,2,10", "0.5,0.8")]
POINTS = THEOREM1_GRID + [(a, a) for a in THEOREM2_GRID]
# the points of the CSV jobs; the rhombus takes the equal-mass ones
CSV_POINTS = [(0.5, 0.8), (0.2, 1.6), (0.7, 0.7), (1.0, 1.0)]
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
    yield "sweep csv", run, [
        ["sweep", *SWEEP_GRID, *flags, "--format", "csv"]
        for flags in ([], ["--normalization", "fix_a_one"])]
    csv_jobs = []
    for norm in NORMALIZATIONS:
        flags = ["--normalization", norm, "--format", "csv"]
        csv_jobs += [["census", *ab, *flags] for ab in masses(CSV_POINTS)]
        for ansatz in ("kite", "full", "rhombus"):
            points = ([(a, b) for a, b in CSV_POINTS if a == b]
                      if ansatz == "rhombus" else CSV_POINTS)
            csv_jobs += [["solve", *ab, "--ansatz", ansatz, *flags]
                         for ab in masses(points)]
    yield "csv and realize", run, [
        *csv_jobs, *(["realize", "--sq", sq, *masses([ab.split(",")])[0]]
                     for sq, ab in REALIZE_SQ)]
    # comma lists, so that each value parses to its round(0.1 k, 1)
    yield "sweep bench", run, [["sweep", "--alpha-grid",
                                ",".join(map(str, THEOREM2_GRID)),
                                "--beta-grid",
                                ",".join(map(str, SWEEP_BETA_GRID))]]
    # one theorem 1 point a job: at each, the oracle residual is the
    # suite's worst_violation, so every point's residual is hashed
    yield "verify", run, [["verify", "--theorem2-grid", "0.5,1.0,2.0"],
                          *(["verify", "--trials", "10", "--theorem1-grid",
                             ab] for ab in THEOREM1_VERIFY), VERIFY_FAILING]
    yield "plot data", plot, [
        *(["census", *ab] for ab in masses(POINTS)),
        ["sweep", *SWEEP_GRID],
        *(["solve", *ab, "--ansatz", ansatz]
          for ansatz in ("kite", "full")
          for ab in masses([(0.5, 0.8), (0.2, 1.6)])),
        ["solve", *masses([(0.7, 0.7)])[0], "--ansatz", "rhombus"],
        *(["realize", "--sq", sq, *masses([ab.split(",")])[0]]
          for sq, ab in REALIZE_SQ)]
    yield "census loose", run, [["census", *ab, "--tol", tol]
                                for tol in LOOSE_TOLS
                                for ab in masses(LOOSE_POINTS)]
    yield "sweep loose", run, [["sweep", *SWEEP_GRID, "--tol", "1e-8",
                                "--format", "csv"]]
    yield "census hi-res", run, [
        ["census", *masses([HI_RES_POINT])[0], "--resolution",
         str(HI_RES), "--normalization", norm] for norm in NORMALIZATIONS]
    yield "newton", newton, [(a, b, norm) for norm in NORMALIZATIONS
                             for a, b in POINTS]
    yield "newton kite", newton_kite, [(a, b, norm) for norm in NORMALIZATIONS
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


def plot(argv):
    """Exit status and the bytes of the plot-ready CSV of one command run
    with --plot-data into a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plot.csv")
        status = run([*argv, "--plot-data", path])[0]
        with open(path, "rb") as f:
            return status, f.read()


def newton(job):
    """The bytes of solve_batch's status, iterations, final vectors and
    final residuals on the seed record of a resolution-8 census at (alpha,
    beta) under one normalization, as census takes it."""
    alpha, beta, norm = job
    m = MassVector(alpha=alpha, beta=beta)
    return batch_bytes(Residuals(m, norm),
                       _seed_vectors(seed_grid(8, m).rows, m), m, norm)


def newton_kite(job):
    """The same bytes on solve_kite's nine seeds of the kite-reduced
    system at (alpha, beta) under one normalization, in one batch from
    their record, as solve_kite takes it."""
    alpha, beta, norm = job
    m = MassVector(alpha=alpha, beta=beta)
    fun = Residuals(m, norm, embed=_KITE_EMBED)
    x, valid, tri = _kite_seed_vectors(m)
    return batch_bytes(fun, (x[:, fun.reduced], valid, tri), m, norm)


def batch_bytes(fun, seeds, m, norm):
    batch = solve_batch(fun, seeds, m, SolveOptions(normalization=norm))
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
