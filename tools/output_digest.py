"""Print one sha256 per family of ccfour's command output.

Each family runs a list of commands through `ccfour.cli.main` in this
process and hashes, for each command in order, its arguments, exit status,
stdout and stderr.  Two checkouts whose digests agree line by line give
byte-identical output on every command listed here:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

in each checkout, then `diff` the two files.  The families are the census
JSON on the 80 acceptance-grid points under both normalizations, `solve`
JSON for each ansatz and normalization (kite and full on the 80 points,
rhombus on the 30 equal-mass ones), the sweep CSV and the `verify` run
that README shows.  A run takes about 40 s on a 2-vCPU machine.
"""

import contextlib
import hashlib
import io

from ccfour import cli

# the census grids of tests/test_acceptance.py: criterion 2 (theorem 1)
# and criterion 3 (theorem 2, alpha = beta)
THEOREM1_GRID = [(round(0.2 * i, 1), round(0.2 * j, 1))
                 for i in range(1, 6) for j in range(1, 11)]
THEOREM2_GRID = [round(0.1 * k, 1) for k in range(1, 31)]
POINTS = THEOREM1_GRID + [(a, a) for a in THEOREM2_GRID]
NORMALIZATIONS = ("fix_inertia_one", "fix_a_one")


def families():
    """(name, list of argument lists) of every family, in print order."""
    def masses(points):
        return [["--alpha", str(a), "--beta", str(b)] for a, b in points]

    for norm in NORMALIZATIONS:
        yield f"census {norm}", [["census", *ab, "--normalization", norm]
                                 for ab in masses(POINTS)]
    for ansatz in ("kite", "full", "rhombus"):
        points = ([(a, a) for a in THEOREM2_GRID] if ansatz == "rhombus"
                  else POINTS)
        for norm in NORMALIZATIONS:
            yield f"solve {ansatz} {norm}", [
                ["solve", *ab, "--ansatz", ansatz, "--normalization", norm]
                for ab in masses(points)]
    yield "sweep csv", [["sweep", "--alpha-grid", "0.2:1.0:0.2",
                         "--beta-grid", "0.2:2.0:0.2", "--format", "csv"]]
    yield "verify", [["verify", "--theorem2-grid", "0.5,1.0,2.0"]]


def run(argv):
    """Exit status, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's exits
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def main():
    for name, commands in families():
        digest = hashlib.sha256()
        for argv in commands:
            status, out, err = run(argv)
            for part in (" ".join(argv), str(status), out, err):
                digest.update(part.encode() + b"\0")
        print(f"{digest.hexdigest()}  {name} ({len(commands)} commands)")


if __name__ == "__main__":
    main()
