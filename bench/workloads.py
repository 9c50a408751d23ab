"""The three workloads: inputs drawn from a seed, set-up, and operations.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation returns an OpResult whose
`counts` are deterministic for its input; run.py holds them against earlier
runs of the same input.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import Counters, NullTracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESOLUTION = 8  # the acceptance censuses' resolution
# The acceptance grids of tests/test_acceptance.py.
THEOREM1_GRID = [(round(0.2 * i, 1), round(0.2 * j, 1))
                 for i in range(1, 6) for j in range(1, 11)]
THEOREM2_GRID = [round(0.1 * k, 1) for k in range(1, 31)]
SWEEP_BETA_GRID = [round(0.1 * k, 1) for k in range(1, 21)]
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """Children run with PYTHONPATH=src, one BLAS thread and the census at
    its default of one thread."""
    return dict(os.environ, PYTHONPATH="src", CCFOUR_THREADS="1")


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion in the checkout root; kill it on timeout."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


@dataclass
class OpResult:
    input: dict
    seconds: float  # wall time
    solves: int  # census seeds, or sweep cells
    converged: int
    problems: list[str]
    counts: dict  # deterministic for the input
    trace: dict | None = None  # per-layer totals from a traced child
    ledger_key: str = field(default="", repr=False)
    scaled: float = 0.0  # seconds at nominal machine speed, see speed.py


def census_points(seed: int, workload: str) -> list[tuple[str, float, float]]:
    """Theorem 1 and Theorem 2 grid points, each grid shuffled by the seed,
    alternating between the grids."""
    rng = random.Random(f"{workload}/{seed}")
    t1 = list(THEOREM1_GRID)
    t2 = list(THEOREM2_GRID)
    rng.shuffle(t1)
    rng.shuffle(t2)
    points = []
    for k in range(max(len(t1), len(t2))):
        points.append(("theorem1", *t1[k % len(t1)]))
        points.append(("theorem2", t2[k % len(t2)], t2[k % len(t2)]))
    return points


class Api:
    """The ccfour entry points the benchmark calls, taken before any
    tracer rebinds them, so each benchmark call makes exactly one span."""

    def __init__(self):
        import ccfour
        from ccfour import jsonio

        self.run_theorem1_suite = ccfour.run_theorem1_suite
        self.run_theorem2_suite = ccfour.run_theorem2_suite
        self.sweep = ccfour.sweep
        self.rhombus_ratio = ccfour.rhombus_ratio
        self.dumps = jsonio.dumps


class InProcess:
    """A workload whose operations run in the benchmark's own process."""

    in_process = True

    def setup_command(self, seed: int) -> list[str]:
        """A cold process that sets the workload up and exits."""
        return [sys.executable, str(HERE / "run.py"), "--workload",
                self.name, "--seed", str(seed), "--setup-probe"]


class CensusGrid(InProcess):
    """run_theorem1_suite / run_theorem2_suite on one acceptance-grid point
    per operation, with the result serialized as `ccfour verify` does."""

    name = "census-grid"

    def inputs(self, seed: int):
        return census_points(seed, self.name)

    def setup(self, seed: int):
        self.api = Api()
        self.counters = Counters()
        self.counters.install()
        _, alpha, _ = self.inputs(seed)[0]
        # warm-up: one suite call at the smallest census resolution
        self.api.dumps(self.api.run_theorem2_suite([alpha], 2).to_json_dict())

    def op(self, point, meter, trace=NullTracer) -> OpResult:
        kind, alpha, beta = point
        api = self.api
        self.counters.reset()
        with trace.active(), meter.sampling():
            start = time.perf_counter()
            if kind == "theorem1":
                result = trace.call(api.run_theorem1_suite, [(alpha, beta)],
                                    RESOLUTION)
            else:
                result = trace.call(api.run_theorem2_suite, [alpha],
                                    RESOLUTION)
            trace.call(api.dumps, trace.call(result.to_json_dict))
            seconds = time.perf_counter() - start
        ratio = api.rhombus_ratio(alpha) if alpha == beta else None
        reports = self.counters.reports
        if len(reports) != 1:
            problems = [f"{len(reports)} census reports, expected 1"]
            doc = {"seeds_total": 0, "seeds_converged": 0}
        else:
            doc = reports[0].to_json_dict()
            problems = checks.census_problems(doc, alpha, beta, ratio)
        if not result.passed:
            problems.append(f"suite witnesses {result.witnesses}")
        counts = {"seeds_total": doc["seeds_total"],
                  "seeds_converged": doc["seeds_converged"],
                  "residual_calls": self.counters.residual_calls,
                  "residual_rows": self.counters.residual_rows}
        return OpResult({"suite": kind, "alpha": alpha, "beta": beta},
                        seconds, doc["seeds_total"], doc["seeds_converged"],
                        problems, counts, ledger_key=f"census {alpha},{beta}")


class CliCensus:
    """One cold `python -m ccfour.cli census --alpha A --beta B` process per
    operation, at the default resolution and threads, JSON parsed."""

    name = "cli-census"
    in_process = False

    def inputs(self, seed: int):
        return census_points(seed, self.name)

    def setup_command(self, seed: int) -> list[str]:
        return [sys.executable, "-m", "ccfour.cli", "--version"]

    def setup(self, seed: int):
        self.api = Api()  # for rhombus_ratio in the checks only

    def op(self, point, meter, trace=NullTracer) -> OpResult:
        _, alpha, beta = point
        traced = trace is not NullTracer
        args = ["census", "--alpha", repr(alpha), "--beta", repr(beta)]
        if not traced:
            cmd = [sys.executable, "-m", "ccfour.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracechild.py"), *args]
        start = time.perf_counter()
        proc = meter.popen(cmd, cwd=ROOT, env=child_env(), text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = meter.wait(proc, CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        ratio = self.api.rhombus_ratio(alpha) if alpha == beta else None
        problems = checks.cli_census_problems(proc.returncode, stdout,
                                              alpha, beta, ratio)
        counts, child_trace = {}, None
        if not problems:
            doc = json.loads(stdout)
            counts = {"seeds_total": doc["seeds_total"],
                      "seeds_converged": doc["seeds_converged"]}
        if traced:
            child_trace = parse_child_trace(stderr)
            if child_trace is None:
                problems.append("traced child printed no trace")
            else:
                counts.update(child_trace.pop("counts"))
        return OpResult({"alpha": alpha, "beta": beta}, seconds,
                        counts.get("seeds_total", 0),
                        counts.get("seeds_converged", 0), problems, counts,
                        trace=child_trace,
                        ledger_key=f"census {alpha},{beta}")


def parse_child_trace(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith("BENCH_TRACE "):
            return json.loads(line[len("BENCH_TRACE "):])
    return None


class Sweep(InProcess):
    """sweep([alpha], beta grid 0.1..2.0) per operation, with to_row() on
    every cell and the rows serialized as `ccfour sweep` does."""

    name = "sweep"

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        alphas = list(THEOREM2_GRID)
        rng.shuffle(alphas)
        return alphas

    def setup(self, seed: int):
        self.api = Api()
        self.counters = Counters()
        self.counters.install()
        alpha = self.inputs(seed)[0]
        cells = self.api.sweep([alpha], SWEEP_BETA_GRID[:2])
        self.api.dumps([cell.to_row() for cell in cells])

    def op(self, alpha, meter, trace=NullTracer) -> OpResult:
        api = self.api
        self.counters.reset()
        with trace.active(), meter.sampling():
            start = time.perf_counter()
            cells = trace.call(api.sweep, [alpha], SWEEP_BETA_GRID)
            rows = [trace.call(cell.to_row) for cell in cells]
            trace.call(api.dumps, rows)
            seconds = time.perf_counter() - start
        problems = []
        for row in rows:
            ratio = api.rhombus_ratio(alpha) if row["beta"] == alpha else None
            problems += checks.sweep_row_problems(row, ratio)
        converged = sum(row["symmetry"] != "failed" for row in rows)
        counts = {"cells": len(rows), "cells_converged": converged,
                  "newton_iterations": sum(r["iterations"] for r in rows),
                  "residual_calls": self.counters.residual_calls,
                  "residual_rows": self.counters.residual_rows}
        return OpResult({"alpha": alpha}, seconds, len(rows), converged,
                        problems, counts, ledger_key=f"sweep {alpha}")


WORKLOADS = {w.name: w for w in (CensusGrid(), CliCensus(), Sweep())}
