"""ccfour benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload census-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ccfour is imported from src/
(PYTHONPATH=src), not from an installed package.  With --trace 0 the run
measures for --seconds and reports the end-to-end metrics; with --trace 1 it
runs a fixed number of operations untraced and then traced, and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it is a report with the environment, the drawn inputs, every
operation's time, problems and deterministic counts.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; children inherit it.
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speedometer, pin_to_one_core  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HELD_OUT_SEED = 20091  # never used while tuning; later claims confirm on it
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# Operations per traced run: fixed, so per-layer totals compare across
# commits whatever their speed.
TRACE_OPS = {"census-grid": 2, "cli-census": 2, "sweep": 30}

END_TO_END = {"solves_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "seed_yield": "frac",
              "ok_frac": "frac"}
STAGE_METRICS = ("census.seed_lattice", "census.seed_multipliers",
                 "solver.newton", "census.postprocess")
COUNT_METRICS = {"solver.residual_calls": "residual_calls",
                 "solver.residual_rows": "residual_rows",
                 "solver.newton_iterations": "newton_iterations"}


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def percentile_tail(samples: list[float]) -> tuple[int, float]:
    """The highest of the 99th, 95th, 90th, 75th and 50th percentiles
    (nearest rank) with at least ten samples above it, or the maximum,
    reported as percentile 100, when there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        k = math.ceil(p / 100 * n)
        if n - k >= 10:
            return p, xs[k - 1]
    return 100, xs[-1]


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_openmp_threads": THREAD_CAP, "census_threads": 1,
            "invocation": "PYTHONPATH=src " + " ".join(sys.argv)}


class Ledger:
    """Deterministic counts per input, kept in the checkout across runs.

    The file name carries a hash of the program and benchmark sources, so
    runs of different code never compare against each other.
    """

    def __init__(self):
        digest = hashlib.sha256()
        for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        name = f"counts-{digest.hexdigest()[:16]}.json"
        self.path = ROOT / ".bench_state" / name
        self.counts = (json.loads(self.path.read_text())
                       if self.path.is_file() else {})

    def check(self, key: str, counts: dict) -> None:
        known = self.counts.setdefault(key, {})
        for name, value in counts.items():
            if known.setdefault(name, value) != value:
                raise BenchError(f"nondeterministic count {name} for {key}: "
                                 f"{value} now, {known[name]} before")

    def save(self) -> None:
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.counts, indent=1, sort_keys=True))
        tmp.replace(self.path)


def measure_setup(wl, seed: int) -> float:
    """Seconds a cold process takes to start, make the workload ready and
    exit: imports, input generation and a warm-up call (for cli-census,
    one `python -m ccfour.cli --version`)."""
    from workloads import run_child

    start = time.perf_counter()
    proc = run_child(wl.setup_command(seed))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def cold_import_s() -> float:
    from workloads import run_child

    proc = run_child([sys.executable, "-c",
                      "import time; t = time.perf_counter(); "
                      "import ccfour.cli; print(time.perf_counter() - t)"])
    if proc.returncode != 0:
        raise BenchError(f"import ccfour.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def op_record(r) -> dict:
    return {"input": r.input, "wall_s": r.seconds, "scaled_s": r.scaled,
            "problems": r.problems, "counts": r.counts}


def timed_run(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    core = pin_to_one_core()
    meter = Speedometer()
    # Set-up is cold-start work (file reads, page faults) that the speed
    # probes do not track, so its wall times are reported unscaled.
    setup = [measure_setup(wl, seed) for _ in range(SETUP_SAMPLES)]
    wl.setup(seed)
    meter.mark()
    results = []
    start = time.perf_counter()
    for x in itertools.cycle(wl.inputs(seed)):
        r = wl.op(x, meter)
        r.scaled = meter.scale(r.seconds)
        results.append(r)
        typical = statistics.median(r.seconds for r in results)
        if time.perf_counter() - start + typical / 2 >= seconds:
            break
    latencies = [r.scaled for r in results]
    tail_p, tail = percentile_tail(latencies)
    solves = sum(r.solves for r in results)
    failed = sum(bool(r.problems) for r in results)
    values = {
        "solves_per_s": solves / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(wl.in_process),
        "seed_yield": sum(r.converged for r in results) / max(1, solves),
        "ok_frac": (len(results) - failed) / len(results),
    }
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in values.items()}
    report = {"core": core, "wall_s": time.perf_counter() - start,
              "setup_wall_s": setup,
              "speed_probes_s": meter.probes,
              "op_tail_percentile": tail_p, "op_samples": len(results),
              "solves_per_wall_s": solves / sum(r.seconds for r in results),
              "failed_frac": failed / len(results)}
    return metrics, report, results


def layer_metrics(summary: dict, counts: dict, import_s: float,
                  overhead: float, scale: float) -> dict:
    """Per-layer metrics; layer times are scaled like their operations."""
    from tracer import LAYERS

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            scale * summary["self_s"].get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (summary["calls"].get(layer, 0), "count")
    for stage in STAGE_METRICS:
        metrics[f"{stage}_s"] = (scale * summary["stage_s"].get(stage, 0.0),
                                 "s")
    for metric, key in COUNT_METRICS.items():
        metrics[metric] = (counts.get(key, 0), "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def add_summary(total: dict, part: dict) -> None:
    for group in ("self_s", "calls", "stage_s"):
        for key, value in part[group].items():
            total[group][key] = total[group].get(key, 0) + value
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))


def trace_run(wl, seed: int) -> tuple[dict, dict, list]:
    """Each input runs untraced and then traced, back to back, so that the
    overhead compares the same inputs at nearly the same machine speed."""
    from tracer import Tracer

    core = pin_to_one_core()
    meter = Speedometer()
    wl.setup(seed)
    meter.mark()
    tracer = Tracer()
    untraced, traced = [], []
    for x in wl.inputs(seed)[:TRACE_OPS[wl.name]]:
        r = wl.op(x, meter)
        r.scaled = meter.scale(r.seconds)
        untraced.append(r)
        r = wl.op(x, meter, tracer)
        r.scaled = meter.scale(r.seconds)
        traced.append(r)
    if wl.in_process:
        summary = tracer.summary()
        summary["missing"] += wl.counters.missing
    else:
        summary = {"self_s": {}, "calls": {}, "stage_s": {}, "missing": []}
        for r in traced:
            if r.trace is not None:
                add_summary(summary, r.trace)
    counts = {}
    for r in traced:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
    meter.mark()
    import_s = statistics.median(meter.scale(cold_import_s())
                                 for _ in range(IMPORT_SAMPLES))
    traced_scaled = sum(r.scaled for r in traced)
    overhead = traced_scaled / sum(r.scaled for r in untraced) - 1.0
    scale = traced_scaled / sum(r.seconds for r in traced)
    metrics = layer_metrics(summary, counts, import_s, overhead, scale)
    report = {"core": core, "trace_ops": len(traced),
              "speed_probes_s": meter.probes, "layers_wall": summary,
              "missing_boundaries": summary["missing"]}
    return metrics, report, untraced + traced


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "ccfour" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ccfour sources under {SRC}; run from "
                         "the root of a ccfour checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        return 0
    try:
        ledger = Ledger()
        if args.trace:
            metrics, report, results = trace_run(wl, args.seed)
        else:
            metrics, report, results = timed_run(wl, args.seed, args.seconds)
        for r in results:
            ledger.check(r.ledger_key, r.counts)
        ledger.save()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    failed = sum(bool(r.problems) for r in results)
    report.update({"workload": wl.name, "seed": args.seed,
                   "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
                   "environment": environment(),
                   "ops": [op_record(r) for r in results]})
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
