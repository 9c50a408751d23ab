"""Tests of the benchmark's own checks, statistics and tracer.

    python3 bench/selftest.py

Doctored outputs must count as failed operations: two classes, a wrong
label, a residual over its bound, a wrong rhombus ratio, nu <= 0 and a
nonzero exit status.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ccfour  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def census_doc(alpha: float, beta: float) -> dict:
    """A census report in JSON form around a genuine solution."""
    m = ccfour.MassVector(alpha=alpha, beta=beta)
    rep = (ccfour.solve_rhombus(alpha) if alpha == beta
           else ccfour.solve_kite(m))
    return {"classes": [{"symmetry": rep.symmetry,
                         "state": rep.state.to_json_dict(), "basin": 1}],
            "seeds_total": 4096, "seeds_converged": 1}


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.kite = census_doc(0.4, 0.6)
        self.rhombus = census_doc(0.7, 0.7)
        self.ratio = ccfour.rhombus_ratio(0.7)

    def test_genuine_outputs_pass(self):
        self.assertEqual(checks.census_problems(self.kite, 0.4, 0.6, None),
                         [])
        self.assertEqual(
            checks.census_problems(self.rhombus, 0.7, 0.7, self.ratio), [])
        stdout = json.dumps(self.kite)
        self.assertEqual(
            checks.cli_census_problems(0, stdout, 0.4, 0.6, None), [])

    def test_two_classes_fail(self):
        doc = copy.deepcopy(self.kite)
        doc["classes"].append(doc["classes"][0])
        self.assertTrue(checks.census_problems(doc, 0.4, 0.6, None))

    def test_wrong_label_fails(self):
        doc = copy.deepcopy(self.kite)
        doc["classes"][0]["symmetry"] = "asymmetric"
        self.assertTrue(checks.census_problems(doc, 0.4, 0.6, None))
        doc = copy.deepcopy(self.rhombus)
        doc["classes"][0]["symmetry"] = "kite_axis_34"
        self.assertTrue(checks.census_problems(doc, 0.7, 0.7, self.ratio))

    def test_residual_over_bound_fails(self):
        doc = copy.deepcopy(self.kite)
        doc["classes"][0]["state"]["sq"][1] *= 1.0 + 1e-6
        self.assertTrue(checks.census_problems(doc, 0.4, 0.6, None))

    def test_nonplanar_state_fails(self):
        doc = copy.deepcopy(self.kite)
        doc["classes"][0]["state"]["sq"][5] *= 1.0 + 1e-6
        self.assertTrue(checks.census_problems(doc, 0.4, 0.6, None))

    def test_nonpositive_nu_fails(self):
        doc = copy.deepcopy(self.kite)
        doc["classes"][0]["state"]["nu"] = 0.0
        self.assertTrue(checks.census_problems(doc, 0.4, 0.6, None))

    def test_wrong_rhombus_ratio_fails(self):
        problems = checks.census_problems(self.rhombus, 0.7, 0.7,
                                          self.ratio + 1e-8)
        self.assertTrue(problems)

    def test_nonzero_exit_fails(self):
        stdout = json.dumps(self.kite)
        self.assertTrue(checks.cli_census_problems(1, stdout, 0.4, 0.6, None))
        self.assertTrue(checks.cli_census_problems(0, "", 0.4, 0.6, None))

    def test_failed_sweep_cell_fails(self):
        row = {"alpha": 0.4, "beta": 0.6, "symmetry": "failed"}
        self.assertTrue(checks.sweep_row_problems(row, None))


class StatisticsTests(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile_tail([3.0, 1.0, 2.0]), (100, 3.0))
        xs = [float(k) for k in range(1, 31)]
        self.assertEqual(run.percentile_tail(xs), (50, 15.0))
        xs = [float(k) for k in range(1, 101)]
        self.assertEqual(run.percentile_tail(xs), (90, 90.0))

    def test_ledger_rejects_a_changed_count(self):
        ledger = run.Ledger()
        ledger.counts = {}
        ledger.check("census 0.4,0.6", {"seeds_converged": 2710})
        ledger.check("census 0.4,0.6", {"seeds_converged": 2710,
                                        "residual_calls": 3939})
        with self.assertRaises(run.BenchError):
            ledger.check("census 0.4,0.6", {"residual_calls": 3940})


class TracerTests(unittest.TestCase):
    def test_spans_counts_and_uninstall(self):
        census_mod = sys.modules["ccfour.census"]
        counters = tracer.Counters()
        counters.install()
        captured = census_mod.census
        t = tracer.Tracer()
        m = ccfour.MassVector(alpha=0.5, beta=0.8)
        with t.active():
            t.call(ccfour.run_theorem1_suite, [(0.5, 0.8)], 2)
        self.assertIs(census_mod.census, captured)
        self.assertEqual(t.missing, [])
        for layer in ("verifier", "census", "solver", "dziobek", "geometry"):
            self.assertGreater(t.calls[layer], 0, layer)
        for stage in run.STAGE_METRICS:
            self.assertGreater(t.stage_s[stage], 0.0, stage)
        self.assertEqual(len(counters.reports), 1)
        self.assertGreater(counters.residual_calls, 0)
        self.assertGreaterEqual(counters.residual_rows,
                                counters.residual_calls)
        self.assertEqual(counters.reports[0].masses, m)


if __name__ == "__main__":
    unittest.main()
