"""collate_bench.py --trajectory: trend tables with delta-vs-previous."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

import collate_bench  # noqa: E402


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = collate_bench.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def corpus_rows(iterations, seconds):
    return [{"tool": "bench_corpus", "matrix": "m1", "splitting": "ssor",
             "m": 2, "iterations": iterations,
             "converged": True, "solve_seconds": seconds}]


class TrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write_run(self, run, rows, bench="BENCH_corpus.json"):
        d = os.path.join(self.dir.name, run)
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, bench)
        with open(path, "w") as f:
            json.dump(rows, f)
        return path

    def test_three_run_trend_with_delta_vs_previous(self):
        files = [self.write_run("r1", corpus_rows(55, 0.10)),
                 self.write_run("r2", corpus_rows(55, 0.11)),
                 self.write_run("r3", corpus_rows(60, 0.12))]
        code, out, _ = run_main(["--trajectory", "--markdown", *files])
        self.assertEqual(code, 0)
        self.assertIn("trajectory: iterations (3 runs)", out)
        # Run labels default to the parent directory, oldest first.
        self.assertIn("| r1 | r2 | r3 | delta | delta% |", out)
        # The newest run regressed 55 -> 60: +5, +9.1%.
        self.assertIn("| 55 | 55 | 60 | +5 | +9.1% |", out)

    def test_metric_defaults_keep_descriptive_columns_out(self):
        rows = corpus_rows(10, 0.5)
        rows[0]["n"] = 4096  # numeric but not a gated corpus metric
        files = [self.write_run("r1", rows), self.write_run("r2", rows)]
        code, out, _ = run_main(["--trajectory", *files])
        self.assertEqual(code, 0)
        self.assertIn("trajectory: iterations", out)
        self.assertIn("trajectory: solve_seconds", out)
        self.assertNotIn("trajectory: n (", out)

    def test_trajectory_metrics_override(self):
        files = [self.write_run("r1", corpus_rows(10, 0.5)),
                 self.write_run("r2", corpus_rows(10, 0.5))]
        code, out, _ = run_main(["--trajectory", *files,
                                 "--trajectory-metrics",
                                 "corpus=solve_seconds"])
        self.assertEqual(code, 0)
        self.assertIn("trajectory: solve_seconds", out)
        self.assertNotIn("trajectory: iterations", out)

    def test_row_missing_from_one_run_renders_dash(self):
        r2 = corpus_rows(42, 0.2) + [
            {"matrix": "m2", "splitting": "ssor", "m": 2, "iterations": 7,
             "converged": True, "solve_seconds": 0.1}]
        files = [self.write_run("r1", corpus_rows(41, 0.2)),
                 self.write_run("r2", r2)]
        code, out, _ = run_main(["--trajectory", "--markdown", *files])
        self.assertEqual(code, 0)
        # m2 only exists in the newest run: no value for r1, no delta.
        self.assertIn("| m2 | ssor | 2 | - | 7 | - | - |", out)
        # m1 exists in both: a real delta.
        self.assertIn("| m1 | ssor | 2 | 41 | 42 | +1 | +2.4% |", out)

    def test_custom_key_fields(self):
        rows = [{"bench": "x", "variant": "fast", "score": 2.0}]
        files = [self.write_run("r1", rows, "BENCH_custom.json"),
                 self.write_run("r2", rows, "BENCH_custom.json")]
        code, out, _ = run_main(["--trajectory", "--markdown", *files,
                                 "--trajectory-key",
                                 "custom=bench,variant"])
        self.assertEqual(code, 0)
        self.assertIn("| bench | variant | r1 | r2 | delta | delta% |", out)

    def test_explicit_labels_order_the_columns(self):
        files = [self.write_run("r1", corpus_rows(5, 0.1)),
                 self.write_run("r2", corpus_rows(6, 0.1))]
        code, out, _ = run_main(["--trajectory", "--markdown",
                                 "--label", "baseline",
                                 "--label", "candidate", *files])
        self.assertEqual(code, 0)
        self.assertIn("| baseline | candidate | delta | delta% |", out)

    def test_legacy_stacked_mode_unchanged(self):
        files = [self.write_run("r1", corpus_rows(5, 0.1))]
        code, out, _ = run_main(["--markdown", *files])
        self.assertEqual(code, 0)
        self.assertIn("### bench: corpus", out)
        self.assertIn("| source |", out)


if __name__ == "__main__":
    unittest.main()
