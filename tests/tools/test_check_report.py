"""check_report.py: the report schemas on hand-built documents.

The driver report dropped its layout fields (`dia_friendly`,
`format_selected`) when every solve came to run on one storage.  A
report written by an older build still carries them; both must
validate, since fields outside the schema are ignored.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_report  # noqa: E402

REPORT = {
    "tool": "mstep_solve",
    "source": "catalog",
    "problem": "femplate:a=80",
    "description": "plane-stress plate",
    "n": 12960,
    "nnz": 221184,
    "bandwidth": 170,
    "nonzero_diagonals": 27,
    "used_classes": True,
    "shards": 0,
    "config": "splitting=ssor;m=1;params=lsq",
    "nrhs": 1,
    "concurrency": 1,
    "setup_seconds": 0.01,
    "wall_seconds": 0.04,
    "solves_per_second": 25.0,
    "converged": True,
    "iterations": [120],
    "final_delta_inf": [1e-7],
    "rhs_errors": [""],
    "error_vs_exact": None,
    "interval": {"lambda_min": 0, "lambda_max": 1},
    "condition_proxy": 40.5,
    "history": [],
}


def run_main(document, *argv):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(document, f)
        path = f.name
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = check_report.main([path, *argv])
            except SystemExit as e:
                code = e.code
    finally:
        os.unlink(path)
    return code, out.getvalue(), err.getvalue()


class ReportSchemaTest(unittest.TestCase):
    def test_report_without_layout_fields_passes(self):
        code, _, err = run_main(REPORT, "--require", "converged=true",
                                "--require", "problem=femplate:a=80")
        self.assertEqual(code, 0, err)

    def test_old_report_with_layout_fields_passes(self):
        old = dict(REPORT, dia_friendly=True, format_selected="dia")
        code, _, err = run_main(old, "--require", "converged=true")
        self.assertEqual(code, 0, err)

    def test_missing_schema_field_fails(self):
        broken = copy.deepcopy(REPORT)
        del broken["nonzero_diagonals"]
        code, _, err = run_main(broken)
        self.assertEqual(code, 1)
        self.assertIn("nonzero_diagonals", err)

    def test_require_mismatch_fails(self):
        code, _, err = run_main(REPORT, "--require",
                                "problem=femplate:a=8e+01")
        self.assertEqual(code, 1)
        self.assertIn("problem", err)

    def test_corpus_rows_with_and_without_format_pass(self):
        row = {"tool": "bench_corpus", "matrix": "m1", "kind": "generated",
               "splitting": "ssor", "m": 2, "config": "splitting=ssor;m=2",
               "n": 10, "nnz": 28, "iterations": 7, "converged": True,
               "final_delta_inf": 1e-9, "condition_proxy": None,
               "setup_seconds": 0.1, "solve_seconds": 0.2}
        old_row = dict(row, format_selected="dia")
        code, _, err = run_main([row, old_row], "--schema", "corpus")
        self.assertEqual(code, 0, err)


if __name__ == "__main__":
    unittest.main()
