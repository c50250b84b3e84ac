"""fetch_corpus.py: manifest validation and offline-safe --check-only.

No network, no driver binary needed: these tests exercise the schema
validator and the cache-verification path only.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

import fetch_corpus  # noqa: E402

COMMITTED_MANIFEST = os.path.join(REPO, "bench/corpus/manifest.json")

VALID_GENERATED = {
    "name": "gen1",
    "kind": "generated",
    "generator": "poisson2d:n=8",
    "sha256": None,
    "n": None,
    "nnz": None,
    "spd": True,
    "pinned": False,
}

VALID_REMOTE = {
    "name": "rem1",
    "kind": "suitesparse",
    "group": "HB",
    "url": "https://example.invalid/MM/HB/rem1.tar.gz",
    "sha256": None,
    "n": 48,
    "nnz": 400,
    "spd": True,
    "pinned": False,
}


def manifest_with(*entries):
    return {"schema": "mstep-corpus-manifest-v1",
            "matrices": [copy.deepcopy(e) for e in entries]}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fetch_corpus.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class ManifestValidationTest(unittest.TestCase):
    def test_committed_manifest_is_valid(self):
        with open(COMMITTED_MANIFEST) as f:
            manifest = json.load(f)
        self.assertEqual(fetch_corpus.validate_manifest(manifest), [])
        # The curated corpus the issue calls for: 10-15 matrices, both
        # tiers present, every generated entry pinned so the committed
        # baseline is reproducible offline.
        matrices = manifest["matrices"]
        self.assertGreaterEqual(len(matrices), 10)
        self.assertLessEqual(len(matrices), 15)
        kinds = {m["kind"] for m in matrices}
        self.assertEqual(kinds, {"suitesparse", "generated"})
        for m in matrices:
            if m["kind"] == "generated":
                self.assertTrue(m["pinned"], m["name"])
                self.assertIsNotNone(m["sha256"], m["name"])

    def test_valid_synthetic_manifest(self):
        errors = fetch_corpus.validate_manifest(
            manifest_with(VALID_GENERATED, VALID_REMOTE))
        self.assertEqual(errors, [])

    def assert_invalid(self, manifest, fragment):
        errors = fetch_corpus.validate_manifest(manifest)
        self.assertTrue(any(fragment in e for e in errors),
                        f"no error containing {fragment!r} in {errors}")

    def test_rejects_wrong_schema_id(self):
        m = manifest_with(VALID_GENERATED)
        m["schema"] = "v0"
        self.assert_invalid(m, "schema")

    def test_rejects_duplicate_names(self):
        self.assert_invalid(manifest_with(VALID_GENERATED, VALID_GENERATED),
                            "duplicate")

    def test_rejects_bad_sha256(self):
        bad = dict(VALID_GENERATED, sha256="abc123")
        self.assert_invalid(manifest_with(bad), "sha256")

    def test_rejects_pinned_without_sha256(self):
        bad = dict(VALID_GENERATED, pinned=True)
        self.assert_invalid(manifest_with(bad), "lacks sha256")

    def test_rejects_unknown_kind(self):
        bad = dict(VALID_GENERATED, kind="carrier-pigeon")
        self.assert_invalid(manifest_with(bad), "kind")

    def test_rejects_http_url(self):
        bad = dict(VALID_REMOTE, url="http://example.invalid/MM/x.tar.gz")
        self.assert_invalid(manifest_with(bad), "https")

    def test_rejects_non_spd(self):
        bad = dict(VALID_GENERATED, spd=False)
        self.assert_invalid(manifest_with(bad), "spd")


class CheckOnlyTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.cache = os.path.join(self.dir.name, "cache")
        os.makedirs(self.cache)

    def write_manifest(self, manifest):
        path = os.path.join(self.dir.name, "manifest.json")
        with open(path, "w") as f:
            json.dump(manifest, f)
        return path

    def test_committed_manifest_check_only_is_offline_safe(self):
        # Empty cache: everything reports absent, nothing downloads,
        # exit 0 — the mode CI and fresh clones rely on.
        code, out, _ = run_main(["--check-only",
                                 "--manifest", COMMITTED_MANIFEST,
                                 "--cache", self.cache])
        self.assertEqual(code, 0)
        self.assertIn("absent", out)

    def test_check_only_verifies_pinned_cache(self):
        payload = b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
        with open(os.path.join(self.cache, "gen1.mtx"), "wb") as f:
            f.write(payload)
        pinned = dict(VALID_GENERATED, pinned=True,
                      sha256=hashlib.sha256(payload).hexdigest())
        path = self.write_manifest(manifest_with(pinned))
        code, out, _ = run_main(["--check-only", "--manifest", path,
                                 "--cache", self.cache])
        self.assertEqual(code, 0)
        self.assertIn("verified", out)

    def test_check_only_fails_on_corrupt_cache(self):
        with open(os.path.join(self.cache, "gen1.mtx"), "wb") as f:
            f.write(b"tampered bytes")
        pinned = dict(VALID_GENERATED, pinned=True, sha256="0" * 64)
        path = self.write_manifest(manifest_with(pinned))
        code, _, err = run_main(["--check-only", "--manifest", path,
                                 "--cache", self.cache])
        self.assertEqual(code, 1)
        self.assertIn("does not match", err)

    def test_invalid_manifest_is_usage_error(self):
        path = self.write_manifest(manifest_with(
            dict(VALID_GENERATED, kind="nope")))
        code, _, err = run_main(["--check-only", "--manifest", path,
                                 "--cache", self.cache])
        self.assertEqual(code, 2)
        self.assertIn("manifest validation", err)

    def test_unknown_only_name_is_usage_error(self):
        path = self.write_manifest(manifest_with(VALID_GENERATED))
        code, _, err = run_main(["--check-only", "--manifest", path,
                                 "--cache", self.cache,
                                 "--only", "no-such-matrix"])
        self.assertEqual(code, 2)
        self.assertIn("not in the manifest", err)

    def test_offline_skips_remote_entries(self):
        # --offline with a remote-only manifest: nothing fetched, no
        # network errors, exit 0 — the degraded-CI path.
        path = self.write_manifest(manifest_with(VALID_REMOTE))
        code, out, _ = run_main(["--offline", "--manifest", path,
                                 "--cache", self.cache])
        self.assertEqual(code, 0)
        self.assertIn("skipped (offline)", out)


if __name__ == "__main__":
    unittest.main()
