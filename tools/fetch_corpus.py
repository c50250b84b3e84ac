#!/usr/bin/env python3
"""Materialize the real-matrix corpus cache from bench/corpus/manifest.json.

The manifest is the committed, curated list of corpus matrices — small
and medium SPD systems run through mstep_solve by tools/run_corpus.py
and gated in CI (see docs/benchmarking.md).  Every entry caches as one
canonical Matrix Market file, `bench/corpus/cache/<name>.mtx`, and two
entry kinds exist:

  kind "suitesparse"  downloaded from the SuiteSparse collection
                      (`url` is the MM .tar.gz; the contained
                      <name>/<name>.mtx is extracted into the cache)
  kind "generated"    exported deterministically by the mstep_solve
                      driver (`generator` is a catalog spec run with
                      --export-matrix) — the offline tier: it needs no
                      network, so the committed baseline gates it on
                      every runner

Verification is uniform: `sha256` is the checksum OF THE CACHED .mtx
(post-extraction), so --check-only verifies both kinds without caring
where the bytes came from.  Entries start life unpinned (sha256 null):
this container/CI cannot know a download's hash before the first
successful fetch.  `--pin` is the trust-on-first-use step — it fills
sha256, n and nnz from the fetched file plus one
driver probe, and rewrites the manifest; a maintainer reviews and
commits the pinned manifest, after which any byte drift is a hard
failure.

    tools/fetch_corpus.py                      # materialize everything
    tools/fetch_corpus.py --offline            # generated tier only
    tools/fetch_corpus.py --check-only         # verify cache, no network
    tools/fetch_corpus.py --pin                # fill + rewrite checksums
    tools/fetch_corpus.py --only nos4 --only bcsstk01

Exit codes: 0 ok, 1 verification failure (a cached/downloaded file does
not match its pinned checksum — corruption, never skipped), 2 usage or
manifest error, 3 network failure only (every non-network check passed;
CI's corpus job downgrades this to a skipped-with-notice step so flaky
mirrors cannot block merges).
"""

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import urllib.error
import urllib.request

VALID_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
VALID_SHA = re.compile(r"^[0-9a-f]{64}$")
SCHEMA_ID = "mstep-corpus-manifest-v1"
FETCH_TIMEOUT_SECONDS = 60


def die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_manifest(path):
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"fetch_corpus: cannot read {path}: {e}")
    errors = validate_manifest(manifest)
    if errors:
        for e in errors:
            print(f"  MANIFEST: {e}", file=sys.stderr)
        die(f"fetch_corpus: {path} failed manifest validation "
            f"({len(errors)} error(s))")
    return manifest


def validate_manifest(manifest):
    """Schema check; returns a list of error strings (empty = valid)."""
    errors = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    if manifest.get("schema") != SCHEMA_ID:
        errors.append(f"schema must be '{SCHEMA_ID}', "
                      f"got {manifest.get('schema')!r}")
    matrices = manifest.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        return errors + ["'matrices' must be a non-empty array"]
    seen = set()
    for i, m in enumerate(matrices):
        where = f"matrices[{i}]"
        if not isinstance(m, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = m.get("name")
        where = f"matrices[{i}] ({name})"
        if not isinstance(name, str) or not VALID_NAME.match(name or "-"):
            errors.append(f"{where}: bad 'name' {name!r}")
        elif name in seen:
            errors.append(f"{where}: duplicate name")
        else:
            seen.add(name)
        kind = m.get("kind")
        if kind == "suitesparse":
            url = m.get("url")
            if not isinstance(url, str) or not url.startswith("https://") \
                    or not url.endswith(".tar.gz"):
                errors.append(f"{where}: 'url' must be an https .tar.gz")
            if not isinstance(m.get("group"), str):
                errors.append(f"{where}: suitesparse entry needs 'group'")
        elif kind == "generated":
            gen = m.get("generator")
            if not isinstance(gen, str) or not gen:
                errors.append(f"{where}: generated entry needs 'generator'")
        else:
            errors.append(f"{where}: kind must be 'suitesparse' or "
                          f"'generated', got {kind!r}")
        sha = m.get("sha256")
        if sha is not None and (not isinstance(sha, str)
                                or not VALID_SHA.match(sha)):
            errors.append(f"{where}: sha256 must be 64 lowercase hex "
                          f"chars or null")
        for field in ("n", "nnz"):
            v = m.get(field)
            if v is not None and (type(v) is not int or v <= 0):
                errors.append(f"{where}: '{field}' must be a positive "
                              f"int or null")
        if m.get("spd") is not True:
            errors.append(f"{where}: corpus matrices must declare "
                          f"'spd': true")
        pinned = m.get("pinned")
        if type(pinned) is not bool:
            errors.append(f"{where}: 'pinned' must be true or false")
        elif pinned and sha is None:
            errors.append(f"{where}: pinned entry lacks sha256")
    return errors


def cache_path(cache_dir, entry):
    return os.path.join(cache_dir, entry["name"] + ".mtx")


def verify(path, entry, failures):
    """Check a cached file against a pinned sha256.  Returns status str."""
    if not os.path.isfile(path):
        return "absent"
    if entry.get("sha256") is None:
        return "cached (unpinned)"
    actual = sha256_file(path)
    if actual != entry["sha256"]:
        failures.append(
            f"{entry['name']}: cache file {path} sha256 {actual} does not "
            f"match the pinned {entry['sha256']} — delete the file and "
            f"re-fetch, or re-pin deliberately")
        return "CORRUPT"
    return "verified"


def driver_cmd(driver):
    return [sys.executable, driver] if driver.endswith(".py") else [driver]


def generate(entry, path, driver):
    """Export a catalog matrix through the driver; raises RuntimeError."""
    cmd = driver_cmd(driver) + [
        f"--problem={entry['generator']}",
        f"--export-matrix={path}", "--export-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.isfile(path):
        raise RuntimeError(
            f"driver export failed (exit {proc.returncode}): "
            f"{proc.stderr.strip() or proc.stdout.strip()}")


def download(entry, path, mirror):
    """Fetch the SuiteSparse tarball and extract <name>/<name>.mtx.

    Network problems raise urllib.error.URLError/OSError; a tarball
    without the expected member raises RuntimeError (NOT a network
    failure — the mirror served the wrong bytes).
    """
    url = entry["url"]
    if mirror:
        url = mirror.rstrip("/") + "/" + url.split("/MM/", 1)[-1]
    request = urllib.request.Request(
        url, headers={"User-Agent": "mstep-fetch-corpus/1.0"})
    with urllib.request.urlopen(request,
                                timeout=FETCH_TIMEOUT_SECONDS) as response:
        blob = response.read()
    member = f"{entry['name']}/{entry['name']}.mtx"
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:gz") as tar:
        try:
            extracted = tar.extractfile(member)
        except KeyError:
            extracted = None
        if extracted is None:
            names = ", ".join(tar.getnames()[:5])
            raise RuntimeError(
                f"{url} holds no member '{member}' (has: {names}, ...)")
        with tempfile.NamedTemporaryFile(
                dir=os.path.dirname(path), delete=False) as tmp:
            shutil.copyfileobj(extracted, tmp)
            tmp_path = tmp.name
    os.replace(tmp_path, path)


def probe(entry, path, driver):
    """One driver solve to learn n/nnz.

    Returns the report dict.  Exit 1 (ran, did not converge) still
    yields a usable report; anything else raises RuntimeError.
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = tmp.name
    try:
        cmd = driver_cmd(driver) + [
            f"--matrix={path}", "--splitting=ssor", "--m=2",
            f"--out={out}"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            raise RuntimeError(
                f"driver probe failed (exit {proc.returncode}): "
                f"{proc.stderr.strip() or proc.stdout.strip()}")
        with open(out) as f:
            return json.load(f)
    finally:
        os.unlink(out)


def main(argv):
    root = repo_root()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest",
                    default=os.path.join(root, "bench/corpus/manifest.json"))
    ap.add_argument("--cache",
                    default=os.path.join(root, "bench/corpus/cache"))
    ap.add_argument("--driver",
                    default=os.path.join(root, "build/mstep_solve"),
                    help="mstep_solve binary (generated tier + --pin probe)")
    ap.add_argument("--check-only", action="store_true",
                    help="validate the manifest and verify existing cache "
                         "files; no network, no generation")
    ap.add_argument("--offline", action="store_true",
                    help="materialize the generated tier only; remote "
                         "entries are reported as skipped")
    ap.add_argument("--pin", action="store_true",
                    help="trust-on-first-use: fill sha256/n/nnz of "
                         "unpinned entries from the "
                         "materialized files and rewrite the manifest")
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="restrict to the named entries (repeatable)")
    ap.add_argument("--mirror", default="",
                    help="alternate base URL replacing everything up to "
                         "/MM/ in suitesparse urls")
    args = ap.parse_args(argv)

    manifest = load_manifest(args.manifest)
    entries = manifest["matrices"]
    if args.only:
        known = {m["name"] for m in entries}
        for name in args.only:
            if name not in known:
                die(f"fetch_corpus: --only {name}: not in the manifest")
        entries = [m for m in entries if m["name"] in args.only]

    failures = []       # checksum/corruption problems -> exit 1
    network_errors = []  # download problems only -> exit 3
    statuses = []
    pinned_any = False
    if not args.check_only:
        os.makedirs(args.cache, exist_ok=True)

    for entry in entries:
        name = entry["name"]
        path = cache_path(args.cache, entry)
        status = verify(path, entry, failures)
        if status == "CORRUPT":
            statuses.append((name, status))
            continue
        needs = status == "absent" or (status == "cached (unpinned)"
                                       and not args.check_only
                                       and entry["kind"] == "generated")
        if args.check_only:
            statuses.append((name, status))
            continue
        if status == "absent" or needs:
            if entry["kind"] == "generated":
                try:
                    generate(entry, path, args.driver)
                    status = verify(path, entry, failures)
                    status = {"cached (unpinned)": "generated (unpinned)",
                              "verified": "generated + verified"}.get(
                                  status, status)
                except (RuntimeError, OSError) as e:
                    failures.append(f"{name}: {e}")
                    status = "GENERATION FAILED"
            elif args.offline:
                status = "skipped (offline)"
            else:
                try:
                    download(entry, path, args.mirror)
                    status = verify(path, entry, failures)
                    status = {"cached (unpinned)": "fetched (unpinned)",
                              "verified": "fetched + verified"}.get(
                                  status, status)
                except (urllib.error.URLError, TimeoutError, OSError) as e:
                    network_errors.append(f"{name}: {entry['url']}: {e}")
                    status = "NETWORK FAILURE"
                except RuntimeError as e:
                    failures.append(f"{name}: {e}")
                    status = "BAD ARCHIVE"
        if args.pin and not entry.get("pinned") and os.path.isfile(path) \
                and "CORRUPT" not in status:
            try:
                report = probe(entry, path, args.driver)
                entry["sha256"] = sha256_file(path)
                entry["n"] = report["n"]
                entry["nnz"] = report["nnz"]
                entry["pinned"] = True
                pinned_any = True
                status += ", pinned"
            except (RuntimeError, OSError, KeyError,
                    json.JSONDecodeError) as e:
                failures.append(f"{name}: pin probe failed: {e}")
        statuses.append((name, status))

    width = max(len(n) for n, _ in statuses) if statuses else 0
    for name, status in statuses:
        print(f"  {name.ljust(width)}  {status}")
    print(f"fetch_corpus: {len(statuses)} entr(ies), "
          f"{len(failures)} failure(s), "
          f"{len(network_errors)} network error(s)")
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    for e in network_errors:
        print(f"  NETWORK: {e}", file=sys.stderr)

    if pinned_any:
        with open(args.manifest, "w") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
        print(f"fetch_corpus: rewrote {args.manifest} with pinned entries "
              f"— review and commit it")

    if failures:
        return 1
    if network_errors:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
