#!/usr/bin/env python3
"""Run the corpus: every cached manifest matrix x a splitting/m sweep.

Drives the mstep_solve binary over each matrix materialized by
tools/fetch_corpus.py, validates every
driver report in-process with check_report.py, and flattens the results
into one BENCH_corpus.json — the document the CI corpus gate diffs
against bench/baselines/BENCH_corpus.json:

    tools/run_corpus.py --out BENCH_corpus.json
    tools/check_bench.py \
        --baseline bench/baselines/BENCH_corpus.json \
        --candidate BENCH_corpus.json \
        --key matrix,splitting,m \
        --metric iterations:lower:exact \
        --metric solve_seconds:lower:tol1.0 \
        --require converged=true

Iteration counts of m-step PCG are machine-independent — the paper's
point — so they gate EXACTLY; wall-clock gates loosely (tol1.0 = a
doubling fails), because the corpus solves are sub-millisecond and
absolute sub-ms timings cannot hold a tight tolerance on a shared
runner — the iteration counts carry the precision.
Each sweep point runs --repeats times (default 5) and keeps the
best-of wall-clock and setup timings — sub-millisecond solves on the
small corpus matrices are too noisy for a single shot — while the
iteration count, final residual and convergence must be identical
across the repeats (a free determinism check on every CI run).

The default sweep is jacobi:m=2 plus ssor:m=1,2,4 (override with
--sweep SPLITTING:M, repeatable).  Matrices absent from the cache
(un-fetched remote entries — e.g. CI after a network failure, or any
offline run) are skipped with a notice unless --require-all; the
committed baseline only carries rows for the always-available generated
tier plus whatever remote rows were present when it was refreshed, and
check_bench only requires baseline rows to exist, so a skipped remote
matrix never fakes a pass nor blocks one.

Consistency checks per run: the report must converge, and n/nnz must
match the manifest.  Mismatches are hard failures for pinned entries,
warnings for unpinned ones (their metadata is advisory until
fetch_corpus.py --pin).

Exit codes: 0 all runs ok and at least one matrix ran, 1 any run or
consistency failure (or nothing ran), 2 usage or I/O error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_report  # noqa: E402
import fetch_corpus  # noqa: E402

DEFAULT_SWEEP = ["jacobi:2", "ssor:1", "ssor:2", "ssor:4"]


def die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def parse_sweep(specs):
    sweep = []
    for spec in specs:
        splitting, sep, m = spec.partition(":")
        if not sep or not splitting or not m.isdigit():
            die(f"run_corpus: --sweep '{spec}' needs SPLITTING:M")
        sweep.append((splitting, int(m)))
    return sweep


def run_one(driver, path, splitting, m, timeout):
    """One driver solve; returns (report dict | None, error string)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = tmp.name
    try:
        cmd = fetch_corpus.driver_cmd(driver) + [
            f"--matrix={path}", f"--splitting={splitting}", f"--m={m}",
            f"--out={out}"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"driver timed out after {timeout}s"
        if proc.returncode != 0:
            return None, (f"driver exit {proc.returncode}: "
                          f"{proc.stderr.strip() or proc.stdout.strip()}")
        # The report must satisfy the full report schema before any row
        # is extracted from it — a malformed report fails loudly here,
        # not as a KeyError three tools downstream.
        if check_report.main([out, "--require", "converged=true"]) != 0:
            return None, "report failed check_report.py validation"
        with open(out) as f:
            return json.load(f), ""
    except (OSError, json.JSONDecodeError) as e:
        return None, str(e)
    finally:
        try:
            os.unlink(out)
        except OSError:
            pass


def main(argv):
    root = fetch_corpus.repo_root()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest",
                    default=os.path.join(root, "bench/corpus/manifest.json"))
    ap.add_argument("--cache",
                    default=os.path.join(root, "bench/corpus/cache"))
    ap.add_argument("--driver",
                    default=os.path.join(root, "build/mstep_solve"))
    ap.add_argument("--out", default="BENCH_corpus.json")
    ap.add_argument("--sweep", action="append", default=[],
                    metavar="SPLITTING:M",
                    help=f"sweep points (default: {' '.join(DEFAULT_SWEEP)})")
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="restrict to the named matrices (repeatable)")
    ap.add_argument("--require-all", action="store_true",
                    help="fail (exit 1) when any manifest matrix is "
                         "missing from the cache instead of skipping it")
    ap.add_argument("--repeats", type=int, default=5,
                    help="driver runs per sweep point; timings are "
                         "best-of, everything else must be identical")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="per-solve driver timeout in seconds")
    args = ap.parse_args(argv)

    manifest = fetch_corpus.load_manifest(args.manifest)
    entries = manifest["matrices"]
    if args.only:
        known = {m["name"] for m in entries}
        for name in args.only:
            if name not in known:
                die(f"run_corpus: --only {name}: not in the manifest")
        entries = [m for m in entries if m["name"] in args.only]
    sweep = parse_sweep(args.sweep or DEFAULT_SWEEP)

    rows = []
    failures = []
    warnings = []
    skipped = []
    for entry in entries:
        name = entry["name"]
        path = fetch_corpus.cache_path(args.cache, entry)
        if not os.path.isfile(path):
            skipped.append(name)
            continue
        pinned = entry.get("pinned", False)
        if pinned:
            actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
            if actual != entry["sha256"]:
                failures.append(
                    f"{name}: cache sha256 {actual} != pinned "
                    f"{entry['sha256']} — stale or corrupt cache")
                continue
        for splitting, m in sweep:
            label = f"{name} x {splitting}:m={m}"
            reports = []
            error = ""
            for _ in range(max(1, args.repeats)):
                report, error = run_one(args.driver, path, splitting, m,
                                        args.timeout)
                if report is None:
                    break
                reports.append(report)
            if not reports or report is None:
                failures.append(f"{label}: {error}")
                continue
            # The solve must be bit-for-bit repeatable; only wall-clock
            # may vary between repeats (and gets best-of treatment).
            nondeterministic = False
            for later in reports[1:]:
                for field in ("iterations", "final_delta_inf", "converged"):
                    if later[field] != reports[0][field]:
                        failures.append(
                            f"{label}: {field} differs across repeats: "
                            f"{reports[0][field]} vs {later[field]}")
                        nondeterministic = True
            if nondeterministic:
                continue
            report = reports[0]
            best_setup = min(r["setup_seconds"] for r in reports)
            best_solve = min(r["wall_seconds"] for r in reports)
            problems = []
            for field in ("n", "nnz"):
                want = entry.get(field)
                if want is not None and report[field] != want:
                    problems.append(f"{field} = {report[field]}, manifest "
                                    f"says {want}")
            for p in problems:
                if pinned:
                    failures.append(f"{label}: {p}")
                else:
                    warnings.append(f"{label}: {p} (unpinned — advisory)")
            if problems and pinned:
                continue
            rows.append({
                "tool": "bench_corpus",
                "matrix": name,
                "kind": entry["kind"],
                "splitting": splitting,
                "m": m,
                "config": report["config"],
                "n": report["n"],
                "nnz": report["nnz"],
                # nrhs=1 throughout the corpus: one iteration count and
                # one final residual per run, flattened out of the
                # report's per-RHS lists.
                "iterations": report["iterations"][0],
                "converged": report["converged"],
                "final_delta_inf": report["final_delta_inf"][0],
                # kappa(M^-1 K) proxy from the fitted alphas over the
                # spectrum estimate — how the paper reads iteration counts;
                # null for m=0 or a degenerate eigenvalue map.
                "condition_proxy": report.get("condition_proxy"),
                "setup_seconds": best_setup,
                "solve_seconds": best_solve,
            })
            print(f"  ok   {label}: {report['iterations'][0]} iteration(s)")

    rows.sort(key=lambda r: (r["matrix"], r["splitting"], r["m"]))
    try:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    except OSError as e:
        die(f"run_corpus: cannot write {args.out}: {e}")

    ran = len(entries) - len(skipped)
    print(f"run_corpus: {ran}/{len(entries)} matrices, {len(rows)} row(s), "
          f"{len(failures)} failure(s), {len(warnings)} warning(s) "
          f"-> {args.out}")
    if skipped:
        print(f"  notice: skipped (not in cache — run fetch_corpus.py): "
              f"{', '.join(skipped)}")
    for w in warnings:
        print(f"  WARN: {w}")
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    if args.require_all and skipped:
        print(f"  FAIL: --require-all with {len(skipped)} matrix(es) "
              f"missing from the cache", file=sys.stderr)
        return 1
    if failures or ran == 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
