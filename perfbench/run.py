#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload plate_serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds the
library and the benchmark into .bench_build (Release); later runs only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Without the repository sources the
build fails and the script exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"


def build(targets):
    # Compiler temporaries and ccache stay out of the rest of the machine.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release",
             # Keep every build artefact inside the checkout.
             "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    for target in targets:
        made = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", target, "-j4"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if made.returncode != 0:
            return False
    return True


def binary(name):
    return os.path.join(ROOT, BUILD_DIR, name)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    status = subprocess.run([binary("perfbench_selftest")], cwd=ROOT).returncode
    # The metric names each mode prints are exactly BENCHMARK.json's.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        run = subprocess.run(
            [binary("perfbench"), "--workload", "served_mix", "--seed", "3",
             "--seconds", "0.5", "--trace", trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = last_json(run.stdout)
        want = {(m["name"], m["unit"]) for m in spec[key]}
        got = set()
        if result is not None:
            got = {(name, m["unit"]) for name, m in result["metrics"].items()}
        ok = run.returncode == 0 and result is not None and got == want
        print(("ok   " if ok else "FAIL ")
              + "--trace %s prints exactly BENCHMARK.json's %s metrics"
              % (trace, key))
        if not ok:
            print("  missing: %s\n  extra: %s"
                  % (sorted(want - got), sorted(got - want)))
            status = status or 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [binary("perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
