#!/usr/bin/env python3
"""Table 1 benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload proc_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe with dune (inside the checkout, dune cache
off), runs it, checks that its last output line is a result object
carrying exactly the metrics BENCHMARK.json names for the chosen mode,
and prints that line last. Exits non-zero, without a result line, if
the build, the run or the check fails. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench"
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % done.returncode)


def run(args, env):
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, stderr=None,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT)
    return proc.returncode, out


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that forged expectations count as failures")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(WORK, "cache")))
    os.makedirs(WORK, exist_ok=True)
    started = time.time()
    build(env)
    print("perfbench: build %.1f s" % (time.time() - started), file=sys.stderr)
    if a.self_test:
        code, out = run(["selftest"], env)
        sys.stdout.write(out)
        sys.exit(code)
    code, out = run(["run", "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--work", WORK], env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got, want = set(result["metrics"]), expected_metrics(a.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print(lines[-1])


if __name__ == "__main__":
    main()
