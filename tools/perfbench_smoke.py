#!/usr/bin/env python3
"""Fingerprint smoke for the end-to-end benchmark (perfbench/).

Builds perfbench through perfbench/run.py, builds and runs its unit tests
(perfbench_tests), then runs every workload for a short measured time at
seed 1. Fails unless each run reports "correct": true and the output
fingerprint pinned in EXPECTED below. The fingerprint is a CRC of the
workload's outputs, so an optimisation that must keep trajectories
bit-identical (the ALS fit, the LOO gate, the train step) fails here when
it does not. A change that alters a trajectory on purpose updates EXPECTED
and says why in its change notes.

    python3 tools/perfbench_smoke.py [--seconds 2]

Run it from the repository root. About 40 s on 4 cores once perfbench is
built. Exit code 0 = every check passed, 1 = a check failed.
"""
import argparse
import json
import os
import subprocess
import sys

SEED = 1
EXPECTED = {
    "serve_city": "f860ee55",
    "train_metro": "000c4dd4",
    "train_paper": "fb1ab2f9",
}


def check_run(workload, stdout):
    """Returns the problems in one run's stdout (context line, result line)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        return ["%s: no context and result lines in the output" % workload]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as err:
        return ["%s: unreadable output (%s)" % (workload, err)]
    problems = []
    if result.get("correct") is not True:
        problems.append("%s: \"correct\": %s" %
                        (workload, json.dumps(result.get("correct"))))
    got = context.get("fingerprint")
    if got != EXPECTED[workload]:
        problems.append("%s: fingerprint %s, expected %s" %
                        (workload, got, EXPECTED[workload]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    problems = []
    for i, workload in enumerate(sorted(EXPECTED)):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", repr(args.seconds), "--trace", "0"]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        found = check_run(workload, run.stdout)
        if run.returncode and not found:
            found = ["%s: run.py exited %d" % (workload, run.returncode)]
        problems += found
        print("%s: %s" % (workload, "; ".join(found) or "ok"), flush=True)
        if i == 0:
            # run.py has built perfbench; its unit tests share the build.
            target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
            build_dir = os.path.join(os.path.abspath(target), "perfbench")
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            steps = [["cmake", "--build", build_dir, "--target",
                      "perfbench_tests", "-j", jobs],
                     [os.path.join(build_dir, "perfbench_tests")]]
            for step in steps:
                if subprocess.run(step).returncode:
                    problems.append("failed: " + " ".join(step))
                    break

    for p in problems:
        print("perfbench_smoke: " + p, file=sys.stderr)
    print("perfbench_smoke: %s" % ("FAILED" if problems else "all passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
