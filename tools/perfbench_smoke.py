#!/usr/bin/env python3
"""Fingerprint smoke for the end-to-end benchmark (perfbench/).

Builds perfbench through perfbench/run.py, builds and runs its unit tests
(perfbench_tests), then runs every workload for a short measured time at
seed 1, and serve_city also at the held-out seed 20181017. Fails unless
each run reports "correct": true and the output fingerprint pinned in
EXPECTED below. The fingerprint is a CRC of the
workload's outputs, so an optimisation that must keep trajectories
bit-identical (the ALS fit, the LOO gate, the train step) fails here when
it does not. A change that alters a trajectory on purpose updates EXPECTED
and says why in its change notes.

    python3 tools/perfbench_smoke.py [--seconds 2]

Run it from the repository root. About 50 s on 4 cores once perfbench is
built. Exit code 0 = every check passed, 1 = a check failed.
"""
import argparse
import json
import os
import subprocess
import sys

# (workload, seed) -> fingerprint. The held-out seed checks that a change
# which keeps seed 1's trajectory keeps another one too.
EXPECTED = {
    ("serve_city", 1): "2f996862",
    ("serve_city", 20181017): "e24f199d",
    ("train_metro", 1): "000c4dd4",
    ("train_paper", 1): "fb1ab2f9",
}


def check_run(workload, seed, stdout):
    """Returns the problems in one run's stdout (context line, result line)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    name = "%s@%d" % (workload, seed)
    if len(lines) < 2:
        return ["%s: no context and result lines in the output" % name]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as err:
        return ["%s: unreadable output (%s)" % (name, err)]
    problems = []
    if result.get("correct") is not True:
        problems.append("%s: \"correct\": %s" %
                        (name, json.dumps(result.get("correct"))))
    got = context.get("fingerprint")
    want = EXPECTED[(workload, seed)]
    if got != want:
        problems.append("%s: fingerprint %s, expected %s" % (name, got, want))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    problems = []
    for i, (workload, seed) in enumerate(sorted(EXPECTED)):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", "0"]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        found = check_run(workload, seed, run.stdout)
        if run.returncode and not found:
            found = ["%s@%d: run.py exited %d" %
                     (workload, seed, run.returncode)]
        problems += found
        print("%s@%d: %s" % (workload, seed, "; ".join(found) or "ok"),
              flush=True)
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
