#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two commits.

Exports each commit with `git archive` into its own directory under
--work-dir, then runs the named perfbench workloads (perfbench/run.py,
untraced) in --pairs alternating pairs: pair i runs the base first when i is
even and the change first when i is odd, so drift on the machine lands on
both sides alike. The first run of each side builds its perfbench.

For every end-to-end metric that BENCHMARK.json declares, it prints each
side's median and quartiles, the relative change of the median, the number
of pairs the change won (by the metric's "better" direction), and whether
the median moved by more than the base's interquartile range. It also
prints the fingerprints each side reported; a change that must keep
trajectories has to show the base's fingerprint. When a workload's
change-side fingerprint set differs from the base's it prints a
`FINGERPRINT MOVED` line (an intended re-pin still runs to the end, so the
exit code does not change), and --json records `fingerprints_match`.

    python3 tools/ab.py --base HEAD~1 --change HEAD \\
        --workloads train_metro,serve_city --pairs 10 --seconds 20

Run it from the repository root. Each run takes --seconds of measured time
plus its set-up; ten 20-s pairs of one workload take about 8 minutes. The
exported trees are kept, so a second invocation on the same commits skips
their builds. --json writes every run's metrics and the summary.
Exit code 0 = every run finished, 1 = a build or run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(rev, work_dir):
    """Extracts `rev` into work_dir/<sha>; returns the directory."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    tree = os.path.join(work_dir, sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".tmp"], check=True,
                       stdin=archive.stdout)
        if archive.wait():
            raise RuntimeError("git archive %s failed" % sha)
        os.rename(tree + ".tmp", tree)
    return tree


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in `tree`: (context, result) or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds its own perfbench
    run = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode or len(lines) < 2:
        return None
    try:
        return json.loads(lines[-2])["context"], json.loads(lines[-1])
    except (ValueError, KeyError):
        return None


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(metrics, runs):
    """Per-metric rows for one workload's paired runs."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in runs
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base = quartiles([b for b, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
        delta = change[1] - base[1]
        rows.append({
            "metric": name, "better": m["better"], "pairs": len(pairs),
            "base": base, "change": change, "wins": wins,
            "rel_change": delta / base[1] if base[1] else None,
            "beyond_base_iqr": abs(delta) > base[2] - base[0],
        })
    return rows


def fingerprints_match(prints):
    """Whether both sides reported the same set of fingerprints."""
    return prints["base"] == prints["change"]


def print_rows(workload, rows, prints):
    print("\n== %s ==" % workload)
    for side in ("base", "change"):
        print("  %s fingerprints: %s" % (side, ", ".join(sorted(prints[side]))))
    if not fingerprints_match(prints):
        print("  FINGERPRINT MOVED: the change's trajectory differs from the "
              "base's")
    print("  %-17s %-32s %-32s %8s %5s %s" %
          ("metric", "base median [q1, q3]", "change median [q1, q3]",
           "delta", "wins", "beyond base IQR"))
    for r in rows:
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        rel = "%+.1f%%" % (100 * r["rel_change"]) \
            if r["rel_change"] is not None else "n/a"
        print("  %-17s %-32s %-32s %8s %2d/%-2d %s" %
              (r["metric"], fmt(r["base"]), fmt(r["change"]), rel, r["wins"],
               r["pairs"], "yes" if r["beyond_base_iqr"] else "no"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".ab_build"))
    parser.add_argument("--json", help="write runs and summary to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    work_dir = os.path.abspath(args.work_dir)
    trees = {"base": export(args.base, work_dir),
             "change": export(args.change, work_dir)}
    report = {"base": args.base, "change": args.change,
              "seconds": args.seconds, "seed": args.seed, "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        runs, prints = [], {"base": set(), "change": set()}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                out = run_once(trees[side], workload, args.seed, args.seconds)
                if out is None:
                    print("%s: %s run failed in pair %d" % (workload, side, i),
                          file=sys.stderr)
                    failed = True
                    break
                pair[side] = out[1]
                prints[side].add(out[0].get("fingerprint", "?"))
            if len(pair) < 2:
                break
            runs.append((pair["base"], pair["change"]))
            print("%s pair %d/%d done (%s first)" %
                  (workload, i + 1, args.pairs, order[0]), flush=True)
        rows = summarise(metrics, runs)
        print_rows(workload, rows, prints)
        report["workloads"][workload] = {
            "fingerprints": {k: sorted(v) for k, v in prints.items()},
            "fingerprints_match": fingerprints_match(prints),
            "runs": [{"base": b, "change": c} for b, c in runs],
            "summary": rows,
        }
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
