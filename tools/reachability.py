#!/usr/bin/env python3
"""Report the library functions that no production binary links.

Builds every example, every bench and perfbench with
-ffunction-sections -fdata-sections and links them with -Wl,--gc-sections,
so each binary keeps only the functions its entry point can reach. Then it
lists the drcell:: functions defined in libdrcell.a that none of those
binaries contains: code that only the tests keep alive. A second list
names the functions that bench binaries link but no example and not
perfbench does: code that only bench floors and bench-local references keep
alive.

The build is Debug (-O0), so a function the optimiser would inline into
every caller still shows up as reached rather than as a false positive. A
virtual function counts as reached whenever its class's vtable is linked,
whether or not anything calls it.

This is a report, not a gate: it exits 0 whatever it finds, and non-zero
only when a build or nm fails.

Usage (from the repository root):
    python3 tools/reachability.py [--build-dir .reach_build] [--jobs N]
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# nm symbol types that are function bodies: global / local / weak text.
FUNCTION_TYPES = set("TtWw")

# A mangled name inside namespace drcell (cv/ref-qualified members too).
# Matching the mangled form skips std:: templates whose demangled return
# type merely mentions a drcell:: type.
DRCELL_SYMBOL = re.compile(r"^_ZN[KVRO]*6drcell")

GC_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.exit("reachability: command failed: " + " ".join(cmd))
    return result.stdout


def build(source, build_dir, jobs, targets=None):
    run(["cmake", "-S", source, "-B", build_dir] + GC_FLAGS +
        ["-DDRCELL_BUILD_TESTS=OFF"])
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs)]
    for t in targets or []:
        cmd += ["--target", t]
    run(cmd)


def defined_functions(path):
    """Maps each function symbol defined in `path` to the object it is in
    (the archive member, or the file itself for an executable)."""
    out = {}
    member = os.path.basename(path)
    for line in run(["nm", "--defined-only", path]).splitlines():
        if line.endswith(":"):
            member = line[:-1]
            continue
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[1] in FUNCTION_TYPES:
            out.setdefault(parts[2], member)
    return out


def demangle(names):
    result = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                            stdout=subprocess.PIPE, text=True, check=True)
    return dict(zip(names, result.stdout.splitlines()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=".reach_build",
                        help="where the two gc-sections build trees go")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)
    main_dir = os.path.join(build_dir, "main")
    perf_dir = os.path.join(build_dir, "perfbench")

    build(ROOT, main_dir, args.jobs)
    build(os.path.join(ROOT, "perfbench"), perf_dir, args.jobs, ["perfbench"])

    binaries = sorted(
        os.path.join(main_dir, f) for f in os.listdir(main_dir)
        if f.startswith(("example_", "bench_")) and
        os.access(os.path.join(main_dir, f), os.X_OK))
    binaries.append(os.path.join(perf_dir, "perfbench"))

    library = defined_functions(os.path.join(main_dir, "libdrcell.a"))
    linked = set()
    linked_outside_benches = set()
    for b in binaries:
        functions = defined_functions(b)
        linked.update(functions)
        if not os.path.basename(b).startswith("bench_"):
            linked_outside_benches.update(functions)

    ours = sorted(m for m in library if DRCELL_SYMBOL.match(m))
    names = demangle(ours)
    # A constructor or destructor has several mangled variants (C1/C2,
    # D0/D1/D2) with one demangled name; list each function once.
    total = {names[m] for m in ours}
    reached = {names[m] for m in ours if m in linked}
    reached_outside_benches = {names[m] for m in ours
                               if m in linked_outside_benches}
    unreached = sorted({(library[m], names[m]) for m in ours
                        if names[m] not in reached})
    bench_only = sorted({(library[m], names[m]) for m in ours
                         if names[m] in reached and
                         names[m] not in reached_outside_benches})

    print("reachability: %d of %d drcell:: functions in libdrcell.a are in "
          "none of the %d production binaries (examples, benches, perfbench)"
          % (len(unreached), len(total), len(binaries)))
    print_grouped(unreached)
    print("reachability: %d of %d drcell:: functions are in a bench binary "
          "but in no example and not in perfbench"
          % (len(bench_only), len(total)))
    print_grouped(bench_only)
    return 0


def print_grouped(functions):
    """Prints (object, name) pairs as one object header per run of names."""
    member = None
    for obj, name in functions:
        if obj != member:
            member = obj
            print(obj)
        print("  " + name)


if __name__ == "__main__":
    sys.exit(main())
