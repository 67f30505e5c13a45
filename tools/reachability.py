#!/usr/bin/env python3
"""Report the library functions that no production binary links.

Builds every example, every bench and perfbench with
-ffunction-sections -fdata-sections and links them with -Wl,--gc-sections,
so each binary keeps only the functions its entry point can reach. Then it
lists the drcell:: functions defined in libdrcell.a that none of those
binaries contains: code that only the tests keep alive. A second list
names the functions that bench binaries link but no example and not
perfbench does: code that only bench floors and bench-local references keep
alive. A third list, from a textual scan rather than the build, names the
data members of every *Options / *Config struct in src/**/*.h that no
source under examples/, bench/ or perfbench/src/ assigns (`.field =`,
`->field =` or a designated initialiser): knobs that only their defaults
and the tests set. A field name assigned anywhere in those trees counts as
set for every struct that has it, so the list errs towards too few
candidates; each one still needs a person to confirm it. A fourth list,
also textual, names the functions defined with a body in src/**/*.h
(inline functions, which have no symbol of their own in the archive) that
tests/ calls and nothing else does: no function body under src/ and no
source under examples/, bench/ or perfbench/src/. A call is a name
followed by "(", so a name called anywhere in production counts as called
for every function that has it, and this list errs the same way.

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


# A struct or class whose name ends in Options or Config, up to its "{".
OPTION_STRUCT = re.compile(
    r"\b(?:struct|class)\s+(\w*(?:Options|Config))\b[^{;]*\{")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
ACCESS = re.compile(r"^(?:(?:public|private|protected)\s*:\s*)+")
# `.name =`, `->name =` or a compound assignment, not `==`; a member chain
# (`.fault.checkpoint_ring =`) assigns every name in it.
MEMBER = r"(?:\.|->)\s*[A-Za-z_]\w*"
ASSIGNED = re.compile(r"((?:%s\s*)+)[-+*/|&]?=(?!=)" % MEMBER)


# Comments, string and character literals in one pass, so a "//" inside a
# string does not start a comment.
LEXEMES = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'
                     r"'(?:\\.|[^'\\\n])'", re.S)
PREPROCESSOR = re.compile(r"^[ \t]*#[^\n]*", re.M)
SCOPE = re.compile(r"(?:template\s*)?(?:(namespace)|struct|class|union)\b"
                   r"\s*(\w*)|extern\b")
CALL = re.compile(r"([A-Za-z_]\w*)\s*\(")
MEMBER_CALL = re.compile(r"(?:\.|->|::)\s*([A-Za-z_]\w*)\s*\(")
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                 "decltype", "alignof", "alignas", "noexcept", "requires",
                 "static_assert"}


def code_only(text):
    """`text` without comments, preprocessor lines and the contents of
    string and character literals."""
    text = LEXEMES.sub(lambda m: " " if m.group(0)[0] == "/" else '""', text)
    return PREPROCESSOR.sub("", text)


def strip_templates(text):
    """Drops every <...> group, innermost first."""
    bare = None
    while bare != text:
        bare, text = text, re.sub(r"<[^<>]*>", "", text)
    return text


def scan_definitions(text):
    """Walks a C++ source's scopes. Returns (functions, bodies): the
    functions defined with a body at namespace or class scope, each as
    "Class::name" or "name" (constructors, destructors and operators
    skipped), and the text of every brace block that is not a namespace or
    a class: function bodies, enum bodies and brace initialisers."""
    text = code_only(text)
    functions, bodies, classes = [], [], []
    statement, i = "", 0
    while i < len(text):
        ch = text[i]
        if ch == "}":
            if classes:
                classes.pop()
            statement = ""
        elif ch == ";":
            statement = ""
        elif ch != "{":
            statement += ch
        else:
            head = strip_templates(ACCESS.sub("", statement.strip()))
            statement = ""
            scope = SCOPE.match(head)
            if scope:
                classes.append("" if scope.group(1) else scope.group(2))
                i += 1
                continue
            end, depth = i, 0
            for end in range(i, len(text)):
                depth += (text[end] == "{") - (text[end] == "}")
                if depth == 0:
                    break
            bodies.append(text[i + 1:end])
            if "(" in head:
                prefix = head[:head.index("(")]
                name = re.search(r"(~?)([A-Za-z_]\w*)\s*$", prefix)
                owner = re.search(r"(\w+)\s*::\s*~?\s*\w+\s*$", prefix)
                owner = owner.group(1) if owner else (
                    classes[-1] if classes else "")
                if (name and not name.group(1) and
                        name.group(2) not in NOT_FUNCTIONS and
                        name.group(2) != owner and
                        not re.search(r"\boperator\b", prefix)):
                    functions.append(
                        "%s::%s" % (owner, name.group(2)) if owner
                        else name.group(2))
            i = end
        i += 1
    return functions, bodies


def test_only_functions(headers, sources, production, tests):
    """The functions defined in `headers` that `tests` call and production
    does not.

    `headers` maps a header path to its text; `sources` holds the texts of
    every file under src/ (headers included), whose function bodies count
    as production callers; `production` and `tests` are iterables of whole
    source texts. Production calls count in any form; a test calls a
    member function only as `.name(`, `->name(` or `::name(`, so a test's
    local `Matrix p(2, 2)` does not call `Gate::p`. Returns sorted
    (header, "Class::name") pairs."""
    called = set()
    for text in sources:
        for body in scan_definitions(text)[1]:
            called.update(CALL.findall(body))
    for text in production:
        called.update(CALL.findall(code_only(text)))
    tested, tested_members = set(), set()
    for text in tests:
        text = code_only(text)
        tested.update(CALL.findall(text))
        tested_members.update(MEMBER_CALL.findall(text))
    return sorted({(path, function)
                   for path, text in headers.items()
                   for function in scan_definitions(text)[0]
                   if function.split("::")[-1] not in called and
                   function.split("::")[-1] in (
                       tested_members if "::" in function else tested)})


def top_level_statements(body):
    """Splits a struct body into its top-level `;`-terminated statements.
    A brace block that follows a function signature or opens a nested
    type is dropped with its statement; a brace initialiser stays part of
    its member's statement."""
    statements, current, depth, skipping = [], "", 0, False
    for ch in body:
        if depth == 0 and ch == "{":
            head = ACCESS.sub("", current.strip())
            skipping = "(" in head or re.match(
                r"(?:struct|class|enum|union)\b", head) is not None
            depth = 1
            if not skipping:
                current += ch
            continue
        if depth > 0:
            depth += (ch == "{") - (ch == "}")
            if depth == 0 and skipping:
                current = ""
            elif not skipping:
                current += ch
            continue
        if ch == ";":
            statements.append(current)
            current = ""
        else:
            current += ch
    return statements


def option_fields(header_text):
    """Yields (struct, field) for each data member of every *Options /
    *Config struct defined in `header_text`."""
    text = COMMENT.sub("", header_text)
    for match in OPTION_STRUCT.finditer(text):
        start, depth = match.end() - 1, 0
        for end in range(start, len(text)):
            depth += (text[end] == "{") - (text[end] == "}")
            if depth == 0:
                break
        for statement in top_level_statements(text[start + 1:end]):
            decl = ACCESS.sub("", statement.strip())
            if not decl or re.match(
                    r"(?:static|using|typedef|friend|template)\b", decl):
                continue
            # Drop template arguments, so std::function<void(int)> f is
            # still a data member.
            declarator = strip_templates(
                re.split(r"[={]", decl, maxsplit=1)[0])
            if "(" in declarator or "operator" in declarator:
                continue  # a function or constructor declaration
            names = re.findall(r"[A-Za-z_]\w*", declarator)
            if len(names) >= 2:  # a type, then the member name
                yield match.group(1), names[-1]


def unset_option_fields(headers, setters):
    """The *Options / *Config fields no setter assigns.

    `headers` maps a header path to its text, `setters` is an iterable of
    source texts. Returns sorted (header, "Struct.field") pairs."""
    assigned = set()
    for text in setters:
        for chain in ASSIGNED.findall(COMMENT.sub("", text)):
            assigned.update(re.findall(r"[A-Za-z_]\w*", chain))
    return sorted({(path, "%s.%s" % (struct, field))
                   for path, text in headers.items()
                   for struct, field in option_fields(text)
                   if field not in assigned})


def read_tree(top, suffixes):
    """Maps each file under ROOT/top with one of `suffixes` to its text,
    keyed by its path relative to ROOT."""
    out = {}
    for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
        for f in sorted(files):
            if f.endswith(suffixes):
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, ROOT)] = fh.read()
    return out


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

    headers = read_tree("src", (".h",))
    fields = sum(1 for text in headers.values() for _ in option_fields(text))
    setters = {}
    for top in ("examples", "bench", os.path.join("perfbench", "src")):
        setters.update(read_tree(top, (".h", ".cpp")))
    unset = unset_option_fields(headers, setters.values())
    print("reachability: %d of %d *Options/*Config fields in src/ are set "
          "by no example, bench or perfbench source (textual scan)"
          % (len(unset), fields))
    print_grouped(unset)

    sources = read_tree("src", (".h", ".cpp"))
    tests = read_tree("tests", (".h", ".cpp"))
    defined = len({(path, function) for path, text in headers.items()
                   for function in scan_definitions(text)[0]})
    test_only = test_only_functions(headers, sources.values(),
                                    setters.values(), tests.values())
    print("reachability: %d of %d functions defined in src/**/*.h are "
          "called from tests/ and from nowhere else (textual scan)"
          % (len(test_only), defined))
    print_grouped(test_only)
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
