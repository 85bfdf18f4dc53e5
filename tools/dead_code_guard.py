#!/usr/bin/env python3
"""Fails when a dyhsl:: function defined in src/ is linked by no binary.

    python3 tools/dead_code_guard.py [build_dir]

Builds every bench_* and example_* binary (tests off) and perfbench's
serving_bench (through perfbench/CMakeLists.txt) at -O0 with
-ffunction-sections and --gc-sections: each function gets its own section,
which a binary keeps only if it reaches the function. -O0 keeps callers
visible; at -O2 a caller inlined everywhere looks unreached. A kept section
is a symbol defined in the binary, so a function is dead when its mangled
name (shared by template and COMDAT copies across objects) is in no
binary's symbol table. --print-gc-sections logs each removed section to
<build_dir>/build.log.

Functions kept for tests on purpose (reference oracles, contract
accessors) are listed in tools/dead_code_allowlist.txt, one mangled name
and a reason per line. An entry that names no dead function fails too.
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "dead_code_allowlist.txt")
FLAGS = ["-DCMAKE_BUILD_TYPE=None", "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections,--print-gc-sections"]


def build(src, out, log, configure, targets):
    for cmd in (["cmake", "-S", src, "-B", out] + FLAGS + configure,
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 2)]
                + targets):
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            sys.exit("dead-code guard: build failed, see " + log.name)


def symbols(path, kinds):
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    return {p[2] for p in (l.split() for l in out.splitlines())
            if len(p) == 3 and p[1] in kinds}


def main():
    out = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                          else os.path.join(ROOT, "build-deadcode"))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "w") as log:
        build(ROOT, out, log, ["-DDYHSL_BUILD_TESTS=OFF"], [])
        build(os.path.join(ROOT, "perfbench"), os.path.join(out, "perfbench"),
              log, [], ["--target", "serving_bench"])
    binaries = (glob.glob(os.path.join(out, "bench_*")) +
                glob.glob(os.path.join(out, "example_*")) +
                [os.path.join(out, "perfbench", "serving_bench")])
    live = set().union(*(symbols(b, "TtWwVvuDdBbRr") for b in binaries))
    library = os.path.join(out, "libdyhsl_core.a")
    unlinked = sorted(symbols(library, "TtWw") - live)
    names = subprocess.run(["c++filt"], input="\n".join(unlinked), check=True,
                           capture_output=True, text=True).stdout.splitlines()
    dead = {m: n for m, n in zip(unlinked, names) if n.startswith("dyhsl::")}
    with open(ALLOWLIST) as f:
        allowed = dict(line.strip().partition(" ")[::2] for line in f
                       if line.strip() and not line.startswith("#"))
    failures = [f"unreached: {dead[m]}\n    {m}"
                for m in dead if m not in allowed]
    failures += [f"stale allowlist entry (not a dead function): {m}"
                 for m in allowed if m not in dead]
    failures += [f"allowlist entry without a reason: {m}"
                 for m, r in allowed.items() if not r.strip()]
    print(f"dead-code guard: {len(binaries)} binaries, {len(dead)} unreached "
          f"dyhsl:: functions, {len(allowed)} allowlisted")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
