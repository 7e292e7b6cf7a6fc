#!/usr/bin/env python3
"""Build the overlay stack from source and run one wallbench workload.

Usage, from the root of a checkout:

    python3 _wallbench/run.py --workload build|serve|churn --seed N \
        --seconds S --trace 0|1
    python3 _wallbench/run.py --test        # the benchmark's own tests

The repository's dune project does not see this directory (dune skips
directories whose name starts with "_"), so the benchmark is a dune
project of its own.  This script stages it next to a copy of the
repository's lib/ sources in _wallbench/_stage, builds it there, and
runs the benchmark program, whose standard output it passes through
unchanged: "#" lines with the set-up record, notes and checks, then one
JSON result line.

Everything is read and written inside the checkout; dune's shared cache
is disabled.  Without the repository's lib/ next to this directory the
script exits 3 before printing anything.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAGE = os.path.join(HERE, "_stage")
OUT = os.path.join(HERE, "_out")
SOURCE_SUFFIXES = (".ml", ".mli")


def die(msg, code=3):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files(tree):
    """Relative paths of the dune and OCaml source files under tree."""
    found = []
    for dirpath, dirnames, filenames in os.walk(tree):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        for name in sorted(filenames):
            if name == "dune" or name.endswith(SOURCE_SUFFIXES):
                found.append(os.path.relpath(os.path.join(dirpath, name), tree))
    return found


def sync(src, dst):
    """Mirror src's source files into dst, rewriting only changed files
    so that dune's incremental build stays warm."""
    wanted = set(source_files(src))
    for rel in wanted:
        s, d = os.path.join(src, rel), os.path.join(dst, rel)
        with open(s, "rb") as f:
            data = f.read()
        try:
            with open(d, "rb") as f:
                if f.read() == data:
                    continue
        except OSError:
            pass
        os.makedirs(os.path.dirname(d), exist_ok=True)
        with open(d, "wb") as f:
            f.write(data)
    if os.path.isdir(dst):
        for rel in source_files(dst):
            if rel not in wanted:
                os.remove(os.path.join(dst, rel))


def stage():
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        die("no lib/ beside %s: run it from the root of a checkout of the repository" % HERE)
    os.makedirs(STAGE, exist_ok=True)
    sync(lib, os.path.join(STAGE, "lib"))
    sync(os.path.join(HERE, "src"), os.path.join(STAGE, "bench"))
    sync(os.path.join(HERE, "test"), os.path.join(STAGE, "test"))
    for name, src in (("dune-project", os.path.join(HERE, "dune-project")),
                      ("BENCHMARK.json", os.path.join(ROOT, "BENCHMARK.json"))):
        if os.path.isfile(src):
            shutil.copyfile(src, os.path.join(STAGE, name))


def dune(*args):
    cmd = ["dune", *args, "--root", STAGE, "--profile", "release", "--cache=disabled"]
    try:
        # dune reports on stderr; keep stdout for the benchmark result.
        return subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        die("cannot run dune: %s" % e)


def commit():
    """The checkout's HEAD commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Digest of every source file the benchmark builds from."""
    h = hashlib.sha256()
    for tree in (os.path.join(ROOT, "lib"), os.path.join(HERE, "src")):
        for rel in source_files(tree):
            h.update(rel.encode() + b"\0")
            with open(os.path.join(tree, rel), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    stage()
    if argv == ["--test"]:
        sys.exit(1 if dune("build", "@runtest", "--force") else 0)
    if dune("build", "./bench/main.exe"):
        die("build failed")
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(STAGE, "_build", "default", "bench", "main.exe")
    cmd = [exe, *argv, "--commit", commit(), "--source", source_digest(), "--chrome-dir", OUT]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
