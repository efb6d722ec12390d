#!/usr/bin/env python3
"""Builds the FlexCL benchmark from the checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Every argument is passed through to the flexcl_perfbench binary (see
perfbench/README.md). The first call configures and builds a Release build
under .bench_build/perfbench; later calls only let the build system check
that it is up to date. Build output goes to stderr, so the binary's last
stdout line is the JSON result. The exit code is the binary's, or 2 when
the sources or the build are missing.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "flexcl_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flexcl sources (src/CMakeLists.txt) in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                       stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the library sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    build()
    command = [BINARY] + sys.argv[1:]
    if "--store" not in command:
        command += ["--store", os.path.join(ROOT, ".bench_build", "serve-store")]
    command += ["--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.call(command, cwd=ROOT))


if __name__ == "__main__":
    main()
