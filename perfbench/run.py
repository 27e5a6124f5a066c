#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark program in perfbench/ (a module of
its own that compiles the repository's packages from source), runs one
workload, and passes the program's output through: the last line of
standard output is the JSON result. Everything the build and the run
write goes under the build directory, $CARGO_TARGET_DIR when set, else
.bench_build, inside the repository root.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper-batch", "tiny-batch", "serve", "suite")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root, skip):
    """sha256 over the program's Go sources and go.mod, in path order."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) not in skip)
        for f in filenames:
            if f.endswith(".go") or f == "go.mod":
                paths.append(os.path.join(dirpath, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode() + b"\0")
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def commit_of(root):
    """The git revision when the root is a git checkout, else 'unknown'."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="record this run's output digests as the pinned ones")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        die("run from the repository root: no go.mod and internal/ here, "
            "so there is no program to build")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    env = dict(os.environ)
    env.update({
        # Keep the Go build cache, temporary files and the toolchain's
        # own config writes inside the build directory.
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
    })
    for d in ("gocache", "tmp", "gopath", "config", "out"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("go build: %s" % e)
    if b.returncode != 0:
        die("go build failed (exit %d)" % b.returncode)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(build, "out"),
        "--golden", os.path.join(here, "golden.json"),
        "--commit", commit_of(root),
        "--source-digest", source_digest(root, {build, here}),
    ]
    if args.update_golden:
        cmd.append("--update-golden")
    try:
        r = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
