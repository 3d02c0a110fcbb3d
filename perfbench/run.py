#!/usr/bin/env python3
"""Build the rair benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload quad8-hot --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the span files all live under
.bench_build/ in the repository root, so nothing is written elsewhere.
Every argument is passed on to the perfbench binary; see perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """Environment that keeps the Go toolchain's caches inside BUILD."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off", GOPROXY="off")
    return env


def commit():
    """HEAD's commit when the root is a git work tree, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the Go sources and module files, hidden dirs skipped."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(
        ["go", "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["-commit", commit(), "-source", source_digest(),
                           "-out", os.path.join(BUILD, "perfbench")]
    # Replace this process, so signals reach the benchmark directly.
    os.chdir(ROOT)
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
