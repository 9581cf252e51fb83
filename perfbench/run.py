#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload udp-get-zipf --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
server from the repository root, so it is built from source on every run.
Build caches, the binary, WAL files and span dumps all live under
.bench_build/ in the repository root; nothing is written elsewhere. The last
line of standard output is the result JSON; see perfbench/BENCHMARK.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """Names the source revision: git's commit when there is one, otherwise
    a digest of the repository's Go sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if r.returncode != 0:
        sys.exit("perfbench: build failed (the benchmark needs the repository's Go module at its root)")
    return binary


def main():
    binary = build()
    args = [binary, *sys.argv[1:],
            "-workdir", os.path.join(BUILD, "work"),
            "-commit", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
