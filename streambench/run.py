#!/usr/bin/env python3
"""Build and run the streamha benchmark.

Run from the root of a streamha checkout:

    python3 streambench/run.py --workload steady-hybrid --seed 1 --seconds 20 --trace 0
    python3 streambench/run.py --selfcheck

The Go benchmark in this directory is its own module; it compiles the
streamha packages from the checkout's source (go.mod's replace directive)
into .bench_build/, with the Go build cache and module paths kept there too,
so nothing is read or written outside the checkout. The last line of
standard output is the benchmark's JSON result. Without the streamha
source next to this directory the build fails and the script exits non-zero
without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "streambench"
# Per-run limits: the first build in a fresh checkout compiles the standard
# library into the local cache; a run itself ends well within its limit.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": str(BUILD / "gocache"),
            "GOPATH": str(BUILD / "gopath"),
            "GOMODCACHE": str(BUILD / "gopath" / "pkg" / "mod"),
            "XDG_CONFIG_HOME": str(BUILD / "config"),
            "GOFLAGS": "-mod=readonly",
            "GOPROXY": "off",
            "GOWORK": "off",
            "GOTOOLCHAIN": "local",
            "GOTELEMETRY": "off",
            "CGO_ENABLED": "0",
        }
    )
    return env


def source_sha():
    """Hash of the Go sources under test (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        files += [Path(dirpath) / f for f in filenames if f.endswith((".go", ".mod"))]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal").is_dir():
        sys.exit("streambench: no streamha source next to %s; nothing to build" % HERE)
    BUILD.mkdir(exist_ok=True)
    try:
        subprocess.run(
            ["go", "build", "-o", str(BINARY), "."],
            cwd=HERE,
            env=go_env(),
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("streambench: build failed: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")

    build()
    cmd = [str(BINARY), "-sha", git_sha(), "-source-sha", source_sha()]
    if args.selfcheck:
        cmd.append("-selfcheck")
        timeout = 30 * RUN_TIMEOUT_S
    else:
        cmd += ["-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds), "-trace", str(args.trace)]
        timeout = RUN_TIMEOUT_S
    try:
        # subprocess.run kills and reaps the child if the timeout expires.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("streambench: run exceeded %d s" % timeout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
