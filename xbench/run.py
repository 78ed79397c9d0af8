#!/usr/bin/env python3
"""Build and run the X-RDMA benchmark.

    python3 xbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
xbench/ (the xrdma library from src/ plus the xbench program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the JSON result of xbench. The exit code is that of xbench, or
non-zero without a result when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("rpc_small", "storage_rw", "conn_churn")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "xbench"


def build() -> Path:
    """Configure (once) and build; returns the xbench binary."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    if cache.exists() and home not in cache.read_text().splitlines():
        shutil.rmtree(out)  # configured from another checkout
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(3, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "xbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small op counts, for the benchmark's own tests")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"xbench: build failed: {e}", file=sys.stderr)
        return 2

    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("xbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
