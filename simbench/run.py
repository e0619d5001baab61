#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 simbench/run.py --workload m5_mcf --seed 7 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
simulator and the benchmark into $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build.  Build output goes
to stderr, so the last stdout line is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Per-run wall-clock cap: a measurement is --seconds plus at most a few
# simulated runs and the replay, far below this.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"simbench: no simulator sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "simbench", "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "simbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_dir.resolve())
    except subprocess.CalledProcessError as e:
        sys.exit(f"simbench: build failed: {e}")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"simbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
