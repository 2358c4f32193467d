#!/usr/bin/env python3
"""Build and run the fcrit end-to-end benchmark.

    python3 perfbench/run.py --workload <train_ee_zonal|label_gen|score_mixed>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library plus the driver (Release, out of tree, under $CARGO_TARGET_DIR or
.bench_build); later runs rebuild incrementally. The driver's stdout is
passed through: a full report line, then the result line
{"correct", "attempted", "failed", "metrics"} last. Build output goes to
stderr. Exits non-zero, printing no result, when the sources are missing or
the build or run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_ee_zonal", "label_gen", "score_mixed")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "bench" / "bench_common.hpp"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def build(build_dir):
    """Configure once, then build incrementally; serialized by a lock."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                        "--target", "fcrit_perfbench"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "fcrit_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for required in ("src/CMakeLists.txt", "bench/bench_common.hpp",
                     "perfbench/CMakeLists.txt"):
        if not (ROOT / required).is_file():
            fail(f"{required} is missing; run from a full fcrit checkout", 3)

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    workdir = build_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--git-rev", git_rev(),
           "--src-digest", source_digest()]
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("driver printed no result line")
    print("\n".join(lines[:-1]))
    print(f"perfbench: {args.workload} seed {args.seed} ran in "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
