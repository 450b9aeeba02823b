#!/usr/bin/env python3
"""Runs one workload of the end-to-end attack benchmark.

    python3 e2ebench/run.py --workload city_live --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. On first use it builds the library and
the benchmark driver from source into $CARGO_TARGET_DIR (default
.bench_build/), which takes a few minutes; later runs only check the build.
The driver's tables pass through to standard output, the whole result (host
block, every metric with unit and sample count, layer budget) is written to
<build dir>/results/<workload>-<size>-seed<seed>-trace<trace>.json, and the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(out: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"e2ebench: library sources not found at {ROOT / 'src'}")
    cmake_dir = out / "e2ebench"
    try:
        if not (cmake_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir), *generator],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")
    return cmake_dir / "e2ebench"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    out = build_dir()
    exe = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--work", str(out / "work"), "--spans", str(results / f"{stem}.spans.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"e2ebench: {args.workload} failed (exit code {proc.returncode})")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = result[section].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"e2ebench: {args.workload} did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
