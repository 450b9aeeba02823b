#!/usr/bin/env python3
"""Compares end-to-end results of two builds, workload by workload.

    python3 e2ebench/compare.py --base base/*.json --new new/*.json

Each argument is a result file written by run.py (<build dir>/results/
<workload>-<size>-seed<seed>-trace0.json). Files are grouped by workload
and size; each side's value of a metric is the median over its files. A
metric with a bound in BENCHMARK.json is a "regression" when the new median
is worse than the base median by more than that bound, and "ok" otherwise;
the workload-specific metrics are listed with their change only.

Results are compared only when every file on both sides carries the same
host block (CPU, core count, SIMD tier, build type, compiler, threads).
Otherwise the workload is labelled "not comparable", never a regression.
Exits 1 when any bounded metric regressed, 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(paths):
    """Untraced results grouped by (workload, size)."""
    groups = {}
    for path in paths:
        result = json.loads(pathlib.Path(path).read_text())
        if result.get("trace"):
            continue
        groups.setdefault((result["workload"], result.get("size", "full")), []).append(result)
    return groups


def host_key(result):
    return json.dumps(result["host"], sort_keys=True)


def compare(base, new, bounds):
    """Rows (workload, metric, base, new, change, verdict); True if a bounded metric regressed."""
    rows, regressed = [], False
    for key in sorted(base.keys() | new.keys()):
        workload = "/".join(key)
        b, n = base.get(key, []), new.get(key, [])
        if not b or not n:
            rows.append((workload, "-", "", "", "", "missing on one side"))
            continue
        if len({host_key(r) for r in b + n}) > 1:
            rows.append((workload, "-", "", "", "", "not comparable: host blocks differ"))
            continue
        for name in b[0]["end_to_end"]:
            if not all(name in r["end_to_end"] for r in n):
                rows.append((workload, name, "", "", "", "missing on new side"))
                continue
            bv = statistics.median(r["end_to_end"][name]["value"] for r in b)
            nv = statistics.median(r["end_to_end"][name]["value"] for r in n)
            change = (nv - bv) / bv if bv else 0.0
            verdict = "no bound"
            if name in bounds:
                better, bound = bounds[name]
                worse_by = change if better == "lower" else -change
                verdict = "regression" if worse_by > bound else "ok"
                regressed |= verdict == "regression"
            rows.append((workload, name, f"{bv:.6g}", f"{nv:.6g}", f"{change:+.1%}", verdict))
    return rows, regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base build")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the new build")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rows, regressed = compare(load(args.base), load(args.new), bounds)
    header = ("workload", "metric", "base", "new", "change", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
