#!/usr/bin/env python3
"""Diffs a bench_micro --json run against the committed baseline.

    python3 tools/bench_diff.py BENCH_micro.json fresh.json

Rows are matched by name. Each fresh row prints NEW (no baseline row), ok,
or REGRESSION (ns/op more than 25 % above the baseline); each baseline row
the run did not produce prints MISSING. A regression is a warning: the exit
status is 0 either way, since wall-clock numbers on a shared VM are noisy.

The two files are compared only when their host blocks are equal, by the
same rule e2ebench/compare.py applies to end-to-end results. Otherwise the
diff prints "not comparable: host blocks differ" and the fields that
differ, and gives no verdicts.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in e2ebench/
sys.path.insert(0, str(ROOT / "e2ebench"))
from compare import host_key  # noqa: E402

REGRESSION_PCT = 25.0


def load(path):
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict):  # written before runs carried a host block
        data = {"rows": data}
    data.setdefault("host", None)
    return data


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, fresh = load(sys.argv[1]), load(sys.argv[2])
    if host_key(base) != host_key(fresh):
        print("not comparable: host blocks differ")
        b, f = base["host"] or {}, fresh["host"] or {}
        for field in sorted(b.keys() | f.keys()):
            if b.get(field) != f.get(field):
                print(f"  {field}: {b.get(field)!r} (baseline) vs {f.get(field)!r} (this run)")
        return 0

    base_ns = {r["name"]: r["ns_per_op"] for r in base["rows"]}
    fresh_names = {r["name"] for r in fresh["rows"]}
    warned = 0
    for row in fresh["rows"]:
        name, ns = row["name"], row["ns_per_op"]
        if name not in base_ns:
            print(f"NEW         {name:<34} {ns:14.0f} ns/op (no baseline)")
            continue
        pct = (ns - base_ns[name]) / base_ns[name] * 100.0
        label = "REGRESSION" if pct > REGRESSION_PCT else "ok"
        warned += label == "REGRESSION"
        print(f"{label:<11} {name:<34} {base_ns[name]:14.0f} -> {ns:.0f} ns/op ({pct:+.1f}%)")
    for row in base["rows"]:
        if row["name"] not in fresh_names:
            print(f"MISSING     {row['name']:<34} (in baseline, not produced)")
    if warned:
        print(f"\nWARNING: {warned} benchmark(s) regressed more than 25% vs the committed baseline")
    else:
        print("\nno regressions beyond 25%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
