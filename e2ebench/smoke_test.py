#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: every workload at smoke size.

    python3 e2ebench/smoke_test.py

Runs each workload untraced and traced on tiny inputs (seconds, once the
driver is built) and checks that every metric the benchmark defines is
reported with its unit and a sample count, that the layers each workload
exercises were actually measured, that error_rate is 0 and that the host
block is complete. It then checks that compare.py passes identical results,
flags a slower one and labels results from another host "not comparable".
Exits non-zero and lists what is wrong otherwise.
"""

import copy
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402  (build_dir only)

HOST_KEYS = ["nproc", "cpu_model", "simd_tier", "build_type", "compiler", "pool_threads",
             "daemon_workers"]

COMMON = ["setup_s", "wall_s", "peak_rss_mb", "error_rate"]
STREAMING = ["records_per_s", "decision_latency_p50_ms", "decision_latency_p99_ms"]
END_TO_END = {
    "city_live": COMMON + STREAMING,
    "corpus_forensics": COMMON + STREAMING + [
        "write_records_per_s", "lookup_p50_us", "lookup_p99_us", "screen_targets_per_s"],
    "campaign": COMMON + ["macro_f1"],
}

STREAM_LAYERS = [
    "stream.source_ms", "stream.driver_self_ms", "stream.sink_ms", "stream.batches",
    "stream.sessions", "stream.window_verdicts", "stream.final_verdicts",
    "stream.queue_high_water", "ml.predict_ms", "ml.predict_rows", "ml.predict_ns_per_row",
    "stream.par_eff", "ml.par_eff", "stream.wall_share", "ml.wall_share"]
# Per-layer metrics that must be measured (sample count >= 1) on each
# workload; the rest must still be reported, with a count of 0.
MEASURED_LAYERS = {
    "city_live": STREAM_LAYERS + [
        "lte.step_ms", "lte.step_p99_us", "lte.ue_events", "lte.subframes", "lte.par_eff",
        "lte.wall_share", "sniffer.decode_ms", "sniffer.records", "sniffer.paging",
        "sniffer.identity_confirmed", "sniffer.mapped_frac", "sniffer.wall_share"],
    "corpus_forensics": STREAM_LAYERS + [
        "tracestore.write_ms", "tracestore.bytes_per_record", "tracestore.open_us",
        "tracestore.files_opened", "tracestore.chunks_decoded", "tracestore.chunk_prune_frac",
        "tracestore.par_eff", "tracestore.wall_share", "dtw.rank_ms", "dtw.candidates",
        "dtw.full_dp", "dtw.pruned_frac", "dtw.dp_cells", "dtw.wall_share"],
    "campaign": [
        "ml.fit_ms", "ml.evaluate_ms", "ml.par_eff", "ml.wall_share", "features.window_ms",
        "features.windows", "features.wall_share", "attacks.collect_ms", "attacks.sessions",
        "attacks.decoded_dcis", "attacks.missed_dcis", "attacks.rnti_count",
        "attacks.par_eff", "attacks.wall_share"],
}
ALL_LAYERS = sorted({m for ms in MEASURED_LAYERS.values() for m in ms} | {"trace.overhead_frac"})


def check_run(workload: str, trace: int, problems: list) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit code {proc.returncode}")
        return {}
    result = json.loads((run.build_dir() / "results" /
                         f"{workload}-smoke-seed7-trace{trace}.json").read_text())
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{tag}: {result['failed']} of {result['attempted']} checks failed")
    missing_host = [k for k in HOST_KEYS if k not in result.get("host", {})]
    if missing_host:
        problems.append(f"{tag}: host block lacks {', '.join(missing_host)}")
    e2e = result["end_to_end"]
    for name in END_TO_END[workload]:
        m = e2e.get(name)
        if m is None or not m.get("unit") or m.get("n", 0) < 1:
            problems.append(f"{tag}: end-to-end {name} missing, unitless or without samples")
    if e2e.get("error_rate", {}).get("value") != 0:
        problems.append(f"{tag}: error_rate is not 0")
    if trace:
        layers = result["per_layer"]
        for name in ALL_LAYERS:
            m = layers.get(name)
            if m is None or not m.get("unit"):
                problems.append(f"{tag}: per-layer {name} missing or unitless")
            elif name in MEASURED_LAYERS[workload] + ["trace.overhead_frac"] and m["n"] < 1:
                problems.append(f"{tag}: per-layer {name} was not measured")
    return result


def check_compare(result: dict, problems: list) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    key = (result["workload"], result["size"])
    slower = copy.deepcopy(result)
    slower["end_to_end"]["wall_s"]["value"] *= 2
    other_host = copy.deepcopy(slower)
    other_host["host"]["nproc"] += 1

    def verdicts(new):
        rows, regressed = compare.compare({key: [result]}, {key: [new]}, bounds)
        return {row[1]: row[5] for row in rows}, regressed

    same, regressed = verdicts(result)
    if regressed or same.get("wall_s") != "ok":
        problems.append(f"compare: identical results judged {same}")
    worse, regressed = verdicts(slower)
    if not regressed or worse.get("wall_s") != "regression":
        problems.append(f"compare: doubled wall_s judged {worse}")
    foreign, regressed = verdicts(other_host)
    if regressed or not foreign.get("-", "").startswith("not comparable"):
        problems.append(f"compare: result from another host judged {foreign}")


def main() -> int:
    problems = []
    for workload in END_TO_END:
        for trace in (0, 1):
            result = check_run(workload, trace, problems)
            if result and not trace and workload == "campaign":
                check_compare(result, problems)
    for p in problems:
        print("FAIL", p)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
