#!/usr/bin/env bash
# tools/check.sh — the one-command gate for this repo.
#
# Runs, in order, each as a named step that fails the whole script:
#   1. configure + build with LTEFP_WERROR=ON (warnings are errors) and
#      LTEFP_LINT=ON (ltefp-lint runs as part of the build)
#   2. ltefp-lint over src/ tools/ bench/ tests/ (explicit, for a clear log;
#      prints per-rule finding counts + wall time and writes a machine-
#      readable report to build-check/lint-findings.json)
#   3. the tier-1 ctest suite (including the `golden` output digests), then
#      the forced-scalar suites and the CLI smokes (synth -> scan, a
#      negative replay --speed rejected, an unknown flag rejected, live
#      synth, train -> collect -> classify, stream verdicts identical at
#      1/2/4 workers) and e2ebench/smoke_test.py
#   4. when the compiler supports them: the ASan+UBSan decoder and trainer
#      suites and the TSan parallel/attack/trainer suites (skip with
#      --no-sanitizers)
#
# Modes:
#   tools/check.sh              full gate
#   tools/check.sh --format     clang-format --dry-run --Werror only (no-op
#                               with a notice if clang-format is missing)
#   tools/check.sh --no-sanitizers    skip step 4
#   tools/check.sh --sanitizers-only  only step 4 (CI runs 1-3 as its own
#                                     named steps)
#   tools/check.sh --bench      build bench_micro (default config, matching
#                               the committed baseline) and diff its tracked
#                               benchmarks' ns/op against BENCH_micro.json
#                               (tools/bench_diff.py); prints NEW/MISSING/ok
#                               per entry and WARNS on >25% regressions, or
#                               "not comparable" when the baseline's host
#                               block differs (never fails — this VM's
#                               wall clock is noisy; treat warnings as a
#                               prompt to re-run and investigate)
#   tools/check.sh --bench-update   same run, then rewrite BENCH_micro.json
#                                   with the fresh numbers (commit it)
#
# Exits non-zero on the first failing step.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

step() { printf '\n=== %s ===\n' "$*"; }

format_mode=0
sanitizers=1
main_gate=1
bench_mode=0
bench_update=0
for arg in "$@"; do
  case "$arg" in
    --format) format_mode=1 ;;
    --no-sanitizers) sanitizers=0 ;;
    --sanitizers-only) main_gate=0 ;;
    --bench) bench_mode=1 ;;
    --bench-update) bench_mode=1; bench_update=1 ;;
    *)
      echo "usage: tools/check.sh [--format] [--no-sanitizers] [--sanitizers-only] [--bench] [--bench-update]" >&2
      exit 2
      ;;
  esac
done

# The benchmark set tracked in BENCH_micro.json. Anchored: adding a new
# benchmark to bench_micro does not silently change this gate — extend the
# filter (and refresh the baseline) deliberately. The city benches pin
# their iteration counts, which google-benchmark puts in their names.
BENCH_FILTER='^BM_Crc16/(4|16384)$|^BM_DciEncodeDecode$|^BM_SnifferSubframe/16$|^BM_Dtw/180$|^BM_DtwBestMatch/[01]$|^BM_RandomForestTrain/5000$|^BM_RandomForestPredictBatch$|^BM_RandomForestPredictBatchScalar$|^BM_RandomForestPredictSmall/(1|2|8)$|^BM_DatasetMatrixBuild/5000$|^BM_RandomForestTrainPar/5000/(1|2|4)$|^BM_DtwMatrixPar/24/(1|2|4)$|^BM_BlindDecodeBatchPar/0/(1|2|4)$|^BM_CollectTracesPar/4/(1|2|4)$|^BM_CollectAllTraces/(1|4)$|^BM_SpscQueue$|^BM_StreamIngest/(1|2|4)$|^BM_StreamVerdictLatency$|^BM_StreamReplaySparse/(1|4)$|^BM_TraceStoreWrite/20000$|^BM_TraceStoreRead/20000$|^BM_CorpusOpen$|^BM_CorpusRangeScan$|^BM_CorpusFullDecode$|^BM_SimStep/1000/iterations:50000$|^BM_SimStep/100000/iterations:400$|^BM_SimStepRef/1000/iterations:6000$|^BM_SimStepRef/100000/iterations:50$|^BM_SimStepPar/8/(1|2|4)/iterations:100$|^BM_SimStepSparse/(1|4)/iterations:200000$'

run_bench() {
  step "bench build (default config, as the committed baseline)"
  cmake -B "$ROOT/build-bench" -S "$ROOT" >/dev/null
  cmake --build "$ROOT/build-bench" -j"$JOBS" --target bench_micro

  step "bench run (tracked set)"
  local fresh="$ROOT/build-bench/bench_micro_fresh.json"
  "$ROOT/build-bench/bench/bench_micro" \
    --benchmark_filter="$BENCH_FILTER" --json "$fresh"

  step "bench diff vs BENCH_micro.json (warn > 25%)"
  # Same host rule as e2ebench/compare.py: a baseline from another host is
  # "not comparable", never a regression.
  python3 "$ROOT/tools/bench_diff.py" "$ROOT/BENCH_micro.json" "$fresh"

  if [[ "$bench_update" == 1 ]]; then
    step "refreshing BENCH_micro.json"
    cp "$fresh" "$ROOT/BENCH_micro.json"
    echo "baseline rewritten; review and commit it"
  fi
}

if [[ "$bench_mode" == 1 ]]; then
  run_bench
  exit 0
fi

run_format() {
  step "clang-format (dry run)"
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "clang-format not found; skipping format check"
    return 0
  fi
  find "$ROOT/src" "$ROOT/tools" "$ROOT/bench" "$ROOT/tests" "$ROOT/examples" \
    \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 clang-format --dry-run --Werror
  echo "format clean"
}

if [[ "$format_mode" == 1 ]]; then
  run_format
  exit 0
fi

# Probe whether a sanitizer actually links and runs in this toolchain/container.
sanitizer_works() {
  local flag="$1" tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  echo 'int main() { return 0; }' > "$tmp/probe.cpp"
  c++ "$flag" -o "$tmp/probe" "$tmp/probe.cpp" >/dev/null 2>&1 &&
    "$tmp/probe" >/dev/null 2>&1
}

if [[ "$main_gate" == 1 ]]; then
  step "configure (LTEFP_WERROR=ON LTEFP_LINT=ON)"
  cmake -B "$ROOT/build-check" -S "$ROOT" -DLTEFP_WERROR=ON -DLTEFP_LINT=ON

  step "build (warnings are errors; lint runs as a build step)"
  cmake --build "$ROOT/build-check" -j"$JOBS"

  step "ltefp-lint (per-rule counts, wall time, JSON report)"
  "$ROOT/build-check/tools/lint/ltefp-lint" --root "$ROOT" --stats \
    --json "$ROOT/build-check/lint-findings.json" src tools bench tests

  step "tier-1 tests"
  ctest --test-dir "$ROOT/build-check" -j"$JOBS" --output-on-failure

  step "forced-scalar tests (LTEFP_FORCE_SCALAR=1, SIMD kernel suites)"
  # Same binaries, scalar dispatch tier: proves every vectorized kernel's
  # portable fallback still matches its pinned results (the tiers are
  # bit-identical by contract, see common/cpu.hpp).
  LTEFP_FORCE_SCALAR=1 ctest --test-dir "$ROOT/build-check" -j"$JOBS" \
    --output-on-failure -R 'FlatForest|Dtw|Stream|Columnar'

  step "synth -> range-scan -> verify smoke, replay --speed check (ltefp CLI)"
  # End-to-end over the v2 corpus path: generate a deterministic sharded
  # compressed corpus, slice it by time, and cross-check the pruned scan
  # against a brute-force full decode (scan --verify throws on mismatch).
  smoke_dir="$ROOT/build-check/synth_smoke"
  rm -rf "$smoke_dir"
  "$ROOT/build-check/tools/ltefp" synth --out "$smoke_dir" --seed 5 \
    --cells 2 --hours 3 --ues 4 --shard 2 --compress true
  "$ROOT/build-check/tools/ltefp" scan --corpus "$smoke_dir" \
    --t0 3600000 --t1 3900000 --cell 1 --verify true
  "$ROOT/build-check/tools/ltefp" scan --corpus "$smoke_dir" \
    --t0 0 --t1 10800000 --app 0 --verify true
  # The replay pacer takes only a positive --speed: a negative one exits 1
  # with a diagnostic before any record is replayed.
  replay_rc=0
  "$ROOT/build-check/tools/ltefp" replay --corpus "$smoke_dir" --speed -1 || replay_rc=$?
  if [[ "$replay_rc" != 1 ]]; then
    echo "ltefp replay --speed -1 exited $replay_rc, expected 1" >&2
    exit 1
  fi
  rm -rf "$smoke_dir"

  step "CLI flag check (an unknown flag, or one with no value, is an error naming it)"
  # A misspelt flag must not fall back to its default silently, and a bare
  # flag is named even when it is not the last argument.
  flag_err="$ROOT/build-check/unknown_flag.err"
  if "$ROOT/build-check/tools/ltefp" synth --out "$smoke_dir" --shardz 5 \
      --cells 1 --hours 1 --ues 1 2>"$flag_err"; then
    echo "ltefp synth accepted the unknown flag --shardz" >&2
    exit 1
  fi
  cat "$flag_err"
  grep -q -- '--shardz' "$flag_err"
  if [[ -e "$smoke_dir" ]]; then
    echo "ltefp synth wrote output despite an unknown flag" >&2
    exit 1
  fi
  if "$ROOT/build-check/tools/ltefp" scan --verify --corpus "$smoke_dir" 2>"$flag_err"; then
    echo "ltefp scan accepted --verify with no value" >&2
    exit 1
  fi
  cat "$flag_err"
  grep -q -- 'missing value for --verify' "$flag_err"
  rm -f "$flag_err"

  step "live-engine synth smoke (city event engine -> scan --verify)"
  # Same corpus contract, but every record comes out of the timer-wheel
  # simulation core (real RACH/paging/handovers) instead of the procedural
  # generator. scan --verify cross-checks the pruned index against a
  # brute-force decode of what the live engine produced.
  live_dir="$ROOT/build-check/synth_live_smoke"
  rm -rf "$live_dir"
  "$ROOT/build-check/tools/ltefp" synth --live true --out "$live_dir" \
    --seed 7 --cells 3 --hours 1 --ues 6 --sessions 20
  "$ROOT/build-check/tools/ltefp" scan --corpus "$live_dir" \
    --t0 0 --t1 3600000 --verify true
  rm -rf "$live_dir"

  step "train -> collect -> classify smoke (ltefp CLI)"
  # The attack as a user runs it: a small model, a fresh capture, and a
  # verdict that must name the captured app.
  cli_dir="$ROOT/build-check/cli_smoke"
  rm -rf "$cli_dir"
  mkdir -p "$cli_dir"
  "$ROOT/build-check/tools/ltefp" train --traces 1 --minutes 0.5 --out "$cli_dir/model.rf"
  "$ROOT/build-check/tools/ltefp" collect --app YouTube --minutes 0.5 --out "$cli_dir/yt.csv"
  verdict="$("$ROOT/build-check/tools/ltefp" classify --model "$cli_dir/model.rf" \
    --trace "$cli_dir/yt.csv")"
  echo "$verdict"
  if [[ "$verdict" != "YouTube (Streaming)"* ]]; then
    echo "classify smoke: expected a YouTube (Streaming) verdict" >&2
    exit 1
  fi
  rm -rf "$cli_dir"

  step "stream determinism smoke (ltefp stream at 1, 2 and 4 workers)"
  # The verdict CSV is a pure function of the corpus and the model, so the
  # replay must be byte-identical at every worker count. Corpus lanes are
  # seqs that stride by the hour count; the lanes live in one hour shard by
  # a hash of the lane, so 2 and 4 workers split them differently.
  stream_dir="$ROOT/build-check/stream_smoke"
  rm -rf "$stream_dir"
  mkdir -p "$stream_dir"
  "$ROOT/build-check/tools/ltefp" synth --out "$stream_dir/corpus" --cells 4 --hours 4
  "$ROOT/build-check/tools/ltefp" train --traces 1 --minutes 0.5 --out "$stream_dir/model.rf"
  for n in 1 2 4; do
    "$ROOT/build-check/tools/ltefp" stream --corpus "$stream_dir/corpus" \
      --model "$stream_dir/model.rf" --workers "$n" --out "$stream_dir/v$n.csv"
  done
  cmp "$stream_dir/v1.csv" "$stream_dir/v2.csv"
  cmp "$stream_dir/v1.csv" "$stream_dir/v4.csv"
  rm -rf "$stream_dir"

  step "end-to-end benchmark smoke (e2ebench/smoke_test.py)"
  # Every workload at smoke size, untraced and traced, with its output
  # oracles (error_rate 0); builds the benchmark driver on first use.
  python3 "$ROOT/e2ebench/smoke_test.py"
fi

if [[ "$sanitizers" == 1 ]]; then
  if sanitizer_works -fsanitize=address; then
    step "ASan+UBSan decoder and trainer suites"
    cmake -B "$ROOT/build-asan" -S "$ROOT" -DLTEFP_SANITIZE=address >/dev/null
    cmake --build "$ROOT/build-asan" -j"$JOBS"
    ctest --test-dir "$ROOT/build-asan" -j"$JOBS" --output-on-failure \
      -R 'TraceStore|Trace|Sniffer|Csv|MappedV2|BlockCodec|MmapToggle|CorpusV2|Synth|Varint|ColumnarTrainer'
  else
    echo "ASan unavailable in this toolchain; skipping"
  fi
  if sanitizer_works -fsanitize=thread; then
    step "TSan parallel/attack/trainer suites"
    cmake -B "$ROOT/build-tsan" -S "$ROOT" -DLTEFP_SANITIZE=thread >/dev/null
    cmake --build "$ROOT/build-tsan" -j"$JOBS"
    LTEFP_THREADS=4 ctest --test-dir "$ROOT/build-tsan" -j"$JOBS" --output-on-failure \
      -R 'Parallel|BitIdentity|Attack|Stream|Spsc|CityEngine|Mobility|ColumnarTrainer'
  else
    echo "TSan unavailable in this toolchain; skipping"
  fi
fi

step "all checks passed"
