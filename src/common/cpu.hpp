// Runtime SIMD feature detection and dispatch-tier selection.
//
// Every vectorized kernel in the tree (the DTW anti-diagonal kernel in
// src/dtw, the flat-forest traversal and the tree trainer's split-search
// bucketing in src/ml) is compiled in up to three tiers — portable scalar, SSE2, AVX2 — and the one that runs is picked at
// RUN time through this shim, never at compile time alone. That keeps one
// binary correct on any x86-64 host (and non-x86 hosts, which always take
// scalar) while the AVX2 translation units are built with -mavx2 and only
// ever entered when the CPU reports the feature.
//
// The tiers are interchangeable by contract: every kernel family produces
// BIT-IDENTICAL results at every tier (same per-cell arithmetic, no
// reassociation across lanes that feeds an accumulator, no FMA
// contraction), pinned by tests that run each suite at each tier. Because
// of that, forcing a lower tier is always safe — and always testable:
//
//   LTEFP_FORCE_SCALAR=1   cap the tier at scalar (any value but "" / "0")
//   LTEFP_SIMD=scalar|sse2|avx2   cap the tier explicitly
//   set_simd_tier(...)     in-process override for tests, clamped to what
//                          the host can actually execute
//
// so CI exercises the non-AVX2 fallback paths on AVX2 hosts every run.
#pragma once

namespace ltefp {

/// Dispatch tiers, ordered: a tier implies every lower one.
enum class SimdTier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

const char* to_string(SimdTier tier);

/// Highest tier this CPU can execute (detected once, cached).
SimdTier detected_simd_tier();

/// The tier kernels must dispatch on: detected_simd_tier() capped by the
/// set_simd_tier override (if any), else by the LTEFP_FORCE_SCALAR /
/// LTEFP_SIMD environment (read once).
SimdTier simd_tier();

/// In-process override for tests: caps simd_tier() at `tier` (never raises
/// it above the detected ceiling — the host still has to execute the code).
void set_simd_tier(SimdTier tier);

/// Removes the set_simd_tier override; simd_tier() falls back to the
/// environment cap.
void clear_simd_tier_override();

/// Pure parser for the environment cap (exposed for tests): `force_scalar`
/// and `simd` are the raw values of LTEFP_FORCE_SCALAR and LTEFP_SIMD
/// (nullptr = unset). Returns the cap, kAvx2 when neither applies.
SimdTier simd_cap_from_env(const char* force_scalar, const char* simd);

}  // namespace ltefp
