// Deterministic pseudo-random number generation for the simulator.
//
// Everything in this project that is stochastic draws from an Rng seeded
// explicitly by the caller, so experiments (and tests) are reproducible
// bit-for-bit across runs and platforms. The generator is xoshiro256**,
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace ltefp {

/// One stateless SplitMix64 step: adds the golden gamma to x and returns
/// the finalised mix. The building block for hashing structured task
/// coordinates into seeds.
std::uint64_t splitmix64_mix(std::uint64_t x);

/// Hash-combines the parts into one seed by chaining SplitMix64 steps.
/// Used to derive per-task RNG streams as a pure function of coordinates
/// like (config seed, app, session index, day) — no shared mutable RNG
/// state, so parallel task order cannot reshuffle anyone's stream.
std::uint64_t derive_seed(std::initializer_list<std::uint64_t> parts);

/// xoshiro256** PRNG with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also be handed to
/// <random> facilities, but the member helpers below avoid libstdc++
/// distribution differences and keep results stable.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Derives an independent child generator; used to give each simulated
  /// entity (UE, app, cell) its own stream so adding one entity does not
  /// perturb the draws seen by the others.
  Rng fork();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal via Box-Muller (cached pair member not used: stateless).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with the given *underlying* normal parameters.
  double lognormal(double mu, double sigma);

  /// Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint32_t poisson(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniformly chosen index into a container of the given size. Requires size > 0.
  std::size_t index(std::size_t size);

  /// The rejection bounds of `index(size)`, computed once for a loop that
  /// draws many indices from one size: `index(bounds)` then skips a 64-bit
  /// division per draw and returns exactly what `index(size)` would.
  struct IndexBounds {
    explicit IndexBounds(std::uint64_t size);  // requires size > 0
    std::uint64_t range;
    std::uint64_t limit;  // largest multiple of range <= max(); draws >= it are redrawn
  };
  std::size_t index(const IndexBounds& bounds);

  /// Uniformly chosen element.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[index(i + 1)]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace ltefp
