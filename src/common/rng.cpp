#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace ltefp {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t splitmix64_mix(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::initializer_list<std::uint64_t> parts) {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t part : parts) seed = splitmix64_mix(seed ^ part);
  return seed;
}

Rng::Rng(std::uint64_t seed) {
  // Sequential SplitMix64 stream, exactly as before splitmix64_mix was
  // factored out: state_[i] = mix(seed + (i+1) * gamma).
  for (auto& s : state_) {
    s = splitmix64_mix(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
  // Avoid the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork() { return Rng((*this)()); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit span
  return lo + static_cast<std::int64_t>(index(IndexBounds(range)));
}

double Rng::uniform(double lo, double hi) {
  // 53 random mantissa bits -> [0,1).
  const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::uint32_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0u : static_cast<std::uint32_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = uniform();
  std::uint32_t n = 0;
  while (prod > limit) {
    ++n;
    prod *= uniform();
  }
  return n;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng::IndexBounds::IndexBounds(std::uint64_t size) : range(size), limit(max() - max() % range) {}

std::size_t Rng::index(std::size_t size) { return index(IndexBounds(size)); }

std::size_t Rng::index(const IndexBounds& bounds) {
  // Rejection sampling to remove modulo bias.
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= bounds.limit);
  return static_cast<std::size_t>(v % bounds.range);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

}  // namespace ltefp
