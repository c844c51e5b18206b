#include "src/common/rng.hpp"

#include <cmath>
#include <numbers>

#include "src/common/fnv.hpp"

namespace soc {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::string_view name) const {
  return Rng(seed_ ^ fnv1a(name) ^ 0x9e3779b97f4a7c15ull);
}

Rng Rng::fork(std::uint64_t key) const {
  SplitMix64 sm(key + 0x632be59bd9b4e019ull);
  return Rng(seed_ ^ sm.next());
}

double Rng::uniform() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SOC_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SOC_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling for an unbiased draw.
  const std::uint64_t limit = (~0ull) - (~0ull) % span;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % span);
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  SOC_DCHECK(mean > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
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

std::size_t Rng::pick_index(std::size_t size) {
  SOC_CHECK(size > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size - 1)));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all.begin(), all.end());
  if (k < n) all.resize(k);
  return all;
}

}  // namespace soc
