// FNV-1a 64-bit: the repository's one content hash.  It names RNG streams
// (Rng::fork), derives sweep cell seeds, shard ids and spec fingerprints
// (src/sweep/), and fingerprints whole results
// (core::ExperimentResults::fingerprint, the golden trajectories).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace soc {

class Fnv1a {
 public:
  /// Raw bytes.
  Fnv1a& bytes(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return *this;
  }
  /// A string followed by its length, so adjacent fields cannot alias.
  Fnv1a& str(std::string_view s) { return bytes(s).u64(s.size()); }
  /// A 64-bit word as its 8 little-endian bytes.
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix((v >> (8 * i)) & 0xffu);
    return *this;
  }
  /// A double by its bit pattern.
  Fnv1a& f64(double d) { return u64(std::bit_cast<std::uint64_t>(d)); }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ull;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// FNV-1a of a byte string.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text) {
  return Fnv1a().bytes(text).value();
}

}  // namespace soc
