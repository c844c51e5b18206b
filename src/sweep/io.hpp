// Helpers shared by the sweep subsystem's files (shard results, manifest,
// merged report), on top of the src/common/json codec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/json.hpp"

namespace soc::sweep {

using json::read_file;
using json::write_atomic;

/// A spec fingerprint as the 16 hex digits the sweep files store, and
/// back (nullopt unless `text` is exactly 16 hex digits).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);
[[nodiscard]] std::optional<std::uint64_t> parse_fingerprint_hex(
    std::string_view text);

}  // namespace soc::sweep
