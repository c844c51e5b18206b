#include "src/sweep/shard.hpp"

#include <charconv>
#include <cstdio>

#include "src/sweep/io.hpp"

namespace soc::sweep {

std::vector<Shard> partition(const SweepSpec& spec, std::size_t shards_total) {
  SOC_CHECK(shards_total > 0);
  std::vector<Shard> shards(shards_total);
  for (std::size_t i = 0; i < shards_total; ++i) shards[i].id = i;
  // enumerate() yields cells sorted by key (canonical grid order), and a
  // stable append per shard preserves that order within each shard.
  for (SweepCell& cell : spec.enumerate()) {
    shards[shard_of(cell, shards_total)].cells.push_back(std::move(cell));
  }
  return shards;
}

std::string shard_path(const std::string& dir, std::size_t id) {
  return dir + "/shard-" + std::to_string(id) + ".json";
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::optional<std::uint64_t> parse_fingerprint_hex(std::string_view text) {
  std::uint64_t fp = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, fp, 16);
  if (text.size() != 16 || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return fp;
}

bool write_manifest(const std::string& dir, const Manifest& manifest) {
  json::Array shards;
  for (const ShardStatus& s : manifest.shards) {
    shards.push_back(
        json::Object{{"id", s.id}, {"cells", s.cells}, {"state", s.state}});
  }
  return json::save(
      manifest_path(dir),
      json::Object{{"sweep_manifest", std::uint64_t{1}},
                   {"spec_fingerprint",
                    fingerprint_hex(manifest.spec_fingerprint)},
                   {"spec", manifest.spec},
                   {"shards_total", manifest.shards_total},
                   {"shards", std::move(shards)}});
}

std::optional<Manifest> read_manifest(const std::string& dir) {
  const auto doc = json::load(manifest_path(dir));
  if (!doc.has_value()) return std::nullopt;
  json::Fields f(*doc);
  Manifest m;
  const auto fp = parse_fingerprint_hex(f.str("spec_fingerprint"));
  m.spec = f.str("spec");
  m.shards_total = f.u64("shards_total");
  for (const json::Value& v : f.array("shards")) {
    json::Fields s(v);
    m.shards.push_back(ShardStatus{s.u64("id"), s.u64("cells"), s.str("state")});
    if (!s.ok()) return std::nullopt;
  }
  if (f.u64("sweep_manifest") != 1 || !fp.has_value() || !f.ok()) {
    return std::nullopt;
  }
  m.spec_fingerprint = *fp;
  return m;
}

bool dir_matches_sweep(const std::string& dir,
                       std::uint64_t spec_fingerprint,
                       std::size_t shards_total) {
  const auto existing = read_manifest(dir);
  if (!existing.has_value()) return true;
  if (existing->spec_fingerprint == spec_fingerprint &&
      existing->shards_total == shards_total) {
    return true;
  }
  std::fprintf(stderr,
               "sweep: %s already holds a different sweep (manifest "
               "fingerprint %016llx/%zu shards, ours %016llx/%zu) — use a "
               "fresh --dir\n",
               dir.c_str(),
               static_cast<unsigned long long>(existing->spec_fingerprint),
               existing->shards_total,
               static_cast<unsigned long long>(spec_fingerprint),
               shards_total);
  return false;
}

}  // namespace soc::sweep
