// Golden-trajectory regression for storage/routing refactors.
//
// Perf refactors in this repo must be *trajectory-preserving*: a same-seed
// run takes bit-identical routes and produces bit-identical figure series.
// The fingerprints live in tests/golden_fingerprints.txt (source tree, path
// baked in via SOC_GOLDEN_FILE); any refactor that changes a route choice,
// an RNG draw order, or a metric bit changes a fingerprint and fails here.
//
// When a PR changes behavior *intentionally* (new protocol logic, new
// tie-break, a new candidate order), the re-baseline is mechanical, not
// hand-edited:
//
//   cmake --build build --target regen_goldens
//
// which runs `golden_trajectory_test --regen` (rewrites the fingerprint
// file, printing old -> new per key) and regenerates
// bench/BENCH_baseline.json in the same step — both anchors always move in
// the same commit.  Run the suite twice afterwards to confirm the new
// trajectory is stable.  The protocol is documented in README.
//
// The fingerprints hash raw double bits, so they assume the reference
// toolchain (same libm/compiler/flags).  On a different toolchain a
// last-ulp libm difference can legitimately shift one churn delay; if all
// tests fail on an otherwise-green tree after a toolchain change,
// regenerate rather than debug.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/can/space.hpp"
#include "src/common/fnv.hpp"
#include "src/core/experiment.hpp"
#include "src/sweep/spec.hpp"

namespace soc {
namespace {

// Routes, next-hop choices and directional neighbor sets over a churned
// 2-d space.  Pins the greedy tie-break chain (containment, box distance,
// center distance, id) and the adjacency metadata.
std::uint64_t route_fingerprint() {
  can::CanSpace space(2, Rng(42));
  Rng rng(43);
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  for (int i = 0; i < 48; ++i) {
    space.join(NodeId(next));
    live.push_back(NodeId(next++));
  }
  Fnv1a h;
  for (int step = 0; step < 300; ++step) {
    if (live.size() < 8 || rng.chance(0.55)) {
      space.join(NodeId(next));
      live.push_back(NodeId(next++));
    } else {
      const std::size_t idx = rng.pick_index(live.size());
      space.leave(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Every 7th step, fingerprint a route and the directional partition of
    // a sampled member.
    if (step % 7 != 0) continue;
    const can::Point target{rng.uniform(), rng.uniform()};
    const NodeId start = space.random_member(rng);
    h.u64(start.value);
    for (const NodeId hop : space.route(start, target)) h.u64(hop.value);
    const NodeId sample = space.random_member(rng);
    for (std::size_t d = 0; d < 2; ++d) {
      for (const can::Direction dir :
           {can::Direction::kNegative, can::Direction::kPositive}) {
        for (const NodeId n : space.directional_neighbors(sample, d, dir)) {
          h.u64(n.value);
        }
      }
    }
  }
  return h.value();
}

core::ExperimentConfig small_config(core::ProtocolKind protocol) {
  core::ExperimentConfig c;
  c.protocol = protocol;
  c.nodes = 64;
  c.duration = seconds(3600);
  c.sample_step = seconds(600);
  c.seed = 7;
  c.churn_dynamic_degree = 0.1;  // exercise leave/rehome/timeout paths
  return c;
}

// The "partition" scenario over three LANs: a LAN-boundary cut at 35% of
// the run heals at 65%, so parking and rejoin (park_node/restore_node)
// are on the pinned path.
core::ExperimentConfig partition_config(core::ProtocolKind protocol) {
  core::ExperimentConfig c = small_config(protocol);
  c.nodes = 120;
  c.duration = seconds(7200);
  c.scenario = *sweep::scenario_by_name("partition", c.duration, c.nodes);
  return c;
}

// HID-CAN under heavy churn with one of the two abort policies: both
// release a departed host's scheduler at once (HostTable::release_scheduler)
// instead of letting it drain, and kCheckpointRestart re-queries the killed
// tasks from their last snapshot.
core::ExperimentConfig abort_config(core::ChurnTaskPolicy policy) {
  core::ExperimentConfig c = small_config(core::ProtocolKind::kHidCan);
  c.nodes = 120;
  c.duration = seconds(7200);
  c.churn_dynamic_degree = 0.5;
  c.churn_task_policy = policy;
  return c;
}

// Its own field list on the shared hasher, not
// ExperimentResults::fingerprint: the goldens checked in were hashed over
// exactly these fields, and a wider list would move every one of them.
std::uint64_t experiment_fingerprint(const core::ExperimentConfig& config) {
  const core::ExperimentResults r = core::run_experiment(config);
  Fnv1a h;
  h.u64(r.generated);
  h.u64(r.finished);
  h.u64(r.failed);
  h.u64(r.total_messages);
  h.u64(r.messages_delivered);
  h.u64(r.messages_lost);
  h.u64(r.events_executed);
  h.f64(r.t_ratio);
  h.f64(r.f_ratio);
  h.f64(r.fairness);
  h.f64(r.avg_query_delay_s);
  for (const auto& s : r.series) {
    h.u64(s.generated);
    h.u64(s.finished);
    h.u64(s.failed);
    h.f64(s.t_ratio);
    h.f64(s.f_ratio);
    h.f64(s.fairness);
  }
  return h.value();
}

/// The fingerprint registry: the single list --regen and the tests share,
/// so a new golden can never be asserted without being regenerable.
struct Golden {
  const char* key;
  std::uint64_t (*compute)();
};

std::uint64_t small_fingerprint(core::ProtocolKind protocol) {
  return experiment_fingerprint(small_config(protocol));
}

std::uint64_t partition_fingerprint(core::ProtocolKind protocol) {
  return experiment_fingerprint(partition_config(protocol));
}

std::uint64_t abort_fingerprint(core::ChurnTaskPolicy policy) {
  return experiment_fingerprint(abort_config(policy));
}

constexpr Golden kGoldens[] = {
    {"routes", &route_fingerprint},
    {"hid_can", [] { return small_fingerprint(core::ProtocolKind::kHidCan); }},
    {"newscast",
     [] { return small_fingerprint(core::ProtocolKind::kNewscast); }},
    {"khdn_can",
     [] { return small_fingerprint(core::ProtocolKind::kKhdnCan); }},
    {"hid_can_partition",
     [] { return partition_fingerprint(core::ProtocolKind::kHidCan); }},
    {"khdn_can_partition",
     [] { return partition_fingerprint(core::ProtocolKind::kKhdnCan); }},
    {"newscast_partition",
     [] { return partition_fingerprint(core::ProtocolKind::kNewscast); }},
    {"hid_can_tasks_lost",
     [] { return abort_fingerprint(core::ChurnTaskPolicy::kTasksLost); }},
    {"hid_can_checkpoint",
     [] {
       return abort_fingerprint(core::ChurnTaskPolicy::kCheckpointRestart);
     }},
};

/// Parse "key value" lines ('#' starts a comment).  Returns false when the
/// file is unreadable.
bool load_goldens(const std::string& path,
                  std::vector<std::pair<std::string, std::uint64_t>>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string key;
    std::uint64_t value = 0;
    if (row >> key >> value) out.emplace_back(std::move(key), value);
  }
  return true;
}

std::uint64_t expected(const char* key) {
  std::vector<std::pair<std::string, std::uint64_t>> goldens;
  const bool loaded = load_goldens(SOC_GOLDEN_FILE, goldens);
  EXPECT_TRUE(loaded) << "cannot read " << SOC_GOLDEN_FILE
                      << " — run `cmake --build build --target regen_goldens`";
  for (const auto& [k, v] : goldens) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "no golden named '" << key << "' in " << SOC_GOLDEN_FILE
                << " — run `cmake --build build --target regen_goldens`";
  return 0;
}

TEST(GoldenTrajectory, CanRoutesBitIdentical) {
  const std::uint64_t actual = route_fingerprint();
  EXPECT_EQ(actual, expected("routes")) << "actual: " << actual;
}

TEST(GoldenTrajectory, HidCanSeriesBitIdentical) {
  const std::uint64_t actual = small_fingerprint(core::ProtocolKind::kHidCan);
  EXPECT_EQ(actual, expected("hid_can")) << "actual: " << actual;
}

TEST(GoldenTrajectory, NewscastSeriesBitIdentical) {
  const std::uint64_t actual =
      small_fingerprint(core::ProtocolKind::kNewscast);
  EXPECT_EQ(actual, expected("newscast")) << "actual: " << actual;
}

TEST(GoldenTrajectory, KhdnCanSeriesBitIdentical) {
  const std::uint64_t actual = small_fingerprint(core::ProtocolKind::kKhdnCan);
  EXPECT_EQ(actual, expected("khdn_can")) << "actual: " << actual;
}

TEST(GoldenTrajectory, HidCanPartitionBitIdentical) {
  const std::uint64_t actual =
      partition_fingerprint(core::ProtocolKind::kHidCan);
  EXPECT_EQ(actual, expected("hid_can_partition")) << "actual: " << actual;
}

TEST(GoldenTrajectory, KhdnCanPartitionBitIdentical) {
  const std::uint64_t actual =
      partition_fingerprint(core::ProtocolKind::kKhdnCan);
  EXPECT_EQ(actual, expected("khdn_can_partition")) << "actual: " << actual;
}

TEST(GoldenTrajectory, NewscastPartitionBitIdentical) {
  const std::uint64_t actual =
      partition_fingerprint(core::ProtocolKind::kNewscast);
  EXPECT_EQ(actual, expected("newscast_partition")) << "actual: " << actual;
}

TEST(GoldenTrajectory, HidCanTasksLostBitIdentical) {
  const std::uint64_t actual =
      abort_fingerprint(core::ChurnTaskPolicy::kTasksLost);
  EXPECT_EQ(actual, expected("hid_can_tasks_lost")) << "actual: " << actual;
}

TEST(GoldenTrajectory, HidCanCheckpointBitIdentical) {
  const std::uint64_t actual =
      abort_fingerprint(core::ChurnTaskPolicy::kCheckpointRestart);
  EXPECT_EQ(actual, expected("hid_can_checkpoint")) << "actual: " << actual;
}

/// --regen: recompute every registered fingerprint and rewrite the golden
/// file, printing old -> new so the intentional change is reviewable.
int regen_goldens() {
  std::vector<std::pair<std::string, std::uint64_t>> old;
  load_goldens(SOC_GOLDEN_FILE, old);  // missing file: all keys print (new)
  const auto previous = [&](std::string_view key) -> const std::uint64_t* {
    for (const auto& [k, v] : old) {
      if (k == key) return &v;
    }
    return nullptr;
  };

  std::ofstream out(SOC_GOLDEN_FILE, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "regen: cannot write %s\n", SOC_GOLDEN_FILE);
    return 1;
  }
  out << "# Golden trajectory fingerprints (FNV-1a over counters and raw\n"
         "# double bits; reference toolchain only).  Do not edit by hand:\n"
         "# regenerate with `cmake --build build --target regen_goldens`,\n"
         "# which also rewrites bench/BENCH_baseline.json in the same step.\n";
  for (const Golden& g : kGoldens) {
    const std::uint64_t value = g.compute();
    out << g.key << ' ' << value << '\n';
    const std::uint64_t* was = previous(g.key);
    if (was == nullptr) {
      std::printf("regen: %-18s (new)      -> %llu\n", g.key,
                  static_cast<unsigned long long>(value));
    } else if (*was != value) {
      std::printf("regen: %-18s %llu -> %llu\n", g.key,
                  static_cast<unsigned long long>(*was),
                  static_cast<unsigned long long>(value));
    } else {
      std::printf("regen: %-18s unchanged (%llu)\n", g.key,
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("regen: wrote %s\n", SOC_GOLDEN_FILE);
  return 0;
}

}  // namespace
}  // namespace soc

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regen") return soc::regen_goldens();
  }
  return RUN_ALL_TESTS();
}
