#include "src/scenario/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

#include "src/can/space.hpp"
#include "src/core/can_protocol.hpp"
#include "src/index/record.hpp"
#include "src/net/message_bus.hpp"

namespace soc::scenario {

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    out += "  INVARIANT VIOLATED: " + v + "\n";
  }
  return out;
}

namespace {

class Checker {
 public:
  explicit Checker(InvariantReport& report) : report_(report) {}

  void expect(bool cond, const std::string& what) {
    ++report_.assertions;
    if (!cond) report_.violations.push_back(what);
  }

  /// For oracles that return an empty string on success.
  void expect_clean(const std::string& why, const std::string& where) {
    ++report_.assertions;
    if (!why.empty()) report_.violations.push_back(where + ": " + why);
  }

 private:
  InvariantReport& report_;
};

bool same_record(const index::Record& a, const index::Record& b) {
  return a.provider == b.provider && a.availability == b.availability &&
         a.published_at == b.published_at && a.expires_at == b.expires_at;
}

/// Record-store oracle: rebuild a map from the store's live contents and
/// require the store's own query paths to agree with a straightforward
/// scan of that map.
void check_record_store(Checker& chk, index::RecordStore& store, NodeId owner,
                        const ResourceVector& cmax, SimTime now, Rng& rng) {
  const std::string tag = "duty cache of node " + std::to_string(owner.value);
  chk.expect(store.verify_sorted_unique(), tag + " not sorted/unique");

  const std::vector<index::Record> live = store.all_live(now);
  std::map<NodeId, index::Record> oracle;
  for (const index::Record& r : live) oracle.emplace(r.provider, r);
  chk.expect(oracle.size() == live.size(),
             tag + " all_live() returned duplicate providers");
  chk.expect(store.live_count(now) == live.size(),
             tag + " live_count disagrees with all_live");
  chk.expect(store.has_live_records(now) == !live.empty(),
             tag + " has_live_records disagrees with all_live");

  // One sampled demand per check interval (caller's RNG — deterministic
  // per fuzz schedule, never the experiment's streams).
  ResourceVector demand(cmax.size());
  for (std::size_t i = 0; i < cmax.size(); ++i) {
    demand[i] = rng.uniform(0.0, cmax[i]);
  }
  const std::vector<index::Record> got = store.qualified(demand, now);
  chk.expect(store.qualified_count(demand, now) == got.size(),
             tag + " qualified_count disagrees with qualified");
  std::vector<index::Record> want;
  for (const auto& kv : oracle) {
    if (kv.second.qualifies(demand)) want.push_back(kv.second);
  }
  bool equal = got.size() == want.size();
  for (std::size_t i = 0; equal && i < got.size(); ++i) {
    equal = same_record(got[i], want[i]);  // oracle map is id-ascending too
  }
  chk.expect(equal, tag + " qualified() diverges from map oracle");
}

/// Two id lists describe the same set (inputs in ascending order already;
/// sorted defensively so a broken producer reports as a set mismatch, not
/// UB in std::equal).
bool same_ids(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

void check_can_space(Checker& chk, can::CanSpace& space,
                     const std::vector<NodeId>& alive,
                     const std::string& proto) {
  chk.expect(same_ids(space.member_ids(), alive),
             proto + ": CAN members != alive hosts");
  if (space.size() > 0) {
    chk.expect(std::abs(space.total_volume() - 1.0) < 1e-9,
               proto + ": member zone volumes do not sum to the unit cube");
  }
  chk.expect(space.verify_invariants(),
             proto + ": CAN tessellation/adjacency verifier failed");
}

}  // namespace

InvariantReport check_invariants(core::Experiment& ex, Rng& rng) {
  InvariantReport report;
  Checker chk(report);

  // 1. Host accounting / dense-map sanity.
  chk.expect_clean(ex.check_accounting(), "experiment accounting");

  // 2. Event-queue slab/heap/generation sanity.
  chk.expect(ex.simulator().verify_queue_integrity(),
             "event queue heap/slab integrity");

  // 3. Per-MsgType message conservation (every fate accounted exactly once,
  // including partition swallows).
  const net::TrafficStats& stats = ex.bus().stats();
  for (std::size_t t = 0; t < static_cast<std::size_t>(net::MsgType::kCount);
       ++t) {
    const auto type = static_cast<net::MsgType>(t);
    const std::uint64_t sent = stats.sent(type);
    const std::uint64_t resolved = stats.delivered(type) + stats.lost(type) +
                                   stats.partitioned(type) +
                                   stats.in_flight(type) +
                                   stats.synthetic(type);
    chk.expect(sent == resolved,
               std::string(net::msg_type_name(type)) +
                   " conservation broken: sent=" + std::to_string(sent) +
                   " delivered+lost+partitioned+in_flight+synthetic=" +
                   std::to_string(resolved));
  }
  chk.expect(ex.bus().in_flight() == stats.total_in_flight(),
             "bus in-flight counter != per-type in-flight totals");

  // 4. Partition bookkeeping: the cut set only holds alive hosts, the
  // protocol's parked state mirrors it exactly, and no messages can be
  // swallowed without a cut ever having been active.
  const std::vector<NodeId>& cut = ex.partitioned_ids();
  if (!ex.partition_active()) {
    chk.expect(cut.empty(), "partitioned ids linger after heal");
  }
  for (const NodeId id : cut) {
    chk.expect(ex.host_alive(id),
               "partitioned id " + std::to_string(id.value) + " is dead");
  }
  const std::string name = core::protocol_name(ex.config().protocol);
  chk.expect(same_ids(ex.protocol().parked_ids(), cut),
             name + ": parked protocol state != experiment's partitioned set");

  // 5–7. Overlay + index layers, per protocol family.  Partitioned hosts
  // are alive but out of the overlay, so the membership oracle is
  // alive-minus-partitioned.
  std::vector<NodeId> alive = ex.alive_ids();
  if (!cut.empty()) {
    std::vector<NodeId> connected;
    connected.reserve(alive.size());
    std::set_difference(alive.begin(), alive.end(), cut.begin(), cut.end(),
                        std::back_inserter(connected));
    alive = std::move(connected);
  }
  if (auto* overlay = dynamic_cast<core::CanProtocol*>(&ex.protocol())) {
    check_can_space(chk, overlay->space(), alive, name);
    chk.expect_clean(overlay->check_membership_consistency(),
                     name + " membership");
    const SimTime now = ex.simulator().now();
    for (const NodeId id : overlay->tracked_ids()) {
      check_record_store(chk, overlay->cache(id), id, overlay->cmax(), now,
                         rng);
    }
  }

  return report;
}

}  // namespace soc::scenario
