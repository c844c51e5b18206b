#include "src/khdn/khdn.hpp"

namespace soc::khdn {

KhdnSystem::KhdnSystem(sim::Simulator& sim, net::MessageBus& bus,
                       can::CanSpace& space, KhdnConfig config, Rng rng)
    : sim_(sim), bus_(bus), space_(space), config_(config), rng_(rng) {}

void KhdnSystem::attach_to_space() {
  can::CanSpace::Listener listener;
  listener.on_rehome = [this](NodeId from, NodeId to) {
    if (!caches_.contains(from)) return;
    std::vector<index::Record> moved;
    if (space_.contains(from) && space_.contains(to)) {
      moved = cache(from).extract_in_zone(space_.zone_of(to), sim_.now());
    } else {
      moved = cache(from).extract_all();
    }
    index::RecordStore& dst = cache(to);
    for (const auto& r : moved) dst.put(r);
  };
  space_.set_listener(std::move(listener));
}

index::RecordStore& KhdnSystem::cache(NodeId id) { return caches_[id]; }

void KhdnSystem::add_node(NodeId id) {
  SOC_CHECK(space_.contains(id));
  caches_[id];  // materialize
  start_periodic(id);
}

void KhdnSystem::start_periodic(NodeId id) {
  sim_.schedule_periodic(
      config_.state_update_period,
      [this, id] {
        if (!caches_.contains(id) || !space_.contains(id)) return false;
        publish_now(id);
        return true;
      },
      static_cast<SimTime>(
          rng_.fork(id.value).uniform_int(1, config_.state_update_period)),
      config_.periodic_jitter);
}

void KhdnSystem::remove_node(NodeId id) {
  caches_.erase(id);
  caches_.maybe_compact();  // teardown safe point: no cache refs outstanding
}

index::RecordStore KhdnSystem::park_node(NodeId id) {
  SOC_CHECK(caches_.contains(id));
  // The moved-from cache stays in place (empty) until the departure
  // teardown erases it, so nothing re-homes to the takeover node.
  return std::move(caches_.at(id));
}

void KhdnSystem::restore_node(NodeId id, index::RecordStore store) {
  SOC_CHECK(space_.contains(id));
  store.prune(sim_.now());
  std::vector<index::Record> keep =
      store.extract_in_zone(space_.zone_of(id), sim_.now());
  std::vector<index::Record> reroute = store.extract_all();
  for (const auto& r : keep) store.put(r);
  // The CanSpace join that preceded this restore split a zone, and the
  // rehome listener materialized a fresh cache to receive the split
  // zone's records — fold those in (in-zone by construction).
  if (index::RecordStore* fresh = caches_.find(id)) {
    for (const auto& r : fresh->extract_all()) store.put(r);
    caches_.erase(id);
  }
  caches_.emplace(id, std::move(store));
  for (const auto& r : reroute) {
    can::route_greedy(space_, bus_, id, r.location,
                      net::MsgType::kStateUpdate, config_.state_msg_bytes,
                      config_.route_ttl, [this, r](NodeId duty) {
                        if (!caches_.contains(duty)) return;
                        cache(duty).put(r);
                      });
  }
  start_periodic(id);
}

std::vector<NodeId> KhdnSystem::tracked_ids() const {
  std::vector<NodeId> out;
  out.reserve(caches_.size());
  for (const auto& [id, store] : caches_) out.push_back(id);
  return out;
}

std::string KhdnSystem::check_membership_consistency() const {
  for (const auto& [id, store] : caches_) {
    if (!space_.contains(id)) {
      return "duty cache for non-member " + std::to_string(id.value);
    }
  }
  for (const NodeId id : space_.member_ids()) {
    if (!caches_.contains(id)) {
      return "member " + std::to_string(id.value) + " has no duty cache";
    }
  }
  return {};
}

void KhdnSystem::publish_now(NodeId id) {
  if (!provider_) return;
  auto record = provider_(id);
  if (!record.has_value()) return;
  // Stamp freshness here so providers need not know the TTL policy.
  record->published_at = sim_.now();
  record->expires_at = sim_.now() + config_.record_ttl;
  can::route_greedy(space_, bus_, id, record->location,
                    net::MsgType::kStateUpdate, config_.state_msg_bytes,
                    config_.route_ttl, [this, r = *record](NodeId duty) {
                      if (!caches_.contains(duty)) return;
                      cache(duty).put(r);
                      spread(duty, r, config_.k_hops);
                    });
}

void KhdnSystem::spread(NodeId at, const index::Record& record,
                        std::size_t hops_left) {
  if (hops_left == 0 || !space_.contains(at)) return;
  // One copy to each negative adjacent neighbor per dimension; every copy
  // keeps spreading with one hop fewer (a bounded negative-orthant flood).
  for (std::size_t d = 0; d < space_.dims(); ++d) {
    space_.directional_neighbors(at, d, can::Direction::kNegative,
                                 dir_scratch_);
    if (dir_scratch_.empty()) continue;
    const NodeId target = dir_scratch_[rng_.pick_index(dir_scratch_.size())];
    bus_.send(at, target, net::MsgType::kKhdnSpread, config_.state_msg_bytes,
              [this, target, record, hops_left] {
                if (!caches_.contains(target)) return;
                cache(target).put(record);
                spread(target, record, hops_left - 1);
              });
  }
}

void KhdnSystem::finish(std::uint64_t qid) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  sim_.cancel(p.timeout);
  if (p.cb) p.cb(std::move(p.results));
}

void KhdnSystem::query(NodeId requester, const ResourceVector& demand,
                       const can::Point& target, std::size_t want,
                       Callback cb) {
  const std::uint64_t qid = next_qid_++;
  Pending p;
  p.requester = requester;
  p.demand = demand;
  p.want = want;
  p.cb = std::move(cb);
  p.timeout = sim_.schedule_after(config_.query_timeout,
                                  [this, qid] { finish(qid); });
  pending_.emplace(qid, std::move(p));

  can::route_greedy(space_, bus_, requester, target, net::MsgType::kDutyQuery,
                    config_.query_msg_bytes, config_.route_ttl,
                    [this, qid](NodeId duty) {
                      const auto it = pending_.find(qid);
                      if (it == pending_.end()) return;
                      it->second.visited.insert(duty);
                      it->second.outstanding = 1;
                      scan_visit(qid, duty, config_.k_hops);
                    });
}

void KhdnSystem::scan_visit(std::uint64_t qid, NodeId at,
                            std::size_t hops_left) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  SOC_CHECK(p.outstanding > 0);
  --p.outstanding;

  if (caches_.contains(at)) {
    // Harvest local qualified records (reused scratch, ascending provider
    // order); one notice message back covers the traffic of returning them.
    std::vector<index::Record>& qualified = record_scratch_;
    cache(at).qualified_into(p.demand, sim_.now(), qualified);
    std::size_t fresh = 0;
    for (const auto& r : qualified) {
      if (p.results.size() >= p.want) break;
      if (!p.seen_providers.insert(r.provider).second) continue;
      p.results.push_back(Discovered{r.provider, r.availability});
      ++fresh;
    }
    if (fresh > 0) {
      bus_.send(at, p.requester, net::MsgType::kFoundNotice,
                config_.notice_msg_bytes, [] {});
    }
    if (p.results.size() >= p.want) {
      finish(qid);
      return;
    }
    // Expand to *sampled* positive neighbors within the K-hop radius: one
    // random neighbor per dimension per hop, mirroring the sampled K-hop
    // spread (the paper scans "K-hop sampled positive neighbors", not the
    // full K-hop ball).
    if (hops_left > 0 && space_.contains(at)) {
      for (std::size_t d = 0; d < space_.dims(); ++d) {
        space_.directional_neighbors(at, d, can::Direction::kPositive,
                                     dir_scratch_);
        if (dir_scratch_.empty()) continue;
        const NodeId n = dir_scratch_[rng_.pick_index(dir_scratch_.size())];
        if (!p.visited.insert(n).second) continue;
        ++p.outstanding;
        bus_.send(at, n, net::MsgType::kDutyQuery, config_.query_msg_bytes,
                  [this, qid, n, hops_left] {
                    scan_visit(qid, n, hops_left - 1);
                  });
      }
    }
  }
  if (p.outstanding == 0) finish(qid);
}

}  // namespace soc::khdn
