#include "src/khdn/khdn.hpp"

namespace soc::khdn {

KhdnSystem::KhdnSystem(sim::Simulator& sim, net::MessageBus& bus,
                       can::CanSpace& space, std::size_t k_hops, Rng rng)
    : sim_(sim), bus_(bus), space_(space), k_hops_(k_hops), rng_(rng),
      queries_(sim, params::kQueryTimeout), router_(space, bus) {
  space_.set_rehome_listener([this](NodeId from, NodeId to) {
    if (!nodes_.contains(from)) return;
    const std::vector<index::Record> moved =
        cache(from).extract_in_zone(space_.zone_of(to), sim_.now());
    index::RecordStore& dst = cache(to);
    for (const auto& r : moved) dst.put(r);
  });
}

index::RecordStore& KhdnSystem::cache(NodeId id) { return nodes_[id].cache; }

void KhdnSystem::add_node(NodeId id) {
  SOC_CHECK(space_.contains(id));
  nodes_[id];  // materialize
  start_periodic(id);
}

void KhdnSystem::start_periodic(NodeId id) {
  const std::uint32_t inc = nodes_[id].incarnation = ++incarnations_;
  sim_.schedule_periodic(
      params::kStateUpdatePeriod,
      [this, id, inc] {
        const Node* node = nodes_.find(id);
        if (node == nullptr || node->incarnation != inc ||
            !space_.contains(id)) {
          return false;
        }
        publish_now(id);
        return true;
      },
      static_cast<SimTime>(
          rng_.fork(id.value).uniform_int(1, params::kStateUpdatePeriod)),
      params::kPeriodicJitter);
}

void KhdnSystem::remove_node(NodeId id) {
  nodes_.erase(id);
  nodes_.maybe_compact();  // teardown safe point: no cache refs outstanding
}

index::RecordStore KhdnSystem::park_node(NodeId id) {
  SOC_CHECK(nodes_.contains(id));
  // The departure teardown that follows erases the moved-from husk.
  return std::move(nodes_.at(id).cache);
}

void KhdnSystem::restore_node(NodeId id, index::RecordStore parked) {
  SOC_CHECK(space_.contains(id));
  // The CanSpace join that preceded this restore split a zone, and the
  // rehome listener materialized a fresh cache to receive the split zone's
  // records; the node resumes on its parked cache instead.
  index::RecordStore split;
  if (Node* fresh = nodes_.find(id)) {
    split = std::move(fresh->cache);
    nodes_.erase(id);
  }
  index::reconcile_parked(
      nodes_.emplace(id, Node{std::move(parked)}).cache, std::move(split),
      space_.zone_of(id), sim_.now(), [this, id](const index::Record& r) {
        router_.route(id, r.location, net::MsgType::kStateUpdate,
                      params::kStateMsgBytes, params::kRouteTtl,
                      [this, r](NodeId duty) {
                        if (!nodes_.contains(duty)) return;
                        cache(duty).put(r);
                      });
      });
  start_periodic(id);
}

std::vector<NodeId> KhdnSystem::tracked_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

std::string KhdnSystem::check_membership_consistency() const {
  for (const auto& [id, node] : nodes_) {
    if (!space_.contains(id)) {
      return "duty cache for non-member " + std::to_string(id.value);
    }
  }
  for (const NodeId id : space_.member_ids()) {
    if (!nodes_.contains(id)) {
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
  record->expires_at = sim_.now() + params::kRecordTtl;
  router_.route(id, record->location, net::MsgType::kStateUpdate,
                params::kStateMsgBytes, params::kRouteTtl,
                [this, r = *record](NodeId duty) {
                  if (!nodes_.contains(duty)) return;
                  cache(duty).put(r);
                  spread(duty, r, k_hops_);
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
    bus_.send(at, target, net::MsgType::kKhdnSpread, params::kStateMsgBytes,
              [this, target, record, hops_left] {
                if (!nodes_.contains(target)) return;
                cache(target).put(record);
                spread(target, record, hops_left - 1);
              });
  }
}

void KhdnSystem::query(NodeId requester, const ResourceVector& demand,
                       const can::Point& target, std::size_t want,
                       Callback cb) {
  const std::uint64_t qid =
      queries_.begin(requester, demand, want, std::move(cb));
  router_.route(requester, target, net::MsgType::kDutyQuery,
                params::kQueryMsgBytes, params::kRouteTtl,
                [this, qid](NodeId duty) {
                  query::PendingQueries::Query* q = queries_.find(qid);
                  if (q == nullptr) return;
                  q->reached.insert(duty);
                  q->outstanding = 1;
                  scan_visit(qid, duty, k_hops_);
                });
}

void KhdnSystem::scan_visit(std::uint64_t qid, NodeId at,
                            std::size_t hops_left) {
  query::PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  SOC_CHECK(q->outstanding > 0);
  --q->outstanding;

  if (nodes_.contains(at)) {
    // Harvest local qualified records (reused scratch, ascending provider
    // order); one notice message back covers the traffic of returning them.
    std::vector<index::Record>& qualified = record_scratch_;
    cache(at).qualified_into(q->demand, sim_.now(), qualified);
    std::size_t fresh = 0;
    for (const auto& r : qualified) {
      if (q->satisfied()) break;
      if (q->add(r.provider, r.availability)) ++fresh;
    }
    if (fresh > 0) {
      bus_.send(at, q->requester, net::MsgType::kFoundNotice,
                params::kNoticeMsgBytes, [] {});
    }
    if (q->satisfied()) {
      queries_.finish(qid);
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
        if (!q->reached.insert(n).second) continue;
        ++q->outstanding;
        bus_.send(at, n, net::MsgType::kDutyQuery, params::kQueryMsgBytes,
                  [this, qid, n, hops_left] {
                    scan_visit(qid, n, hops_left - 1);
                  });
      }
    }
  }
  if (q->outstanding == 0) queries_.finish(qid);
}

}  // namespace soc::khdn
