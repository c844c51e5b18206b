#include "src/gossip/newscast.hpp"

#include <algorithm>

#include "src/psm/task.hpp"

namespace soc::gossip {

NewscastSystem::NewscastSystem(sim::Simulator& sim, net::MessageBus& bus,
                               NewscastConfig config, Rng rng)
    : sim_(sim), bus_(bus), config_(config), rng_(rng) {
  SOC_CHECK(config_.view_size >= 1);
}

void NewscastSystem::add_node(NodeId id, const std::vector<NodeId>& bootstrap) {
  SOC_CHECK(!views_.contains(id));
  std::vector<ViewEntry>& view = views_[id];
  for (const NodeId b : bootstrap) {
    if (b == id || !views_.contains(b)) continue;
    view.push_back(ViewEntry{b, ResourceVector(psm::kDims), sim_.now()});
    if (view.size() >= config_.view_size) break;
  }
  start_periodic(id);
}

void NewscastSystem::start_periodic(NodeId id) {
  sim_.schedule_periodic(
      config_.gossip_period,
      [this, id] {
        if (!views_.contains(id)) return false;
        gossip_now(id);
        return true;
      },
      static_cast<SimTime>(
          rng_.fork(id.value).uniform_int(1, config_.gossip_period)),
      config_.periodic_jitter);
}

void NewscastSystem::remove_node(NodeId id) {
  views_.erase(id);
  views_.maybe_compact();  // teardown safe point: no view refs outstanding
}

std::vector<ViewEntry> NewscastSystem::park_node(NodeId id) {
  auto* view = views_.find(id);
  SOC_CHECK(view != nullptr);
  return std::move(*view);
}

void NewscastSystem::restore_node(NodeId id, std::vector<ViewEntry> view) {
  SOC_CHECK(!views_.contains(id));
  views_[id] = std::move(view);
  start_periodic(id);
}

const std::vector<ViewEntry>& NewscastSystem::view_of(NodeId id) const {
  const auto* view = views_.find(id);
  SOC_CHECK_MSG(view != nullptr, "unknown gossip node");
  return *view;
}

std::vector<ViewEntry> NewscastSystem::snapshot_with_self(NodeId id) {
  std::vector<ViewEntry> out = views_.at(id);
  if (provider_) {
    if (const auto avail = provider_(id); avail.has_value()) {
      out.push_back(ViewEntry{id, *avail, sim_.now()});
    }
  }
  return out;
}

void NewscastSystem::merge_view(NodeId owner,
                                const std::vector<ViewEntry>& incoming) {
  auto* view_ptr = views_.find(owner);
  if (view_ptr == nullptr) return;
  std::vector<ViewEntry>& view = *view_ptr;
  for (const ViewEntry& e : incoming) {
    if (e.id == owner) continue;
    const auto existing =
        std::find_if(view.begin(), view.end(),
                     [&](const ViewEntry& v) { return v.id == e.id; });
    if (existing == view.end()) {
      view.push_back(e);
    } else if (e.heard_at > existing->heard_at) {
      *existing = e;
    }
  }
  // Newest first; truncate to the fan-out bound.
  std::sort(view.begin(), view.end(),
            [](const ViewEntry& a, const ViewEntry& b) {
              if (a.heard_at != b.heard_at) return a.heard_at > b.heard_at;
              return a.id < b.id;
            });
  if (view.size() > config_.view_size) view.resize(config_.view_size);
}

void NewscastSystem::gossip_now(NodeId id) {
  const auto* view_ptr = views_.find(id);
  if (view_ptr == nullptr || view_ptr->empty()) return;
  const std::vector<ViewEntry>& view = *view_ptr;
  const NodeId peer = view[rng_.pick_index(view.size())].id;

  // Initiator → peer: my view plus my own fresh entry; the peer merges and
  // answers with its own pre-merge snapshot (the Newscast exchange).
  auto mine = snapshot_with_self(id);
  bus_.send(id, peer, net::MsgType::kGossip, config_.view_msg_bytes,
            [this, id, peer, mine = std::move(mine)] {
              if (!views_.contains(peer)) return;
              auto theirs = snapshot_with_self(peer);
              merge_view(peer, mine);
              bus_.send(peer, id, net::MsgType::kGossip,
                        config_.view_msg_bytes,
                        [this, id, theirs = std::move(theirs)] {
                          merge_view(id, theirs);
                        });
            });
}

void NewscastSystem::finish(std::uint64_t qid) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  sim_.cancel(p.timeout);
  if (p.results.size() >= p.want) {
    ++stats_.satisfied;
  } else if (p.results.empty()) {
    ++stats_.failed;
  }
  stats_.delay_seconds.add(to_seconds(sim_.now() - p.submitted_at));
  if (p.cb) p.cb(std::move(p.results));
}

void NewscastSystem::query(NodeId requester, const ResourceVector& demand,
                           std::size_t want, Callback cb) {
  const std::uint64_t qid = next_qid_++;
  Pending p;
  p.requester = requester;
  p.demand = demand;
  p.want = want;
  p.cb = std::move(cb);
  p.submitted_at = sim_.now();
  p.timeout = sim_.schedule_after(config_.query_timeout,
                                  [this, qid] { finish(qid); });
  pending_.emplace(qid, std::move(p));
  ++stats_.queries;
  query_hop(qid, requester, config_.query_forward_ttl);
}

void NewscastSystem::query_hop(std::uint64_t qid, NodeId at,
                               std::size_t ttl) {
  const auto pit = pending_.find(qid);
  if (pit == pending_.end()) return;
  Pending& p = pit->second;
  const auto* view = views_.find(at);
  if (view == nullptr) return;  // hop churned out; timeout closes

  // Scan the local partial view for fresh qualified entries.
  for (const ViewEntry& e : *view) {
    if ((sim_.now() - e.heard_at) >= config_.entry_ttl) continue;
    if (!e.availability.dominates(p.demand)) continue;
    if (!p.seen.insert(e.id).second) continue;
    p.results.push_back(Discovered{e.id, e.availability});
  }
  if (p.results.size() >= p.want || ttl == 0) {
    if (at == p.requester || p.results.size() >= p.want) {
      finish(qid);
    } else {
      // Results live with the engine; a real deployment ships them back in
      // one message, which we account for here.
      bus_.send(at, p.requester, net::MsgType::kFoundNotice,
                config_.query_msg_bytes, [this, qid] { finish(qid); });
    }
    return;
  }
  if (view->empty()) {
    finish(qid);
    return;
  }
  const NodeId next = (*view)[rng_.pick_index(view->size())].id;
  bus_.send(at, next, net::MsgType::kDutyQuery, config_.query_msg_bytes,
            [this, qid, next, ttl] { query_hop(qid, next, ttl - 1); });
}

}  // namespace soc::gossip
