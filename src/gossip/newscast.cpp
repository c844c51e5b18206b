#include "src/gossip/newscast.hpp"

#include <algorithm>

#include "src/common/protocol_params.hpp"
#include "src/psm/task.hpp"

namespace soc::gossip {

namespace {
/// Exchange cadence.  The paper equalizes the three §IV.A protocols'
/// traffic; at PID-CAN's maintenance rates that lands Newscast near one
/// exchange per minute.
constexpr SimTime kGossipPeriod = seconds(60);
constexpr std::size_t kQueryForwardTtl = 6;  ///< random-forward hops
constexpr std::size_t kViewMsgBytes = 600;
}  // namespace

NewscastSystem::NewscastSystem(sim::Simulator& sim, net::MessageBus& bus,
                               std::size_t view_size, Rng rng)
    : sim_(sim), bus_(bus), view_size_(view_size), rng_(rng),
      queries_(sim, params::kQueryTimeout) {
  SOC_CHECK(view_size_ >= 1);
}

void NewscastSystem::add_node(NodeId id, const std::vector<NodeId>& bootstrap) {
  SOC_CHECK(!nodes_.contains(id));
  std::vector<ViewEntry>& view = nodes_[id].view;
  for (const NodeId b : bootstrap) {
    if (b == id || !nodes_.contains(b)) continue;
    view.push_back(ViewEntry{b, ResourceVector(psm::kDims), sim_.now()});
    if (view.size() >= view_size_) break;
  }
  start_periodic(id);
}

void NewscastSystem::start_periodic(NodeId id) {
  const std::uint32_t inc = nodes_[id].incarnation = ++incarnations_;
  sim_.schedule_periodic(
      kGossipPeriod,
      [this, id, inc] {
        const Node* node = nodes_.find(id);
        if (node == nullptr || node->incarnation != inc) return false;
        gossip_now(id);
        return true;
      },
      static_cast<SimTime>(
          rng_.fork(id.value).uniform_int(1, kGossipPeriod)),
      params::kPeriodicJitter);
}

void NewscastSystem::remove_node(NodeId id) {
  nodes_.erase(id);
  nodes_.maybe_compact();  // teardown safe point: no view refs outstanding
}

std::vector<ViewEntry> NewscastSystem::park_node(NodeId id) {
  std::vector<ViewEntry>* view = find_view(id);
  SOC_CHECK(view != nullptr);
  return std::move(*view);
}

void NewscastSystem::restore_node(NodeId id, std::vector<ViewEntry> view) {
  SOC_CHECK(!nodes_.contains(id));
  nodes_[id].view = std::move(view);
  start_periodic(id);
}

const std::vector<ViewEntry>& NewscastSystem::view_of(NodeId id) const {
  const Node* node = nodes_.find(id);
  SOC_CHECK_MSG(node != nullptr, "unknown gossip node");
  return node->view;
}

std::vector<ViewEntry> NewscastSystem::snapshot_with_self(NodeId id) {
  std::vector<ViewEntry> out = nodes_.at(id).view;
  if (provider_) {
    if (const auto avail = provider_(id); avail.has_value()) {
      out.push_back(ViewEntry{id, *avail, sim_.now()});
    }
  }
  return out;
}

void NewscastSystem::merge_view(NodeId owner,
                                const std::vector<ViewEntry>& incoming) {
  std::vector<ViewEntry>* view_ptr = find_view(owner);
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
  if (view.size() > view_size_) view.resize(view_size_);
}

void NewscastSystem::gossip_now(NodeId id) {
  const std::vector<ViewEntry>* view_ptr = find_view(id);
  if (view_ptr == nullptr || view_ptr->empty()) return;
  const std::vector<ViewEntry>& view = *view_ptr;
  const NodeId peer = view[rng_.pick_index(view.size())].id;

  // Initiator → peer: my view plus my own fresh entry; the peer merges and
  // answers with its own pre-merge snapshot (the Newscast exchange).
  auto mine = snapshot_with_self(id);
  bus_.send(id, peer, net::MsgType::kGossip, kViewMsgBytes,
            [this, id, peer, mine = std::move(mine)] {
              if (!nodes_.contains(peer)) return;
              auto theirs = snapshot_with_self(peer);
              merge_view(peer, mine);
              bus_.send(peer, id, net::MsgType::kGossip,
                        kViewMsgBytes,
                        [this, id, theirs = std::move(theirs)] {
                          merge_view(id, theirs);
                        });
            });
}

void NewscastSystem::query(NodeId requester, const ResourceVector& demand,
                           std::size_t want, Callback cb) {
  const std::uint64_t qid =
      queries_.begin(requester, demand, want, std::move(cb));
  query_hop(qid, requester, kQueryForwardTtl);
}

void NewscastSystem::query_hop(std::uint64_t qid, NodeId at,
                               std::size_t ttl) {
  query::PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  const std::vector<ViewEntry>* view = find_view(at);
  if (view == nullptr) return;  // hop churned out; timeout closes

  // Scan the local partial view for fresh qualified entries.
  for (const ViewEntry& e : *view) {
    if ((sim_.now() - e.heard_at) >= params::kRecordTtl) continue;
    if (!e.availability.dominates(q->demand)) continue;
    q->add(e.id, e.availability);
  }
  if (q->satisfied() || ttl == 0) {
    if (at == q->requester || q->satisfied()) {
      queries_.finish(qid);
    } else {
      // Results live with the engine; a real deployment ships them back in
      // one message, which we account for here.
      bus_.send(at, q->requester, net::MsgType::kFoundNotice,
                params::kQueryMsgBytes,
                [this, qid] { queries_.finish(qid); });
    }
    return;
  }
  if (view->empty()) {
    queries_.finish(qid);
    return;
  }
  const NodeId next = (*view)[rng_.pick_index(view->size())].id;
  bus_.send(at, next, net::MsgType::kDutyQuery, params::kQueryMsgBytes,
            [this, qid, next, ttl] { query_hop(qid, next, ttl - 1); });
}

}  // namespace soc::gossip
