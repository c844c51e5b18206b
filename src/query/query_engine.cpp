#include "src/query/query_engine.hpp"

#include <algorithm>

#include "src/common/protocol_params.hpp"
#include "src/obs/trace.hpp"

namespace soc::query {

namespace {

/// Indexes an agent samples from its PIList into the jump list j (Alg. 4).
constexpr std::size_t kJumpListSize = 4;

/// Remove-and-return a random element; the message carries the remainder
/// ({ι − α} / {j − β} in the paper's notation).
NodeId take_random(std::vector<NodeId>& v, Rng& rng) {
  SOC_CHECK(!v.empty());
  const std::size_t i = rng.pick_index(v.size());
  const NodeId out = v[i];
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
  return out;
}

}  // namespace

QueryEngine::QueryEngine(index::IndexSystem& index)
    : index_(index), queries_(index.simulator(), params::kQueryTimeout),
      rng_(index.simulator().rng().fork("query-engine")) {}

void QueryEngine::submit_k(NodeId requester, const ResourceVector& demand,
                           const can::Point& target, std::size_t want,
                           Callback cb) {
  SOC_CHECK(want >= 1);
  const std::uint64_t qid =
      queries_.begin(requester, demand, want, std::move(cb));
  // Alg. 3: route the duty-query message to the node whose zone encloses v.
  index_.route(requester, target, net::MsgType::kDutyQuery,
               params::kQueryMsgBytes,
               [this, qid](NodeId duty) { on_duty_node(qid, duty); });
}

void QueryEngine::on_duty_node(std::uint64_t qid, NodeId duty) {
  PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  ++q->visited;
  if (obs::Tracer* t = obs::tracer()) {
    t->mark("query", "duty_node", qid, index_.simulator().now());
  }

  // The duty node is the boundary-corner node of the query range (Fig. 1):
  // its own zone overlaps the range, so its cache is searched before the
  // index agents take over (INSCAN-RQ starts checking there too).
  const std::size_t found_here = harvest_and_notify(qid, duty, q->want);
  if (queries_.find(qid) == nullptr) return;
  if (found_here >= q->want) return;  // in-flight notice will close

  // Alg. 3 lines 5–7: assemble ι from d positive adjacent neighbors (one
  // random pick per dimension, deduplicated).
  auto& space = index_.space();
  std::vector<NodeId> agents;
  for (std::size_t d = 0; d < space.dims(); ++d) {
    space.directional_neighbors(duty, d, can::Direction::kPositive,
                                dir_scratch_);
    if (dir_scratch_.empty()) continue;
    const NodeId pick = dir_scratch_[rng_.pick_index(dir_scratch_.size())];
    if (std::find(agents.begin(), agents.end(), pick) == agents.end()) {
      agents.push_back(pick);
    }
  }
  if (agents.empty()) {
    // Duty node sits at the positive corner of the space: it is itself the
    // only node that can hold qualified records.
    harvest_and_notify(qid, duty, q->want);
    queries_.finish(qid);
    return;
  }
  const NodeId alpha = take_random(agents, rng_);
  index_.bus().send(duty, alpha, net::MsgType::kIndexAgent,
                    params::kQueryMsgBytes,
                    [this, qid, alpha, agents = std::move(agents)] {
                      on_index_agent(qid, alpha, agents);
                    });
}

void QueryEngine::on_index_agent(std::uint64_t qid, NodeId at,
                                 std::vector<NodeId> agents) {
  PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  ++q->visited;
  if (!index_.tracks(at)) return;  // agent churned out; timeout will close

  // Alg. 4 line 1: sample a few indexes from the PIList into j.
  std::vector<NodeId> jumps = index_.pi_list(at).sample(
      kJumpListSize, index_.simulator().now(), rng_);

  const std::size_t remaining =
      q->want > q->results.size() ? q->want - q->results.size() : 0;
  if (remaining == 0) {
    queries_.finish(qid);
    return;
  }

  if (!jumps.empty()) {
    const NodeId beta = take_random(jumps, rng_);
    index_.bus().send(at, beta, net::MsgType::kIndexJump,
                      params::kQueryMsgBytes,
                      [this, qid, beta, jumps = std::move(jumps),
                       agents = std::move(agents), remaining] {
                        on_index_jump(qid, beta, jumps, agents, remaining);
                      });
    return;
  }
  // Alg. 4 lines 5–8: empty jump list → try the next agent.
  if (!agents.empty()) {
    const NodeId alpha = take_random(agents, rng_);
    index_.bus().send(at, alpha, net::MsgType::kIndexAgent,
                      params::kQueryMsgBytes,
                      [this, qid, alpha, agents = std::move(agents)] {
                        on_index_agent(qid, alpha, agents);
                      });
    return;
  }
  // All agents exhausted with nothing to jump to: the query ends early.
  queries_.finish(qid);
}

std::size_t QueryEngine::harvest_and_notify(std::uint64_t qid, NodeId at,
                                            std::size_t delta) {
  PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr || !index_.tracks(at)) return 0;

  // Alg. 5 line 1: search γ for records dominating v (into the reused
  // harvest scratch; results come out in ascending provider order).
  std::vector<index::Record>& qualified = record_scratch_;
  index_.cache(at).qualified_into(q->demand, index_.simulator().now(),
                                  qualified);
  // Skip providers this query already collected (duplicate notices).
  std::erase_if(qualified, [&](const index::Record& r) {
    return q->seen_providers.contains(r.provider);
  });
  if (qualified.empty()) return 0;
  if (qualified.size() > delta) qualified.resize(delta);
  if (obs::Tracer* t = obs::tracer()) {
    t->mark("query", "harvest", qid, index_.simulator().now());
  }

  // One FoundList message ϕ straight back to the requester.
  std::vector<Discovered> found;
  found.reserve(qualified.size());
  for (const auto& r : qualified) {
    found.push_back(Discovered{r.provider, r.availability});
    q->seen_providers.insert(r.provider);
  }
  index_.bus().send(
      at, q->requester, net::MsgType::kFoundNotice, params::kNoticeMsgBytes,
      [this, qid, found = std::move(found)] {
        PendingQueries::Query* open = queries_.find(qid);
        if (open == nullptr) return;
        open->results.insert(open->results.end(), found.begin(), found.end());
        if (open->satisfied()) queries_.finish(qid);
      });
  return qualified.size();
}

void QueryEngine::on_index_jump(std::uint64_t qid, NodeId at,
                                std::vector<NodeId> jumps,
                                std::vector<NodeId> agents,
                                std::size_t delta) {
  PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  ++q->visited;
  if (!index_.tracks(at)) return;

  // Alg. 5 lines 1–5: harvest and decrement δ.
  const std::size_t sent = harvest_and_notify(qid, at, delta);
  if (queries_.find(qid) == nullptr) return;  // finished inline
  delta = delta > sent ? delta - sent : 0;
  if (delta == 0) return;  // the in-flight notice will close the query

  // Alg. 5 lines 7–9: hop to the next index node.
  if (!jumps.empty()) {
    const NodeId beta = take_random(jumps, rng_);
    index_.bus().send(at, beta, net::MsgType::kIndexJump,
                      params::kQueryMsgBytes,
                      [this, qid, beta, jumps = std::move(jumps),
                       agents = std::move(agents), delta] {
                        on_index_jump(qid, beta, jumps, agents, delta);
                      });
    return;
  }
  // Alg. 5 lines 10–12: back to the agent track.
  if (!agents.empty()) {
    const NodeId alpha = take_random(agents, rng_);
    index_.bus().send(at, alpha, net::MsgType::kIndexAgent,
                      params::kQueryMsgBytes,
                      [this, qid, alpha, agents = std::move(agents)] {
                        on_index_agent(qid, alpha, agents);
                      });
    return;
  }
  queries_.finish(qid);
}

// ---------------------------------------------------------------------------
// INSCAN-RQ exhaustive range query

void QueryEngine::submit_full_range(NodeId requester,
                                    const ResourceVector& demand,
                                    const can::Point& target, Callback cb) {
  const std::uint64_t qid =
      queries_.begin(requester, demand, /*want=*/SIZE_MAX, std::move(cb));
  index_.route(requester, target, net::MsgType::kDutyQuery,
               params::kQueryMsgBytes, [this, qid, target](NodeId duty) {
                 PendingQueries::Query* q = queries_.find(qid);
                 if (q == nullptr) return;
                 q->outstanding = 1;
                 q->reached.insert(duty);
                 flood_visit(qid, duty, target);
               });
}

void QueryEngine::flood_visit(std::uint64_t qid, NodeId at,
                              const can::Point& corner) {
  PendingQueries::Query* q = queries_.find(qid);
  if (q == nullptr) return;
  ++q->visited;
  SOC_CHECK(q->outstanding > 0);
  --q->outstanding;

  auto& space = index_.space();
  if (index_.tracks(at) && space.contains(at)) {
    // Collect local qualified records directly (the flood already costs
    // O(N) messages; results ride back on one notice per responsible node).
    std::vector<index::Record>& qualified = record_scratch_;
    index_.cache(at).qualified_into(q->demand, index_.simulator().now(),
                                    qualified);
    for (const auto& r : qualified) q->add(r.provider, r.availability);
    // Forward to every unvisited neighbor whose zone still intersects the
    // query range [corner, 1]^d.
    for (const can::CanSpace::NeighborLink& l : space.neighbor_links(at)) {
      const NodeId n = l.id;
      if (q->reached.contains(n)) continue;
      if (!space.zone_of(n).intersects_upper_range(corner)) continue;
      q->reached.insert(n);
      ++q->outstanding;
      index_.bus().send(at, n, net::MsgType::kDutyQuery,
                        params::kQueryMsgBytes, [this, qid, n, corner] {
                          flood_visit(qid, n, corner);
                        });
    }
  }
  if (q->outstanding == 0) queries_.finish(qid);
}

}  // namespace soc::query
