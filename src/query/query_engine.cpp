#include "src/query/query_engine.hpp"

#include <algorithm>

#include "src/obs/trace.hpp"

namespace soc::query {

namespace {

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

QueryEngine::QueryEngine(index::IndexSystem& index, QueryConfig config)
    : index_(index), config_(config),
      rng_(index.simulator().rng().fork("query-engine")) {}

std::uint64_t QueryEngine::begin_query(NodeId requester,
                                       const ResourceVector& demand,
                                       std::size_t want, Callback cb) {
  const std::uint64_t qid = next_qid_++;
  Pending p;
  p.requester = requester;
  p.demand = demand;
  p.want = want;
  p.cb = std::move(cb);
  p.submitted_at = index_.simulator().now();
  p.timeout = index_.simulator().schedule_after(
      config_.timeout, [this, qid] { finish(qid); });
  pending_.emplace(qid, std::move(p));
  ++stats_.submitted;
  if (obs::Tracer* t = obs::tracer()) {
    t->begin("query", "query", qid, index_.simulator().now());
  }
  return qid;
}

void QueryEngine::finish(std::uint64_t qid) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  index_.simulator().cancel(p.timeout);

  if (p.results.size() >= p.want) {
    ++stats_.satisfied;
  } else if (!p.results.empty()) {
    ++stats_.partial;
  } else {
    ++stats_.failed;
  }
  stats_.delay_seconds.add(
      to_seconds(index_.simulator().now() - p.submitted_at));
  stats_.visited_nodes.add(static_cast<double>(p.visited));
  if (obs::Tracer* t = obs::tracer()) {
    t->end("query", "query", qid, index_.simulator().now());
  }
  if (p.cb) p.cb(std::move(p.results));
}

void QueryEngine::submit_k(NodeId requester, const ResourceVector& demand,
                           const can::Point& target, std::size_t want,
                           Callback cb) {
  SOC_CHECK(want >= 1);
  const std::uint64_t qid = begin_query(requester, demand, want,
                                        std::move(cb));
  // Alg. 3: route the duty-query message to the node whose zone encloses v.
  index_.route(requester, target, net::MsgType::kDutyQuery,
               config_.query_msg_bytes,
               [this, qid](NodeId duty) { on_duty_node(qid, duty); });
}

void QueryEngine::on_duty_node(std::uint64_t qid, NodeId duty) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  ++it->second.visited;
  if (obs::Tracer* t = obs::tracer()) {
    t->mark("query", "duty_node", qid, index_.simulator().now());
  }

  // The duty node is the boundary-corner node of the query range (Fig. 1):
  // its own zone overlaps the range, so its cache is searched before the
  // index agents take over (INSCAN-RQ starts checking there too).
  const std::size_t found_here =
      harvest_and_notify(qid, duty, it->second.want);
  if (pending_.find(qid) == pending_.end()) return;
  if (found_here >= it->second.want) return;  // in-flight notice will close

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
    harvest_and_notify(qid, duty, it->second.want);
    finish(qid);
    return;
  }
  const NodeId alpha = take_random(agents, rng_);
  index_.bus().send(duty, alpha, net::MsgType::kIndexAgent,
                    config_.query_msg_bytes,
                    [this, qid, alpha, agents = std::move(agents)] {
                      on_index_agent(qid, alpha, agents);
                    });
}

void QueryEngine::on_index_agent(std::uint64_t qid, NodeId at,
                                 std::vector<NodeId> agents) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  ++p.visited;
  if (!index_.tracks(at)) return;  // agent churned out; timeout will close

  // Alg. 4 line 1: sample a few indexes from the PIList into j.
  std::vector<NodeId> jumps = index_.pi_list(at).sample(
      config_.jump_list_size, index_.simulator().now(), rng_);

  const std::size_t remaining =
      p.want > p.results.size() ? p.want - p.results.size() : 0;
  if (remaining == 0) {
    finish(qid);
    return;
  }

  if (!jumps.empty()) {
    const NodeId beta = take_random(jumps, rng_);
    index_.bus().send(at, beta, net::MsgType::kIndexJump,
                      config_.query_msg_bytes,
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
                      config_.query_msg_bytes,
                      [this, qid, alpha, agents = std::move(agents)] {
                        on_index_agent(qid, alpha, agents);
                      });
    return;
  }
  // All agents exhausted with nothing to jump to: the query ends early.
  finish(qid);
}

std::size_t QueryEngine::harvest_and_notify(std::uint64_t qid, NodeId at,
                                            std::size_t delta) {
  const auto it = pending_.find(qid);
  if (it == pending_.end() || !index_.tracks(at)) return 0;
  Pending& p = it->second;

  // Alg. 5 line 1: search γ for records dominating v (into the reused
  // harvest scratch; results come out in ascending provider order).
  std::vector<index::Record>& qualified = record_scratch_;
  index_.cache(at).qualified_into(p.demand, index_.simulator().now(),
                                  qualified);
  // Skip providers this query already collected (duplicate notices).
  std::erase_if(qualified, [&](const index::Record& r) {
    return p.seen_providers.contains(r.provider);
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
    p.seen_providers.insert(r.provider);
  }
  index_.bus().send(
      at, p.requester, net::MsgType::kFoundNotice, config_.notice_msg_bytes,
      [this, qid, found = std::move(found)] {
        const auto pit = pending_.find(qid);
        if (pit == pending_.end()) return;
        Pending& pp = pit->second;
        pp.results.insert(pp.results.end(), found.begin(), found.end());
        if (pp.results.size() >= pp.want) finish(qid);
      });
  return qualified.size();
}

void QueryEngine::on_index_jump(std::uint64_t qid, NodeId at,
                                std::vector<NodeId> jumps,
                                std::vector<NodeId> agents,
                                std::size_t delta) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  ++it->second.visited;
  if (!index_.tracks(at)) return;

  // Alg. 5 lines 1–5: harvest and decrement δ.
  const std::size_t sent = harvest_and_notify(qid, at, delta);
  if (pending_.find(qid) == pending_.end()) return;  // finished inline
  delta = delta > sent ? delta - sent : 0;
  if (delta == 0) return;  // the in-flight notice will close the query

  // Alg. 5 lines 7–9: hop to the next index node.
  if (!jumps.empty()) {
    const NodeId beta = take_random(jumps, rng_);
    index_.bus().send(at, beta, net::MsgType::kIndexJump,
                      config_.query_msg_bytes,
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
                      config_.query_msg_bytes,
                      [this, qid, alpha, agents = std::move(agents)] {
                        on_index_agent(qid, alpha, agents);
                      });
    return;
  }
  finish(qid);
}

// ---------------------------------------------------------------------------
// INSCAN-RQ exhaustive range query

void QueryEngine::submit_full_range(NodeId requester,
                                    const ResourceVector& demand,
                                    const can::Point& target, Callback cb) {
  const std::uint64_t qid =
      begin_query(requester, demand, /*want=*/SIZE_MAX, std::move(cb));
  index_.route(requester, target, net::MsgType::kDutyQuery,
               config_.query_msg_bytes, [this, qid, target](NodeId duty) {
                 const auto it = pending_.find(qid);
                 if (it == pending_.end()) return;
                 it->second.flood_outstanding = 1;
                 it->second.flood_visited.insert(duty);
                 flood_visit(qid, duty, target);
               });
}

void QueryEngine::flood_visit(std::uint64_t qid, NodeId at,
                              const can::Point& corner) {
  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  ++p.visited;
  SOC_CHECK(p.flood_outstanding > 0);
  --p.flood_outstanding;

  auto& space = index_.space();
  if (index_.tracks(at) && space.contains(at)) {
    // Collect local qualified records directly (the flood already costs
    // O(N) messages; results ride back on one notice per responsible node).
    std::vector<index::Record>& qualified = record_scratch_;
    index_.cache(at).qualified_into(p.demand, index_.simulator().now(),
                                    qualified);
    for (const auto& r : qualified) {
      if (p.seen_providers.insert(r.provider).second) {
        p.results.push_back(Discovered{r.provider, r.availability});
      }
    }
    // Forward to every unvisited neighbor whose zone still intersects the
    // query range [corner, 1]^d.
    for (const NodeId n : space.neighbors_of(at)) {
      if (p.flood_visited.contains(n)) continue;
      if (!space.zone_of(n).intersects_upper_range(corner)) continue;
      p.flood_visited.insert(n);
      ++p.flood_outstanding;
      index_.bus().send(at, n, net::MsgType::kDutyQuery,
                        config_.query_msg_bytes, [this, qid, n, corner] {
                          flood_visit(qid, n, corner);
                        });
    }
  }
  if (p.flood_outstanding == 0) finish(qid);
}

}  // namespace soc::query
