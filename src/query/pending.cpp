#include "src/query/pending.hpp"

#include <utility>

#include "src/obs/trace.hpp"

namespace soc::query {

std::uint64_t PendingQueries::begin(NodeId requester,
                                    const ResourceVector& demand,
                                    std::size_t want, Callback cb) {
  const std::uint64_t qid = next_qid_++;
  Query q;
  q.requester = requester;
  q.demand = demand;
  q.want = want;
  q.cb = std::move(cb);
  q.submitted_at = sim_.now();
  q.deadline = sim_.schedule_after(timeout_, [this, qid] { finish(qid); });
  open_.emplace(qid, std::move(q));
  ++stats_.submitted;
  if (obs::Tracer* t = obs::tracer()) {
    t->begin("query", "query", qid, sim_.now());
  }
  return qid;
}

void PendingQueries::finish(std::uint64_t qid) {
  const auto it = open_.find(qid);
  if (it == open_.end()) return;
  Query q = std::move(it->second);
  open_.erase(it);
  sim_.cancel(q.deadline);

  if (q.satisfied()) {
    ++stats_.satisfied;
  } else if (!q.results.empty()) {
    ++stats_.partial;
  } else {
    ++stats_.failed;
  }
  stats_.delay_seconds.add(to_seconds(sim_.now() - q.submitted_at));
  stats_.visited_nodes.add(static_cast<double>(q.visited));
  if (obs::Tracer* t = obs::tracer()) {
    t->end("query", "query", qid, sim_.now());
  }
  if (q.cb) q.cb(std::move(q.results));
}

}  // namespace soc::query
