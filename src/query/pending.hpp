// The requester side of a discovery query, written once for every
// protocol: the query id, the deadline, the collected results with
// provider dedup, the exactly-once finish, the outcome counters and the
// `query` trace span.  PID-CAN's QueryEngine, KHDN-CAN and Newscast differ
// only in how their messages reach the records; each keeps one table.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/resource_vector.hpp"
#include "src/common/stats.hpp"
#include "src/sim/simulator.hpp"

namespace soc::query {

/// Aggregate outcome counters for the evaluation.
struct QueryStats {
  std::uint64_t submitted = 0;
  std::uint64_t satisfied = 0;   ///< got ≥ δ results
  std::uint64_t partial = 0;     ///< got > 0 but < δ results
  std::uint64_t failed = 0;      ///< got nothing
  RunningStats delay_seconds;    ///< submit → completion
  RunningStats visited_nodes;    ///< protocol handlers touched per query
};

class PendingQueries {
 public:
  using Callback = std::function<void(std::vector<Discovered>)>;

  struct Query {
    NodeId requester;
    ResourceVector demand;
    std::size_t want = 1;
    std::vector<Discovered> results;
    /// Providers already collected: each counts once per query.
    std::unordered_set<NodeId> seen_providers;
    std::uint64_t visited = 0;  ///< protocol handlers touched
    /// Scan bookkeeping (KHDN's K-hop scan, INSCAN-RQ's flood): the nodes
    /// already reached and the visits still in flight.
    std::unordered_set<NodeId> reached;
    std::size_t outstanding = 0;
    SimTime submitted_at = 0;
    sim::EventHandle deadline;
    Callback cb;

    /// Collect `provider` unless the query already has it; true if new.
    bool add(NodeId provider, const ResourceVector& availability) {
      if (!seen_providers.insert(provider).second) return false;
      results.push_back(Discovered{provider, availability});
      return true;
    }
    [[nodiscard]] bool satisfied() const { return results.size() >= want; }
  };

  /// Queries still open `timeout` after they began finish then.
  PendingQueries(sim::Simulator& sim, SimTime timeout)
      : sim_(sim), timeout_(timeout) {}
  PendingQueries(const PendingQueries&) = delete;
  PendingQueries& operator=(const PendingQueries&) = delete;

  /// Open a query for `want` results: assign its id, arm the deadline,
  /// count it and open its `query` trace span.
  std::uint64_t begin(NodeId requester, const ResourceVector& demand,
                      std::size_t want, Callback cb);

  /// The open query `qid`, or nullptr once it has finished.
  [[nodiscard]] Query* find(std::uint64_t qid) {
    const auto it = open_.find(qid);
    return it == open_.end() ? nullptr : &it->second;
  }

  /// Close `qid` — the single completion point of every protocol's query:
  /// cancel the deadline, count the outcome, close the span and hand the
  /// results to the callback.  The callback runs exactly once per query;
  /// finishing a closed query is a no-op.
  void finish(std::uint64_t qid);

  [[nodiscard]] const QueryStats& stats() const { return stats_; }

 private:
  sim::Simulator& sim_;
  SimTime timeout_;
  std::unordered_map<std::uint64_t, Query> open_;
  std::uint64_t next_qid_ = 1;
  QueryStats stats_;
};

}  // namespace soc::query
