// The contention-minimized multi-dimensional range query of §III.C:
// duty-query (Alg. 3) → index-agent (Alg. 4) → index-jump (Alg. 5).
//
// A query issues a single duty-query message routed to the node whose zone
// encloses the expectation vector; that duty node picks d random positive
// adjacent neighbors as index agents; agents sample their PILists into a
// jump list; jump messages hop from record-holder to record-holder,
// each returning qualified records (FoundList ϕ) directly to the
// requester, until δ results are found or agents and jumps are exhausted.
//
// The engine also implements INSCAN-RQ (§III.A): the delay-bounded but
// traffic-heavy exhaustive range query used as the paper's motivation for
// bounding per-query traffic — reproduced here for the micro benchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/stats.hpp"
#include "src/index/inscan.hpp"

namespace soc::query {

struct QueryConfig {
  std::size_t jump_list_size = 4;    ///< indexes sampled into j (Alg. 4)
  SimTime timeout = seconds(90);     ///< requester-side deadline
  std::size_t query_msg_bytes = 128;
  std::size_t notice_msg_bytes = 160;
};

/// Aggregate outcome counters for the evaluation.
struct QueryStats {
  std::uint64_t submitted = 0;
  std::uint64_t satisfied = 0;   ///< got ≥ δ results
  std::uint64_t partial = 0;     ///< got > 0 but < δ results
  std::uint64_t failed = 0;      ///< got nothing
  RunningStats delay_seconds;    ///< submit → completion
  RunningStats visited_nodes;    ///< protocol handlers touched per query
};

class QueryEngine {
 public:
  using Callback = std::function<void(std::vector<Discovered>)>;

  QueryEngine(index::IndexSystem& index, QueryConfig config);

  /// Submit the PID-CAN query for `want` (δ, first-k) results.  `target`
  /// is the CAN point of the demand (normalized expectation vector; the VD
  /// variant appends its virtual coordinate).  The callback fires exactly
  /// once, possibly with fewer than δ (even zero) candidates.
  void submit_k(NodeId requester, const ResourceVector& demand,
                const can::Point& target, std::size_t want, Callback cb);

  /// INSCAN-RQ exhaustive range query: flood every responsible node whose
  /// zone intersects [demand, c_max].
  void submit_full_range(NodeId requester, const ResourceVector& demand,
                         const can::Point& target, Callback cb);

  [[nodiscard]] const QueryStats& stats() const { return stats_; }
  [[nodiscard]] const QueryConfig& config() const { return config_; }

 private:
  struct Pending {
    NodeId requester;
    ResourceVector demand;
    std::size_t want = 1;
    std::vector<Discovered> results;
    std::unordered_set<NodeId> seen_providers;
    sim::EventHandle timeout;
    Callback cb;
    SimTime submitted_at = 0;
    std::uint64_t visited = 0;
    // Full-range bookkeeping:
    std::unordered_set<NodeId> flood_visited;
    std::size_t flood_outstanding = 0;
  };

  std::uint64_t begin_query(NodeId requester, const ResourceVector& demand,
                            std::size_t want, Callback cb);
  void finish(std::uint64_t qid);
  void on_duty_node(std::uint64_t qid, NodeId duty);
  void on_index_agent(std::uint64_t qid, NodeId at,
                      std::vector<NodeId> agents);
  void on_index_jump(std::uint64_t qid, NodeId at, std::vector<NodeId> jumps,
                     std::vector<NodeId> agents, std::size_t delta);
  /// Harvest local qualified records into ϕ and ship them to the
  /// requester; returns how many were sent.
  std::size_t harvest_and_notify(std::uint64_t qid, NodeId at,
                                 std::size_t delta);
  void flood_visit(std::uint64_t qid, NodeId at, const can::Point& corner);

  index::IndexSystem& index_;
  /// Scratch for allocation-free directional-neighbor filtering.
  std::vector<NodeId> dir_scratch_;
  /// Scratch for allocation-free qualified-record harvests (single-threaded;
  /// every harvest finishes with the records copied out before the next).
  std::vector<index::Record> record_scratch_;
  QueryConfig config_;
  QueryStats stats_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_qid_ = 1;
  Rng rng_;
};

}  // namespace soc::query
