// Simulated message delivery between hosts, with per-type and per-node
// accounting.  The per-node sent/forwarded counter is exactly the paper's
// "message delivery cost" metric (Table III).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/inline_fn.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/net/link_model.hpp"
#include "src/net/topology.hpp"
#include "src/obs/profiler.hpp"
#include "src/sim/simulator.hpp"

namespace soc::net {

/// Every protocol message in the system, for traffic accounting.
enum class MsgType : std::uint8_t {
  kStateUpdate,    ///< availability record routed to its duty node
  kIndexDiffuse,   ///< Alg. 1/2 index (identifier) diffusion
  kIndexProbe,     ///< INSCAN directional walks building index tables
  kDutyQuery,      ///< Alg. 3 query routed to duty node
  kIndexAgent,     ///< Alg. 4 agent message
  kIndexJump,      ///< Alg. 5 jump message
  kFoundNotice,    ///< FoundList ϕ back to requester
  kGossip,         ///< Newscast cache exchange
  kKhdnSpread,     ///< KHDN-CAN K-hop state spreading
  kDispatch,       ///< task dispatch / admission result
  kMaintenance,    ///< join/leave overlay maintenance
  kCount
};

[[nodiscard]] std::string_view msg_type_name(MsgType t);

/// Traffic accounting across the whole simulation.  Alongside the paper's
/// sent-side cost metric, delivery outcomes are tracked per type: a message
/// either reaches a live destination (delivered), is dropped because the
/// destination churned out or the link lost it (lost), or is swallowed by
/// an active network partition (partitioned — accounted separately so
/// partition damage is distinguishable from churn/burst loss).
class TrafficStats {
 public:
  void on_send(MsgType type);
  void on_delivered(MsgType type);
  void on_lost(MsgType type);
  /// A cross-partition message reached its would-be arrival time: resolved
  /// as partitioned, never delivered.
  void on_partitioned(MsgType type);
  /// Sent-side-only accounting charge with no simulated delivery (the
  /// protocols bill join/leave maintenance traffic this way).  Counts
  /// toward sent()/per_node_cost like a real send, but is tracked
  /// separately so the conservation law stays exact:
  ///   sent == delivered + lost + partitioned + in_flight + synthetic.
  void on_synthetic_send(MsgType type);

  [[nodiscard]] std::uint64_t sent(MsgType type) const;
  [[nodiscard]] std::uint64_t delivered(MsgType type) const;
  [[nodiscard]] std::uint64_t lost(MsgType type) const;
  [[nodiscard]] std::uint64_t partitioned(MsgType type) const;
  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t total_delivered() const;
  [[nodiscard]] std::uint64_t total_lost() const;
  [[nodiscard]] std::uint64_t total_partitioned() const;

  /// Messages sent but not yet resolved.  Together with the above this
  /// pins the per-type conservation law the sim_fuzz harness asserts at
  /// every instant:
  ///   sent == delivered + lost + partitioned + in_flight + synthetic.
  [[nodiscard]] std::uint64_t in_flight(MsgType type) const;
  [[nodiscard]] std::uint64_t total_in_flight() const;
  [[nodiscard]] std::uint64_t synthetic(MsgType type) const;

  /// Paper metric: messages sent/forwarded per node, averaged over the
  /// node population.
  [[nodiscard]] double per_node_cost(std::size_t node_count) const;

  void reset();

 private:
  static constexpr std::size_t kTypes =
      static_cast<std::size_t>(MsgType::kCount);

  std::array<std::uint64_t, kTypes> by_type_{};
  std::array<std::uint64_t, kTypes> delivered_{};
  std::array<std::uint64_t, kTypes> lost_{};
  std::array<std::uint64_t, kTypes> partitioned_{};
  std::array<std::uint64_t, kTypes> in_flight_{};
  std::array<std::uint64_t, kTypes> synthetic_{};
};

/// Point-to-point delivery with topology-derived delay.  Liveness is
/// consulted at delivery time so messages to churned-out hosts are lost,
/// like UDP datagrams to a dead peer.
///
/// Each in-flight message is one event: send() schedules a 72-byte delivery
/// record (destination, type, sealed fate and the callback) straight into
/// the event queue, where it sits inline in one event slot.  The per
/// message cost is zero heap allocations (small captures stay inside the
/// InlineFn buffer; the queue's slab reuses slots as messages arrive).
class MessageBus {
 public:
  MessageBus(sim::Simulator& sim, const Topology& topo);

  /// Liveness oracle; unset means "all hosts alive".
  void set_liveness(std::function<bool(NodeId)> is_alive);

  using DeliverFn = InlineFn<void()>;

  /// Send `bytes` from `from` to `to`; `on_deliver` runs at arrival time if
  /// the destination is still alive then.  Self-sends deliver after a
  /// minimal local delay (and bypass partitions and link faults).
  void send(NodeId from, NodeId to, MsgType type, std::size_t bytes,
            DeliverFn on_deliver);

  /// Attach the opt-in correlated-fault layer (burst loss, reordering,
  /// duplication, stragglers).  Forks the "link-model" RNG stream from the
  /// simulator root — only here, so a bus without faults draws the exact
  /// same streams as before this layer existed.
  void enable_link_faults(const LinkFaultConfig& config);

  /// Partition the network: messages between a host inside the cut LAN
  /// set and one outside resolve as `partitioned` at their would-be
  /// arrival time (the fate is sealed at send time, so a message in
  /// flight across the cut when it heals is still swallowed).  Replaces
  /// any previous cut.
  void set_partition(std::vector<std::size_t> cut_lans);
  /// Heal: subsequent sends cross freely again.
  void clear_partition();
  [[nodiscard]] bool partition_active() const { return !cut_lans_.empty(); }
  /// Is this host inside the cut LAN set of the active partition?
  [[nodiscard]] bool in_partition_cut(NodeId id) const;

  [[nodiscard]] TrafficStats& stats() { return stats_; }
  [[nodiscard]] const TrafficStats& stats() const { return stats_; }

  /// Messages sent but not yet resolved at their arrival time; the
  /// invariant checker holds it equal to stats().total_in_flight().
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Attach (or with nullptr detach) a handler wall-time profiler: each
  /// delivered message's handler execution is timed and recorded into
  /// the profiler's per-MsgType bucket, in nanoseconds.  Pure observer —
  /// installing it changes no simulated behavior — but it costs a
  /// clock_gettime pair per delivery, so it is off unless a report tool
  /// asks.  The profiler must outlive the bus or be detached first.
  void set_time_profiler(obs::TimeProfiler* profiler) {
    profiler_ = profiler;
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  /// Per-message outcome, sealed at send time (deterministic replay) and
  /// resolved when the message reaches its would-be arrival time.
  enum class Fate : std::uint8_t { kDeliver, kLost, kPartitioned };

  /// One in-flight message, scheduled as the event that resolves it.
  struct Delivery {
    MessageBus* bus;
    NodeId to;
    MsgType type;
    Fate fate;
    DeliverFn fn;

    void operator()();
  };

  void schedule_delivery(SimTime delay, NodeId to, MsgType type, Fate fate,
                         DeliverFn&& fn);

  sim::Simulator& sim_;
  const Topology& topo_;
  Rng jitter_rng_;
  TrafficStats stats_;
  std::function<bool(NodeId)> is_alive_;
  std::size_t in_flight_ = 0;
  std::unique_ptr<LinkModel> link_model_;  ///< null unless faults enabled
  std::vector<std::size_t> cut_lans_;      ///< sorted; empty = no partition
  obs::TimeProfiler* profiler_ = nullptr;  ///< null unless a report asks
};

}  // namespace soc::net
