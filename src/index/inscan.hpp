// INSCAN — Index-Node Supported CAN (§III.A/B of the paper).
//
// The IndexSystem owns, for every overlay member:
//   * the record cache γ it keeps as a duty node,
//   * its PIList (positive indexes received via diffusion), and
//   * its 2^k-hop index-node tables per dimension/direction,
// and implements the three proactive mechanisms that run on top of CAN:
//   * periodic state updates routed to duty nodes (availability records
//     with a 600 s TTL, published every 400 s),
//   * periodic directional probe walks that (re)build the index tables,
//   * the index-sender / index-relay diffusion of Algorithms 1–2, in both
//     the spreading (SID) and hopping (HID) variants.
//
// All traffic flows hop-by-hop through the MessageBus so delay and the
// message-delivery-cost metric are physical.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/can/router.hpp"
#include "src/can/space.hpp"
#include "src/common/dense_node_map.hpp"
#include "src/common/protocol_params.hpp"
#include "src/index/index_table.hpp"
#include "src/index/pi_list.hpp"
#include "src/index/record.hpp"
#include "src/net/message_bus.hpp"
#include "src/sim/simulator.hpp"

namespace soc::index {

enum class DiffusionMethod : std::uint8_t {
  kSpreading,  // SID: the sender alone picks L targets on each dimension
  kHopping,    // HID: indexes relay from index-node to index-node (Alg. 2)
};

/// Two defensible readings of the paper's spreading method (Fig. 3(a)):
/// the figure shows index nodes only on the *sender's* axis tracks
/// (d·L messages, no cascade), while the cost analysis ω = L(L^d−1)/(L−1)
/// implies receivers open the next dimension like the hopping method.
/// The strict reading reproduces the paper's SID-vs-HID ranking and is the
/// default; the cascade reading is available for the interpretation
/// ablation (`sweep_run --preset ablation-spreading`).
enum class SpreadingScope : std::uint8_t {
  kSenderTracks,  // strict Fig. 3(a): d·L direct messages, receivers store
  kCascade,       // ω-based: receivers spawn the next dimension themselves
};

/// What callers vary: the diffusion method and the three ablation axes
/// (the experiment sets them from the protocol kind and the sweep
/// variant), and the four periods (bench_micro pushes them past its run to
/// freeze periodic traffic).  Everything else is a constant in inscan.cpp
/// or src/common/protocol_params.hpp.
struct InscanConfig {
  DiffusionMethod diffusion = DiffusionMethod::kHopping;
  std::size_t index_fanout_L = 2;           ///< L (paper fixes it to 2)
  IndexSelectPolicy select_policy = IndexSelectPolicy::kRandomPowerLevel;
  SpreadingScope spreading_scope = SpreadingScope::kSenderTracks;
  SimTime state_update_period = params::kStateUpdatePeriod;
  SimTime diffusion_period = seconds(100);  ///< Alg. 1 "tiny cycle"
  SimTime index_refresh_period = seconds(900);
  SimTime index_entry_ttl = seconds(2700);
};

class IndexSystem {
 public:
  /// Supplies a node's current availability record when it is time to
  /// publish; nullopt suppresses the update (e.g. node busy joining).
  using AvailabilityProvider =
      std::function<std::optional<Record>(NodeId)>;
  using Config = InscanConfig;

  /// Installs the CanSpace rehome listener, so records re-home on zone
  /// changes.
  IndexSystem(sim::Simulator& sim, net::MessageBus& bus, can::CanSpace& space,
              InscanConfig config, Rng rng);
  IndexSystem(const IndexSystem&) = delete;
  IndexSystem& operator=(const IndexSystem&) = delete;

  void set_availability_provider(AvailabilityProvider provider) {
    provider_ = std::move(provider);
  }

  /// Start protocol state and periodic processes for a member (the node
  /// must already be in the CanSpace).
  void add_node(NodeId id);
  /// Drop protocol state (overlay departure).
  void remove_node(NodeId id);
  [[nodiscard]] bool tracks(NodeId id) const { return state_.contains(id); }
  /// Storage density of the per-node state map (slot_span/size).
  [[nodiscard]] double span_ratio() const { return state_.span_ratio(); }

  /// A member's protocol state.  park_node() extracts it whole before a
  /// partition teardown and restore_node() takes it back at heal time; the
  /// RNG rides along so the node's draw stream survives the cut.
  struct NodeState {
    RecordStore cache;
    PiList pi;
    IndexTable table;
    Rng rng;
    /// Where the node's previous record was filed, so a republish can
    /// invalidate the stale copy when the availability point moved zones.
    std::optional<can::Point> last_location;
    /// The number start_periodics() gave the node's periodic processes: a
    /// process retires once the node's state holds another (the node left
    /// or rejoined), so a series from before a partition shorter than one
    /// period cannot run beside the new one.
    std::uint32_t incarnation = 0;

    [[nodiscard]] std::size_t mem_bytes() const {
      return cache.mem_bytes() + pi.mem_bytes() + table.mem_bytes();
    }
  };
  using ParkedNode = NodeState;

  /// Extract `id`'s full NodeState ahead of a partition teardown.  The
  /// caller runs the normal departure path next (remove_node + space
  /// leave), which hands no record to the takeover node — records behind
  /// the cut are unreachable from the majority until the heal.  The last
  /// location is dropped: the rejoined node publishes as if for the first
  /// time.
  [[nodiscard]] ParkedNode park_node(NodeId id);

  /// Re-enter `id` (already re-joined to the CanSpace) with its parked
  /// stale state.  Reconciliation rides the existing maintenance paths:
  /// the duty cache goes through reconcile_parked() (out-of-zone records
  /// re-route as ordinary state updates), the stale index table refreshes
  /// via bootstrap probes, and the periodic processes restart on the
  /// parked RNG stream.
  void restore_node(NodeId id, ParkedNode parked);

  [[nodiscard]] RecordStore& cache(NodeId id);
  [[nodiscard]] PiList& pi_list(NodeId id);
  [[nodiscard]] IndexTable& table(NodeId id);

  using ArriveFn = can::ArriveFn;

  /// Route a message greedily toward `target` with can::GreedyRouter and
  /// the route TTL; `on_arrive` runs at the owner of the target point.
  /// The index tables serve as additional fingers beside the CAN
  /// neighbors (INSCAN's O(log² n) routing).
  void route(NodeId from, const can::Point& target, net::MsgType type,
             std::size_t bytes, ArriveFn on_arrive);

  /// Publish `id`'s availability record now (also runs periodically).
  void publish_now(NodeId id);

  /// Run one Alg. 1 index-sender round for `id` now (also periodic).
  void diffuse_now(NodeId id);

  /// Launch one probe walk along (dim, dir) for `id` now (also periodic).
  void probe_now(NodeId id, std::size_t dim, can::Direction dir);

  /// Pick a NINode per the configured policy (exposed for tests).
  [[nodiscard]] std::optional<NodeId> pick_index_node(NodeId id,
                                                      std::size_t dim,
                                                      can::Direction dir);

  /// Ids with materialized protocol state, ascending (fuzz/diagnostics).
  [[nodiscard]] std::vector<NodeId> tracked_ids() const;

  /// Membership-consistency oracle (sim_fuzz): the set of nodes with
  /// materialized NodeState must be exactly the CanSpace member set.  A
  /// probe walk whose origin departed re-materializing state for a
  /// non-member (the ghost-walk bug) is precisely a violation here.
  /// Returns an empty string when consistent, else a description.
  [[nodiscard]] std::string check_membership_consistency() const;

  /// Protocol activity counters (diagnostics and tests).
  struct Activity {
    std::uint64_t diffusion_rounds = 0;      ///< periodic sender wakeups
    std::uint64_t diffusion_initiations = 0; ///< rounds with non-empty cache
    std::uint64_t diffusion_relays = 0;      ///< Alg. 2 handler invocations
    std::uint64_t publishes = 0;
    std::uint64_t invalidations = 0;
  };
  [[nodiscard]] const Activity& activity() const { return activity_; }

  /// Bytes claimed by the per-node index state: record caches, PILists,
  /// index tables and the dense map itself (attribution-profiler hook;
  /// O(members), report-time only).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b =
        state_.mem_bytes() + dir_scratch_.capacity() * sizeof(NodeId);
    for (const auto& [id, st] : state_) {
      (void)id;
      b += st.mem_bytes();
    }
    return b;
  }

  [[nodiscard]] const InscanConfig& config() const { return config_; }
  [[nodiscard]] can::CanSpace& space() { return space_; }
  [[nodiscard]] net::MessageBus& bus() { return bus_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  /// The routing hook: live index-table entries as extra candidates.
  /// Defined here so the router's hop inlines it.
  struct Fingers {
    IndexSystem* self;
    void operator()(NodeId at, const can::Point& target, NodeId& best,
                    double& best_d, double& best_c) const {
      const NodeState* st = self->state_.find(at);
      if (st == nullptr) return;
      // One lookup per finger: row_of() is null for a finger that has
      // left; a containing finger ends the scan.
      bool contained = false;
      const SimTime now = self->sim_.now();
      st->table.for_each_live(now, [&](const IndexTable::Entry& e) {
        if (contained || e.id == at) return;
        if (const can::ZoneRow row = self->space_.row_of(e.id)) {
          contained = can::rank_toward(row, e.id, target, best, best_d, best_c);
        }
      });
    }
  };

  /// One directional probe walk's state, shared across its hop closures
  /// (allocated once per walk, like a route) so every per-hop closure is
  /// {this, walk, next} and stays inside the 48-byte InlineFn buffer — no
  /// heap fallback per probe hop.
  struct ProbeWalk {
    NodeId origin;
    SimTime started_at = 0;
    std::uint32_t dim = 0;
    can::Direction dir = can::Direction::kNegative;
    std::uint32_t hops = 0;
    std::uint32_t level = 0;
    std::vector<IndexTable::Entry> found;
  };

  NodeState& state(NodeId id);
  void start_periodics(NodeId id);
  /// Whether `id` is still a member in incarnation `inc`.
  [[nodiscard]] bool current(NodeId id, std::uint32_t inc) const {
    const NodeState* st = state_.find(id);
    return st != nullptr && st->incarnation == inc && space_.contains(id);
  }
  void handle_diffuse(NodeId at, NodeId subject, std::size_t dim,
                      std::size_t ttl);
  /// SID spreading: emit L next-dimension messages from `at` (the sender
  /// picks all same-dimension targets itself).
  void spread_dimension(NodeId at, NodeId subject, std::size_t dim);
  void probe_step(NodeId at, const std::shared_ptr<ProbeWalk>& walk);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  can::CanSpace& space_;
  InscanConfig config_;
  Rng rng_;
  AvailabilityProvider provider_;
  DenseNodeMap<NodeState> state_;
  std::uint32_t incarnations_ = 0;  ///< numbers handed out so far
  /// Scratch for allocation-free directional-neighbor filtering (the
  /// simulation is single-threaded; every user copies its pick out before
  /// the next refill).
  std::vector<NodeId> dir_scratch_;
  Activity activity_;
  can::GreedyRouter<Fingers> router_;
};

}  // namespace soc::index
