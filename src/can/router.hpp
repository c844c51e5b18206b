// CAN greedy routing over the message bus: one bus message per hop,
// arriving at the owner of the target point.  GreedyRouter is the one
// asynchronous router both CAN protocols run — KHDN-CAN with the vanilla
// O(n^{1/d}) CAN rule, INSCAN with its index-table fingers as extra
// candidates (index::IndexSystem::route).  CanSpace::next_hop/route stay
// the synchronous reference.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "src/can/space.hpp"
#include "src/common/inline_fn.hpp"
#include "src/net/message_bus.hpp"
#include "src/obs/trace.hpp"

namespace soc::can {

using ArriveFn = InlineFn<void(NodeId)>;

/// The vanilla CAN rule: no candidates beyond the adjacent neighbors.
struct NoFingers {
  void operator()(NodeId, const Point&, NodeId&, double&, double&) const {}
};

/// When no adjacent neighbor contains the target,
/// `fingers(at, target, best, best_d, best_c)` may rank further candidates
/// into the running best with rank_toward().  A router must outlive the
/// routes it starts.
template <class Fingers = NoFingers>
class GreedyRouter {
 public:
  GreedyRouter(CanSpace& space, net::MessageBus& bus, Fingers fingers = {})
      : space_(space), bus_(bus), fingers_(fingers) {}

  /// Route from `from` toward `target`; `on_arrive(duty)` runs at the zone
  /// owner.  The message is lost if a hop churns out, greedy progress
  /// stalls, or `ttl` hops are exhausted; a stall or an exhausted TTL
  /// leaves a `route` tracer instant at the node holding the message.
  ///
  /// Per-route cost: one allocation for the shared route state (target
  /// point, arrival callback); every per-hop forwarding closure is
  /// slot-sized and lives inside the event-queue slab.
  void route(NodeId from, const Point& target, net::MsgType type,
             std::size_t bytes, std::size_t ttl, ArriveFn on_arrive) const {
    hop(from, ttl,
        std::make_shared<Route>(
            Route{target, type, bytes, std::move(on_arrive)}));
  }

 private:
  // Everything a multi-hop route needs, allocated once per route; hop
  // closures capture only {this, route, at, ttl} and stay inside the
  // InlineFn small buffer.
  struct Route {
    Point target;
    net::MsgType type;
    std::size_t bytes;
    ArriveFn on_arrive;
  };

  void hop(NodeId at, std::size_t ttl, const std::shared_ptr<Route>& r) const {
    const ZoneRow here = space_.row_of(at);
    if (!here) return;  // current hop churned out: message lost
    // Rank by (containment, box distance, center distance, id); the
    // strictly decreasing key avoids cycles and resolves corner/boundary
    // plateaus — see CanSpace::next_hop.  The neighbor scan prunes via the
    // cached abutting-dimension metadata; a containing neighbor ends the
    // search.
    NodeId best;
    double best_d = 0.0;
    double best_c = 0.0;
    if (seed_toward(here, r->target, best_d, best_c)) {
      r->on_arrive(at);
      return;
    }
    // A route of any type that is dropped here leaves a `route` instant.
    if (ttl == 0) {
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("route", "ttl_exhausted", bus_.simulator().now(), "at",
                   at.value);
      }
      return;
    }
    if (!space_.scan_neighbors_toward(at, r->target, best, best_d, best_c)) {
      fingers_(at, r->target, best, best_d, best_c);
    }
    if (!best.valid()) {
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("route", "stalled", bus_.simulator().now(), "at",
                   at.value);
      }
      return;
    }
    // Trace query routing hops only — periodic state updates route too and
    // would swamp the trace with O(nodes/period) events.
    if (r->type == net::MsgType::kDutyQuery) {
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("route", "hop", bus_.simulator().now(), "to", best.value);
      }
    }
    bus_.send(at, best, r->type, r->bytes,
              [this, r, best, ttl] { hop(best, ttl - 1, r); });
  }

  CanSpace& space_;
  net::MessageBus& bus_;
  Fingers fingers_;
};

}  // namespace soc::can
