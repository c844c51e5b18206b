#include "src/can/router.hpp"

#include <memory>
#include <utility>

namespace soc::can {

namespace {

// Everything a multi-hop route needs, allocated once per route; hop
// closures capture only {state, at, ttl} and stay inside the InlineFn
// small buffer.
struct RouteState {
  CanSpace* space;
  net::MessageBus* bus;
  Point target;
  net::MsgType type;
  std::size_t bytes;
  ArriveFn on_arrive;
};

void step(const std::shared_ptr<RouteState>& st, NodeId at, std::size_t ttl) {
  CanSpace& space = *st->space;
  const ZoneRow here = space.row_of(at);
  if (!here) return;
  // Rank by (containment, box distance, center distance, id); the strictly
  // decreasing key avoids cycles and resolves corner/boundary plateaus —
  // see CanSpace::next_hop for the rationale.  The scan prunes candidates
  // via the cached abutting-dimension metadata.
  NodeId best;
  double best_d = 0.0;
  double best_c = 0.0;
  if (seed_toward(here, st->target, best_d, best_c)) {
    st->on_arrive(at);
    return;
  }
  if (ttl == 0) return;
  space.scan_neighbors_toward(at, st->target, best, best_d, best_c);
  if (!best.valid()) return;  // stalled (transient churn state)
  st->bus->send(at, best, st->type, st->bytes,
                [st, best, ttl] { step(st, best, ttl - 1); });
}

}  // namespace

void route_greedy(CanSpace& space, net::MessageBus& bus, NodeId from,
                  const Point& target, net::MsgType type, std::size_t bytes,
                  std::size_t ttl, ArriveFn on_arrive) {
  auto st = std::make_shared<RouteState>(RouteState{
      &space, &bus, target, type, bytes, std::move(on_arrive)});
  step(st, from, ttl);
}

}  // namespace soc::can
