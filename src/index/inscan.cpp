#include "src/index/inscan.hpp"

#include <memory>
#include <string>
#include <utility>

#include "src/obs/trace.hpp"

namespace soc::index {

IndexSystem::IndexSystem(sim::Simulator& sim, net::MessageBus& bus,
                         can::CanSpace& space, InscanConfig config, Rng rng)
    : sim_(sim), bus_(bus), space_(space), config_(config), rng_(rng) {
  SOC_CHECK(config_.index_fanout_L >= 1);
}

void IndexSystem::attach_to_space() {
  can::CanSpace::Listener listener;
  listener.on_rehome = [this](NodeId from, NodeId to) {
    if (!state_.contains(from)) return;
    // Move the records that now belong to `to`'s zone.  When `from` is no
    // longer a member (departure) everything moves.
    std::vector<Record> moved;
    if (space_.contains(from) && space_.contains(to)) {
      moved = cache(from).extract_in_zone(space_.zone_of(to), sim_.now());
    } else {
      moved = cache(from).extract_all();
    }
    RecordStore& dst = cache(to);
    for (const Record& r : moved) dst.put(r);
  };
  space_.set_listener(std::move(listener));
}

IndexSystem::NodeState& IndexSystem::state(NodeId id) {
  if (NodeState* st = state_.find(id)) return *st;
  return state_.emplace(
      id, NodeState{RecordStore{}, PiList(config_.pi_capacity, config_.pi_ttl),
                    IndexTable(space_.dims(), config_.index_samples_per_level,
                               config_.index_entry_ttl),
                    rng_.fork(id.value)});
}

RecordStore& IndexSystem::cache(NodeId id) { return state(id).cache; }
PiList& IndexSystem::pi_list(NodeId id) { return state(id).pi; }
IndexTable& IndexSystem::table(NodeId id) { return state(id).table; }

void IndexSystem::add_node(NodeId id) {
  SOC_CHECK(space_.contains(id));
  state(id);  // materialize
  // Bootstrap the index tables right away, then keep them fresh.
  for (std::size_t d = 0; d < space_.dims(); ++d) {
    probe_now(id, d, can::Direction::kNegative);
    probe_now(id, d, can::Direction::kPositive);
  }
  start_periodics(id);
}

void IndexSystem::remove_node(NodeId id) {
  state_.erase(id);
  last_location_.erase(id);
  // Safe point: called from departure/partition teardown with no NodeState
  // references outstanding (the rehome listener re-looks-up per call).
  state_.maybe_compact();
  last_location_.maybe_compact();
}

IndexSystem::ParkedNode IndexSystem::park_node(NodeId id) {
  SOC_CHECK(state_.contains(id));
  NodeState& st = state(id);
  // Moved-from sub-objects are left empty, so the departure teardown that
  // follows re-homes nothing to the takeover node.
  return ParkedNode{std::move(st.cache), std::move(st.pi),
                    std::move(st.table), st.rng};
}

void IndexSystem::restore_node(NodeId id, ParkedNode parked) {
  SOC_CHECK(space_.contains(id));
  parked.cache.prune(sim_.now());
  // Keep what the node's new zone still covers; everything else goes back
  // through the normal state-update routing to its current duty node.
  std::vector<Record> keep =
      parked.cache.extract_in_zone(space_.zone_of(id), sim_.now());
  std::vector<Record> reroute = parked.cache.extract_all();
  for (const Record& r : keep) parked.cache.put(r);
  // The CanSpace join that preceded this restore split a zone, and the
  // rehome listener materialized a fresh NodeState to receive the split
  // zone's records — fold those into the parked cache (they are in-zone
  // by construction) and resume on the parked state.
  if (NodeState* fresh = state_.find(id)) {
    for (const Record& r : fresh->cache.extract_all()) parked.cache.put(r);
    state_.erase(id);
  }
  state_.emplace(id, NodeState{std::move(parked.cache), std::move(parked.pi),
                               std::move(parked.table), parked.rng});
  for (const Record& r : reroute) {
    route(id, r.location, net::MsgType::kStateUpdate, config_.state_msg_bytes,
          [this, r](NodeId duty) {
            if (!state_.contains(duty)) return;
            cache(duty).put(r);
          });
  }
  // The parked index table is stale (the neighborhood changed while cut
  // off); bootstrap probes rebuild it like a join, and stale fingers are
  // skipped by routing's contains() guards until then.
  for (std::size_t d = 0; d < space_.dims(); ++d) {
    probe_now(id, d, can::Direction::kNegative);
    probe_now(id, d, can::Direction::kPositive);
  }
  start_periodics(id);
}

std::vector<NodeId> IndexSystem::tracked_ids() const {
  std::vector<NodeId> out;
  out.reserve(state_.size());
  for (const auto& [id, st] : state_) out.push_back(id);
  return out;
}

std::string IndexSystem::check_membership_consistency() const {
  for (const auto& [id, st] : state_) {
    if (!space_.contains(id)) {
      return "ghost NodeState for non-member " + std::to_string(id.value);
    }
  }
  for (const NodeId id : space_.member_ids()) {
    if (!state_.contains(id)) {
      return "member " + std::to_string(id.value) + " has no NodeState";
    }
  }
  for (const auto& [id, loc] : last_location_) {
    if (!state_.contains(id)) {
      return "last-location filed for untracked node " +
             std::to_string(id.value);
    }
  }
  return {};
}

void IndexSystem::start_periodics(NodeId id) {
  // Every periodic body first checks the node is still a tracked member,
  // returning false to retire the process after departure.
  sim_.schedule_periodic(
      config_.state_update_period,
      [this, id] {
        if (!state_.contains(id) || !space_.contains(id)) return false;
        publish_now(id);
        return true;
      },
      /*phase=*/static_cast<SimTime>(
          state(id).rng.uniform_int(1, config_.state_update_period)),
      config_.periodic_jitter);

  sim_.schedule_periodic(
      config_.diffusion_period,
      [this, id] {
        if (!state_.contains(id) || !space_.contains(id)) return false;
        diffuse_now(id);
        return true;
      },
      static_cast<SimTime>(
          state(id).rng.uniform_int(1, config_.diffusion_period)),
      config_.periodic_jitter);

  sim_.schedule_periodic(
      config_.index_refresh_period,
      [this, id] {
        if (!state_.contains(id) || !space_.contains(id)) return false;
        for (std::size_t d = 0; d < space_.dims(); ++d) {
          probe_now(id, d, can::Direction::kNegative);
          probe_now(id, d, can::Direction::kPositive);
        }
        return true;
      },
      static_cast<SimTime>(
          state(id).rng.uniform_int(1, config_.index_refresh_period)),
      config_.periodic_jitter);
}

// ---------------------------------------------------------------------------
// Greedy routing (CAN neighbors plus index-table fingers)

// Everything a multi-hop route needs, allocated once per route; hop
// closures capture only {this, ctx, at, ttl} and stay inside the InlineFn
// small buffer.
struct IndexSystem::RouteCtx {
  can::Point target;
  net::MsgType type;
  std::size_t bytes;
  ArriveFn on_arrive;
};

void IndexSystem::route(NodeId from, const can::Point& target,
                        net::MsgType type, std::size_t bytes,
                        ArriveFn on_arrive) {
  auto ctx = std::make_shared<RouteCtx>(
      RouteCtx{target, type, bytes, std::move(on_arrive)});
  route_step(from, config_.route_ttl, ctx);
}

void IndexSystem::route_step(NodeId at, std::size_t ttl,
                             const std::shared_ptr<RouteCtx>& ctx) {
  const can::Point& target = ctx->target;
  const can::ZoneRow here = space_.row_of(at);
  if (!here) return;  // current hop churned out: message lost
  // Greedy choice over adjacent neighbors plus index fingers, ranked by
  // (containment, box distance, center distance, id) — the strictly
  // decreasing key avoids cycles and resolves corner/boundary plateaus
  // (see CanSpace::next_hop).  The neighbor scan prunes via the cached
  // abutting-dimension metadata; a containing candidate ends the scan
  // (nothing can displace a zone that owns the target).  A route of any
  // type that is dropped here leaves a `route` tracer instant.
  NodeId best;
  double best_d = 0.0;
  double best_c = 0.0;
  if (can::seed_toward(here, target, best_d, best_c)) {
    ctx->on_arrive(at);
    return;
  }
  if (ttl == 0) {
    if (obs::Tracer* t = obs::tracer()) {
      t->instant("route", "ttl_exhausted", sim_.now(), "at", at.value);
    }
    return;
  }
  bool contained =
      space_.scan_neighbors_toward(at, target, best, best_d, best_c);
  const NodeState* st = state_.find(at);
  if (!contained && st != nullptr) {
    // One lookup per finger: row_of() is null for a finger that has left.
    st->table.for_each_live(sim_.now(), [&](const IndexTable::Entry& e) {
      if (contained || e.id == at) return;
      if (const can::ZoneRow row = space_.row_of(e.id)) {
        contained = can::rank_toward(row, e.id, target, best, best_d, best_c);
      }
    });
  }
  if (!best.valid()) {
    if (obs::Tracer* t = obs::tracer()) {
      t->instant("route", "stalled", sim_.now(), "at", at.value);
    }
    return;
  }
  // Trace query routing hops only — periodic state updates route too and
  // would swamp the trace with O(nodes/period) events.
  if (ctx->type == net::MsgType::kDutyQuery) {
    if (obs::Tracer* t = obs::tracer()) {
      t->instant("route", "hop", sim_.now(), "to", best.value);
    }
  }
  bus_.send(at, best, ctx->type, ctx->bytes,
            [this, ctx, best, ttl] { route_step(best, ttl - 1, ctx); });
}

// ---------------------------------------------------------------------------
// State updates

void IndexSystem::publish_now(NodeId id) {
  if (!provider_) return;
  const std::optional<Record> record = provider_(id);
  if (!record.has_value()) return;
  SOC_CHECK(record->location.dims() == space_.dims());

  // If the previous record was filed under a different duty node, send an
  // invalidation there — otherwise the overwrite below suffices.  (A real
  // provider caches its last duty node's identity, which the owner_of
  // lookup stands in for.)
  const can::Point* last = last_location_.find(id);
  if (last != nullptr && space_.size() > 0 &&
      space_.owner_of(*last) != space_.owner_of(record->location)) {
    ++activity_.invalidations;
    route(id, *last, net::MsgType::kStateUpdate, config_.index_msg_bytes,
          [this, id](NodeId old_duty) { cache(old_duty).erase(id); });
  }
  last_location_[id] = record->location;
  ++activity_.publishes;

  route(id, record->location, net::MsgType::kStateUpdate,
        config_.state_msg_bytes,
        [this, r = *record](NodeId duty) { cache(duty).put(r); });
}

// ---------------------------------------------------------------------------
// Index diffusion (Algorithms 1 and 2)

std::optional<NodeId> IndexSystem::pick_index_node(NodeId id, std::size_t dim,
                                                   can::Direction dir) {
  NodeState& st = state(id);
  // Prefer a live table entry; fall back to an adjacent directional
  // neighbor (always a valid 2^0 index node) so diffusion still works
  // before the first probe round completes.
  if (auto picked =
          st.table.pick(dim, dir, config_.select_policy, sim_.now(), st.rng);
      picked.has_value() && space_.contains(*picked)) {
    return picked;
  }
  if (!space_.contains(id)) return std::nullopt;
  space_.directional_neighbors(id, dim, dir, dir_scratch_);
  if (dir_scratch_.empty()) return std::nullopt;
  return dir_scratch_[st.rng.pick_index(dir_scratch_.size())];
}

void IndexSystem::diffuse_now(NodeId id) {
  NodeState& st = state(id);
  ++activity_.diffusion_rounds;
  st.cache.prune(sim_.now());
  if (!st.cache.has_live_records(sim_.now())) return;  // Alg. 1 guard
  ++activity_.diffusion_initiations;

  const std::size_t L = config_.index_fanout_L;
  if (config_.diffusion == DiffusionMethod::kHopping) {
    // Alg. 1: a single message {ID, dim j, L} to a random NINode along the
    // first *available* dimension; relays cascade across the remaining
    // dimensions (Alg. 2).  Nodes sitting on the negative edge of early
    // dimensions (common: most hosts' CPU sits far below c_max) start at
    // the first dimension that actually has negative index nodes.
    for (std::size_t j = 0; j < space_.dims(); ++j) {
      const auto target = pick_index_node(id, j, can::Direction::kNegative);
      if (!target.has_value()) continue;
      bus_.send(id, *target, net::MsgType::kIndexDiffuse,
                config_.index_msg_bytes, [this, at = *target, id, j, L] {
                  handle_diffuse(at, id, j, L);
                });
      return;
    }
    return;
  }

  // Spreading (SID).  Strict Fig. 3(a) reading: the sender alone selects
  // L NINodes on each of its d dimension tracks and receivers only store
  // the index — narrow, axis-aligned coverage, which is exactly why the
  // paper finds SID unable to adapt to intensive query ranges.
  if (config_.spreading_scope == SpreadingScope::kSenderTracks) {
    for (std::size_t d = 0; d < space_.dims(); ++d) {
      for (std::size_t i = 0; i < L; ++i) {
        const auto target = pick_index_node(id, d, can::Direction::kNegative);
        if (!target.has_value()) break;
        bus_.send(id, *target, net::MsgType::kIndexDiffuse,
                  config_.index_msg_bytes, [this, at = *target, id] {
                    if (!state_.contains(at) || !space_.contains(at)) return;
                    ++activity_.diffusion_relays;
                    pi_list(at).add(id, sim_.now());
                  });
      }
    }
    return;
  }
  // ω-based cascade reading: the sender picks all L same-dimension targets
  // at once (one hop instead of a relay chain) and each receiver opens the
  // next dimension the same way, so the total message count matches the
  // paper's ω = L(L^d−1)/(L−1) for both methods.
  spread_dimension(id, id, 0);
}

void IndexSystem::spread_dimension(NodeId at, NodeId subject,
                                   std::size_t dim) {
  // Find the first dimension (from `dim` on) with available targets, as in
  // the hopping initiation.
  for (std::size_t j = dim; j < space_.dims(); ++j) {
    bool sent = false;
    for (std::size_t i = 0; i < config_.index_fanout_L; ++i) {
      const auto target = pick_index_node(at, j, can::Direction::kNegative);
      if (!target.has_value()) break;
      sent = true;
      bus_.send(at, *target, net::MsgType::kIndexDiffuse,
                config_.index_msg_bytes, [this, t = *target, subject, j] {
                  if (!state_.contains(t) || !space_.contains(t)) return;
                  ++activity_.diffusion_relays;
                  pi_list(t).add(subject, sim_.now());
                  spread_dimension(t, subject, j + 1);
                });
    }
    if (sent) return;
  }
}

void IndexSystem::handle_diffuse(NodeId at, NodeId subject, std::size_t dim,
                                 std::size_t ttl) {
  if (!state_.contains(at) || !space_.contains(at)) return;
  ++activity_.diffusion_relays;
  pi_list(at).add(subject, sim_.now());

  // Alg. 2 lines 1–4: continue along the same dimension with TTL − 1.
  if (ttl > 1) {
    if (const auto next = pick_index_node(at, dim, can::Direction::kNegative);
        next.has_value()) {
      bus_.send(at, *next, net::MsgType::kIndexDiffuse,
                config_.index_msg_bytes,
                [this, n = *next, subject, dim, ttl] {
                  handle_diffuse(n, subject, dim, ttl - 1);
                });
    }
  }
  // Alg. 2 lines 5–9: open the next *available* dimension with a fresh TTL
  // of L (skipping dimensions where this relay sits on the negative edge).
  for (std::size_t j = dim + 1; j < space_.dims(); ++j) {
    const auto next = pick_index_node(at, j, can::Direction::kNegative);
    if (!next.has_value()) continue;
    bus_.send(at, *next, net::MsgType::kIndexDiffuse,
              config_.index_msg_bytes,
              [this, n = *next, subject, j,
               L = config_.index_fanout_L] { handle_diffuse(n, subject, j, L); });
    break;
  }
}

// ---------------------------------------------------------------------------
// Index-table probe walks

void IndexSystem::probe_now(NodeId id, std::size_t dim, can::Direction dir) {
  auto walk = std::make_shared<ProbeWalk>();
  walk->origin = id;
  walk->started_at = sim_.now();
  walk->dim = static_cast<std::uint32_t>(dim);
  walk->dir = dir;
  probe_step(id, walk);
}

void IndexSystem::probe_step(NodeId at,
                             const std::shared_ptr<ProbeWalk>& walk) {
  if (!space_.contains(at)) return;  // walk dies with a churned-out hop
  // Kill walks whose origin departed: the hop below draws from the origin's
  // RNG via state(), which would otherwise re-materialize a ghost NodeState
  // for the departed node (and the final report would then pass the
  // contains() guard and store into the ghost's table).
  if (!state_.contains(walk->origin) || !space_.contains(walk->origin)) {
    return;
  }

  auto finish = [&] {
    if (obs::Tracer* t = obs::tracer()) {
      t->complete("probe", "probe_walk", walk->started_at,
                  sim_.now() - walk->started_at, "hops", walk->hops);
    }
    if (walk->found.empty()) return;
    // One report message back to the origin with all collected samples; the
    // walk state rides along, so the closure stays slot-sized.
    bus_.send(at, walk->origin, net::MsgType::kIndexProbe,
              config_.probe_msg_bytes, [this, walk] {
                if (!state_.contains(walk->origin)) return;
                IndexTable& tbl = table(walk->origin);
                for (const auto& e : walk->found) {
                  tbl.store(walk->dim, walk->dir, e.level, e.id, sim_.now());
                }
              });
  };

  if (walk->hops > 0) {
    // Record the node sitting exactly 2^level hops out.
    if (walk->hops == (std::uint32_t{1} << walk->level)) {
      walk->found.push_back(IndexTable::Entry{at, walk->level, sim_.now()});
      ++walk->level;
    }
  }

  space_.directional_neighbors(at, walk->dim, walk->dir, dir_scratch_);
  if (dir_scratch_.empty() || walk->hops >= config_.route_ttl) {
    finish();
    return;
  }
  NodeState& origin_state = state(walk->origin);
  const NodeId next =
      dir_scratch_[origin_state.rng.pick_index(dir_scratch_.size())];
  bus_.send(at, next, net::MsgType::kIndexProbe, config_.probe_msg_bytes,
            [this, next, walk] {
              ++walk->hops;
              probe_step(next, walk);
            });
}

}  // namespace soc::index
