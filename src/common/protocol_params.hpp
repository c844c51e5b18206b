// The parameters the §IV.A comparison holds equal across PID-CAN, KHDN-CAN
// and Newscast: record freshness, publication cadence, query deadline,
// route bound, message sizes and periodic jitter.  INSCAN, the PID-CAN
// query engine, KHDN and Newscast all read them from here, so the three
// protocols cannot drift apart.
#pragma once

#include <cstddef>

#include "src/common/types.hpp"

namespace soc::params {

/// Age at which an availability record (or a gossip view entry) expires.
inline constexpr SimTime kRecordTtl = seconds(600);
/// Cadence of every node's availability publication.
inline constexpr SimTime kStateUpdatePeriod = seconds(400);
/// Requester-side query deadline.
inline constexpr SimTime kQueryTimeout = seconds(90);
/// Safety cap on greedy route (and probe walk) hops.
inline constexpr std::size_t kRouteTtl = 512;
/// Message sizes in bytes.
inline constexpr std::size_t kStateMsgBytes = 200;
inline constexpr std::size_t kQueryMsgBytes = 128;
inline constexpr std::size_t kNoticeMsgBytes = 160;
/// ± fraction of its period by which each periodic firing is jittered.
inline constexpr double kPeriodicJitter = 0.1;

}  // namespace soc::params
