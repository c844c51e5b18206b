// Umbrella header: the public API of the PID-CAN / Self-Organizing Cloud
// library.  Examples and downstream users include just this.
#pragma once

#include "src/can/ascii_art.hpp"       // 2-D zone visualization
#include "src/can/geometry.hpp"        // CAN points and zones
#include "src/can/partition_tree.hpp"  // binary partition tree
#include "src/can/router.hpp"          // plain CAN greedy routing
#include "src/can/space.hpp"           // overlay membership & neighbors
#include "src/common/cli.hpp"
#include "src/common/resource_vector.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/core/experiment.hpp"     // full-system experiment driver
#include "src/core/khdn_protocol.hpp"
#include "src/core/newscast_protocol.hpp"
#include "src/core/pidcan_protocol.hpp"
#include "src/core/protocol.hpp"
#include "src/gossip/aggregation.hpp"  // gossip max-aggregation ([23])
#include "src/gossip/newscast.hpp"     // Newscast baseline
#include "src/index/inscan.hpp"        // INSCAN + index diffusion
#include "src/khdn/khdn.hpp"           // KHDN-CAN baseline
#include "src/metrics/task_metrics.hpp"
#include "src/net/message_bus.hpp"
#include "src/net/topology.hpp"
#include "src/psm/checkpoint.hpp"      // execution fault-tolerance (§VI)
#include "src/psm/scheduler.hpp"       // proportional-share scheduler
#include "src/psm/task.hpp"
#include "src/query/query_engine.hpp"  // Alg. 3–5 query pipeline
#include "src/sim/simulator.hpp"       // discrete-event engine
#include "src/workload/generator.hpp"  // Table I/II workloads
