// Unit tests for the LAN/WAN topology and message bus.
#include <gtest/gtest.h>

#include "src/net/message_bus.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace soc::net {
namespace {

TopologyConfig small_config() {
  TopologyConfig c;
  c.lan_size = 4;
  c.latency_jitter = 0.0;
  return c;
}

TEST(Topology, GroupsHostsIntoLans) {
  Topology topo(small_config(), Rng(1));
  topo.add_hosts(10);
  EXPECT_EQ(topo.host_count(), 10u);
  EXPECT_EQ(topo.lan_of(NodeId(0)), 0u);
  EXPECT_EQ(topo.lan_of(NodeId(3)), 0u);
  EXPECT_EQ(topo.lan_of(NodeId(4)), 1u);
  EXPECT_EQ(topo.lan_of(NodeId(9)), 2u);
  EXPECT_TRUE(topo.same_lan(NodeId(0), NodeId(3)));
  EXPECT_FALSE(topo.same_lan(NodeId(3), NodeId(4)));
}

TEST(Topology, BandwidthsWithinTableIRanges) {
  Topology topo(small_config(), Rng(2));
  topo.add_hosts(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const double wan = topo.wan_bandwidth_mbps(NodeId(i));
    EXPECT_GE(wan, 0.2);
    EXPECT_LE(wan, 2.0);
  }
  const double lan_bw = topo.bandwidth_mbps(NodeId(0), NodeId(1));
  EXPECT_GE(lan_bw, 5.0);
  EXPECT_LE(lan_bw, 10.0);
}

TEST(Topology, WanBandwidthIsBottleneckOfEndpoints) {
  Topology topo(small_config(), Rng(3));
  topo.add_hosts(8);
  const NodeId a(0), b(5);
  EXPECT_DOUBLE_EQ(
      topo.bandwidth_mbps(a, b),
      std::min(topo.wan_bandwidth_mbps(a), topo.wan_bandwidth_mbps(b)));
}

TEST(Topology, LanFasterThanWan) {
  Topology topo(small_config(), Rng(4));
  topo.add_hosts(8);
  Rng jitter(1);
  const SimTime lan = topo.transfer_delay(NodeId(0), NodeId(1), 1000, jitter);
  const SimTime wan = topo.transfer_delay(NodeId(0), NodeId(4), 1000, jitter);
  EXPECT_LT(lan, wan);
}

TEST(Topology, TransferDelayScalesWithSize) {
  Topology topo(small_config(), Rng(5));
  topo.add_hosts(8);
  Rng jitter(1);
  const SimTime small = topo.transfer_delay(NodeId(0), NodeId(4), 100, jitter);
  const SimTime big =
      topo.transfer_delay(NodeId(0), NodeId(4), 1000000, jitter);
  EXPECT_LT(small, big);
  // 1 MB over at most 2 Mbps is at least 4 s of serialization.
  EXPECT_GT(big, seconds(4.0));
}

// Regression for the fill rule: hosts fill LANs *sequentially* in arrival
// order (lan = host_index / lan_size) — each LAN fills to capacity before
// the next opens, so late (churn) joins land in the newest LAN.  The class
// doc once said "round-robin", which would scatter cohort arrivals across
// every LAN and break the spatial correlation LAN-level partitions rely
// on; this pins the actual behavior.
TEST(Topology, HostsFillLansSequentiallyNotRoundRobin) {
  Topology topo(small_config(), Rng(11));
  topo.add_hosts(9);  // lan_size 4: LANs {0,1,2,3} {4,5,6,7} {8}
  EXPECT_EQ(topo.lan_count(), 3u);
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(topo.lan_of(NodeId(i)), i / 4) << "host " << i;
  }
  // Round-robin would put the next host in LAN 0; sequential fill grows
  // the newest, partial LAN until it reaches capacity.
  EXPECT_EQ(topo.lan_of(topo.add_host()), 2u);
  EXPECT_EQ(topo.lan_of(topo.add_host()), 2u);
  EXPECT_EQ(topo.lan_of(topo.add_host()), 2u);
  EXPECT_EQ(topo.lan_count(), 3u);
  EXPECT_EQ(topo.lan_of(topo.add_host()), 3u);  // 13th host opens LAN 3
  EXPECT_EQ(topo.lan_count(), 4u);
}

TEST(Topology, TransferDelayIsDeterministicInTheJitterStream) {
  TopologyConfig cfg = small_config();
  cfg.latency_jitter = 0.1;
  Topology topo(cfg, Rng(12));
  topo.add_hosts(8);
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(topo.transfer_delay(NodeId(0), NodeId(5), 512, a),
              topo.transfer_delay(NodeId(0), NodeId(5), 512, b))
        << "draw " << i;
  }
  // Different jitter seeds diverge somewhere in the sequence (jitter is
  // real, not a constant factor).
  Rng c(100);
  bool any_diff = false;
  Rng a2(99);
  for (int i = 0; i < 50; ++i) {
    any_diff |= topo.transfer_delay(NodeId(0), NodeId(5), 512, a2) !=
                topo.transfer_delay(NodeId(0), NodeId(5), 512, c);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Topology, ZeroJitterDelayMatchesHandComputedSerialization) {
  Topology topo(small_config(), Rng(13));  // latency_jitter = 0
  topo.add_hosts(8);
  Rng jitter(1);
  const NodeId a(0), b(5);
  const std::size_t bytes = 125000;  // 1 Mbit
  const double mbps = topo.bandwidth_mbps(a, b);
  // bits / (mbps * 1e6) seconds of serialization on top of propagation.
  const SimTime expected =
      topo.base_latency(a, b) +
      seconds(static_cast<double>(bytes) * 8.0 / (mbps * 1e6));
  EXPECT_EQ(topo.transfer_delay(a, b, bytes, jitter), expected);
  // The jitter stream was never consumed: a fresh Rng(1) is still in sync.
  Rng fresh(1);
  EXPECT_EQ(fresh.next_u64(), jitter.next_u64());
}

TEST(Topology, LanWanBoundaryUsesTheRightLatencyAndBandwidth) {
  Topology topo(small_config(), Rng(14));  // zero jitter
  topo.add_hosts(8);
  Rng jitter(1);
  // Hosts 3 and 4 are adjacent ids on opposite sides of the LAN boundary.
  EXPECT_TRUE(topo.same_lan(NodeId(0), NodeId(3)));
  EXPECT_FALSE(topo.same_lan(NodeId(3), NodeId(4)));
  EXPECT_EQ(topo.base_latency(NodeId(0), NodeId(3)), kLanLatency);
  EXPECT_EQ(topo.base_latency(NodeId(3), NodeId(4)), kWanLatency);
  // A zero-byte message isolates propagation latency exactly.
  EXPECT_EQ(topo.transfer_delay(NodeId(0), NodeId(3), 0, jitter),
            kLanLatency);
  EXPECT_EQ(topo.transfer_delay(NodeId(3), NodeId(4), 0, jitter),
            kWanLatency);
}

TEST(MessageBus, DeliversWithPositiveDelay) {
  sim::Simulator sim(7);
  Topology topo(small_config(), Rng(7));
  topo.add_hosts(8);
  MessageBus bus(sim, topo);
  SimTime delivered_at = -1;
  bus.send(NodeId(0), NodeId(4), MsgType::kDutyQuery, 256,
           [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_GT(delivered_at, 0);
  EXPECT_EQ(bus.stats().sent(MsgType::kDutyQuery), 1u);
  EXPECT_EQ(bus.stats().total_sent(), 1u);
}

TEST(MessageBus, SelfSendStillDelivers) {
  sim::Simulator sim(8);
  Topology topo(small_config(), Rng(8));
  topo.add_hosts(4);
  MessageBus bus(sim, topo);
  bool got = false;
  bus.send(NodeId(1), NodeId(1), MsgType::kDispatch, 64, [&] { got = true; });
  sim.run_all();
  EXPECT_TRUE(got);
}

TEST(MessageBus, LivenessDropsMessagesToDeadHosts) {
  sim::Simulator sim(9);
  Topology topo(small_config(), Rng(9));
  topo.add_hosts(8);
  MessageBus bus(sim, topo);
  bus.set_liveness([](NodeId id) { return id.value != 4; });
  bool got = false;
  bus.send(NodeId(0), NodeId(4), MsgType::kGossip, 64, [&] { got = true; });
  sim.run_all();
  EXPECT_FALSE(got);
  // The send itself is still accounted (traffic was emitted).
  EXPECT_EQ(bus.stats().sent(MsgType::kGossip), 1u);
}

TEST(MessageBus, PartitionSwallowsCrossCutMessagesOnly) {
  sim::Simulator sim(21);
  Topology topo(small_config(), Rng(21));
  topo.add_hosts(8);  // LAN 0: ids 0–3, LAN 1: ids 4–7
  MessageBus bus(sim, topo);
  bus.set_partition({0});
  EXPECT_TRUE(bus.partition_active());
  EXPECT_TRUE(bus.in_partition_cut(NodeId(0)));
  EXPECT_FALSE(bus.in_partition_cut(NodeId(4)));

  int delivered = 0;
  bus.send(NodeId(0), NodeId(4), MsgType::kGossip, 64, [&] { ++delivered; });
  bus.send(NodeId(4), NodeId(0), MsgType::kGossip, 64, [&] { ++delivered; });
  bus.send(NodeId(0), NodeId(1), MsgType::kGossip, 64, [&] { ++delivered; });
  bus.send(NodeId(4), NodeId(5), MsgType::kGossip, 64, [&] { ++delivered; });
  sim.run_all();
  // Cross-cut in both directions is swallowed; same-side traffic flows.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(bus.stats().partitioned(MsgType::kGossip), 2u);
  EXPECT_EQ(bus.stats().delivered(MsgType::kGossip), 2u);
  EXPECT_EQ(bus.stats().lost(MsgType::kGossip), 0u);
  // Conservation: sent == delivered + lost + partitioned + in_flight +
  // synthetic, exactly.
  EXPECT_EQ(bus.stats().sent(MsgType::kGossip),
            bus.stats().delivered(MsgType::kGossip) +
                bus.stats().lost(MsgType::kGossip) +
                bus.stats().partitioned(MsgType::kGossip) +
                bus.stats().in_flight(MsgType::kGossip) +
                bus.stats().synthetic(MsgType::kGossip));

  bus.clear_partition();
  EXPECT_FALSE(bus.partition_active());
  bus.send(NodeId(0), NodeId(4), MsgType::kGossip, 64, [&] { ++delivered; });
  sim.run_all();
  EXPECT_EQ(delivered, 3);
}

// The fate is sealed at send time: a message already in flight across the
// cut when the partition heals is still swallowed (and vice versa, a
// message sent before the cut lands even if the cut forms mid-flight).
TEST(MessageBus, PartitionFateIsSealedAtSendTime) {
  sim::Simulator sim(22);
  Topology topo(small_config(), Rng(22));
  topo.add_hosts(8);
  MessageBus bus(sim, topo);

  bool pre_cut_arrived = false;
  bus.send(NodeId(0), NodeId(4), MsgType::kDispatch, 64,
           [&] { pre_cut_arrived = true; });
  bus.set_partition({0});
  bool in_cut_arrived = false;
  bus.send(NodeId(0), NodeId(4), MsgType::kDispatch, 64,
           [&] { in_cut_arrived = true; });
  bus.clear_partition();
  sim.run_all();
  EXPECT_TRUE(pre_cut_arrived);
  EXPECT_FALSE(in_cut_arrived);
  EXPECT_EQ(bus.stats().partitioned(MsgType::kDispatch), 1u);
  EXPECT_EQ(bus.stats().delivered(MsgType::kDispatch), 1u);
}

TEST(MessageBus, SelfSendBypassesPartition) {
  sim::Simulator sim(23);
  Topology topo(small_config(), Rng(23));
  topo.add_hosts(8);
  MessageBus bus(sim, topo);
  bus.set_partition({0});
  bool got = false;
  bus.send(NodeId(0), NodeId(0), MsgType::kDispatch, 64, [&] { got = true; });
  sim.run_all();
  EXPECT_TRUE(got);
  EXPECT_EQ(bus.stats().total_partitioned(), 0u);
}

TEST(TrafficStats, PartitionedCountsSeparatelyFromLost) {
  TrafficStats s;
  s.on_send(MsgType::kGossip);
  s.on_send(MsgType::kGossip);
  s.on_send(MsgType::kGossip);
  s.on_partitioned(MsgType::kGossip);
  s.on_lost(MsgType::kGossip);
  s.on_delivered(MsgType::kGossip);
  EXPECT_EQ(s.partitioned(MsgType::kGossip), 1u);
  EXPECT_EQ(s.lost(MsgType::kGossip), 1u);
  EXPECT_EQ(s.delivered(MsgType::kGossip), 1u);
  EXPECT_EQ(s.total_partitioned(), 1u);
  EXPECT_EQ(s.in_flight(MsgType::kGossip), 0u);
  s.reset();
  EXPECT_EQ(s.total_partitioned(), 0u);
}

TEST(TrafficStats, PerNodeCostAveragesTotals) {
  TrafficStats s;
  for (int i = 0; i < 10; ++i) s.on_send(MsgType::kStateUpdate);
  EXPECT_DOUBLE_EQ(s.per_node_cost(5), 2.0);
  s.reset();
  EXPECT_EQ(s.total_sent(), 0u);
}

TEST(TrafficStats, MsgTypeNamesAreDistinct) {
  EXPECT_EQ(msg_type_name(MsgType::kStateUpdate), "state-update");
  EXPECT_EQ(msg_type_name(MsgType::kIndexJump), "index-jump");
  EXPECT_NE(msg_type_name(MsgType::kGossip), msg_type_name(MsgType::kDispatch));
}

}  // namespace
}  // namespace soc::net
