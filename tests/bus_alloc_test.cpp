// Zero-allocation message delivery, checked at run time.
//
// This binary replaces the global operator new/delete with counting
// versions.  After one warm-up round has grown the event queue to its peak,
// a round of MessageBus::send calls with a 40-byte capture plus run_all()
// must not touch the heap: each in-flight message is one delivery record
// held inline in one event slot.  message_bus.cpp pins the record's size
// with a static_assert; this test pins the consequence, so a field added to
// the record cannot silently cost one malloc per message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "src/net/message_bus.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }

namespace soc::net {
namespace {

constexpr std::uint32_t kHosts = 64;
constexpr std::uint32_t kMessages = 10'000;

struct Payload {
  std::uint64_t a, b, c, d;
};

TEST(MessageBusAlloc, SendAndDeliverAllocateNothingAfterWarmUp) {
  sim::Simulator sim(7);
  TopologyConfig config;
  config.lan_size = 8;
  Topology topo(config, Rng(7));
  topo.add_hosts(kHosts);
  MessageBus bus(sim, topo);

  std::uint64_t sum = 0;
  auto round = [&] {
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      const Payload p{i, i * 3u, i * 5u, i * 7u};
      auto on_deliver = [&sum, p] { sum += p.a ^ p.b ^ p.c ^ p.d; };
      static_assert(sizeof(on_deliver) == 40);
      bus.send(NodeId(i % kHosts), NodeId((i * 7u + 3u) % kHosts),
               MsgType::kGossip, 64, std::move(on_deliver));
    }
    sim.run_all();
  };

  round();  // grows the event queue's slab and heap to the round's peak
  const std::size_t before = g_allocations;
  round();
  const std::size_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
  EXPECT_EQ(bus.stats().total_delivered(), 2u * kMessages);
  EXPECT_NE(sum, 0u);
}

}  // namespace
}  // namespace soc::net
