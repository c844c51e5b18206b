// HostTable oracle test: a long random run of appends, departures and
// releases of drained departed hosts, checked against a plain alive-flag
// vector.  Pins the Fenwick select (alive_count, kth_alive) that churn
// victim selection relies on, and the scheduler ownership rules: a held
// scheduler never moves (its completion closures capture `this`), and a
// released one reads back as null.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/host_table.hpp"
#include "src/psm/task.hpp"
#include "src/sim/simulator.hpp"

namespace soc::core {
namespace {

// Every k against a scan of the flags, and every scheduler against the
// address add() returned (null once released).
void expect_matches(const HostTable& hosts, const std::vector<bool>& alive,
                    const std::vector<const psm::PsmScheduler*>& addr,
                    const std::vector<bool>& released, std::size_t step) {
  std::size_t k = 0;
  for (std::uint32_t id = 0; id < alive.size(); ++id) {
    const NodeId node(id);
    ASSERT_EQ(hosts.alive(node), static_cast<bool>(alive[id]));
    ASSERT_EQ(hosts.scheduler(node), released[id] ? nullptr : addr[id])
        << "host " << id << " step " << step;
    if (!alive[id]) continue;
    ASSERT_EQ(hosts.kth_alive(k).value, id) << "k=" << k << " step " << step;
    ++k;
  }
  ASSERT_EQ(k, hosts.alive_count()) << "step " << step;
}

TEST(HostTable, MatchesAliveFlagOracleUnderChurn) {
  sim::Simulator sim(5);
  HostTable hosts(sim);
  Rng rng(20261018);

  std::vector<bool> alive;                      // the oracle
  std::vector<const psm::PsmScheduler*> addr;   // what add() returned
  std::vector<bool> released;
  std::vector<std::uint32_t> departed_held;     // departed, not released

  for (std::size_t step = 0; step < 12000; ++step) {
    const double roll = rng.uniform();
    if (alive.size() < 8 || roll < 0.45) {
      const NodeId id(static_cast<std::uint32_t>(alive.size()));
      ResourceVector capacity = ResourceVector::filled(psm::kDims, 2.0);
      capacity[0] = 1.0 + static_cast<double>(step);
      psm::PsmScheduler& s = hosts.add(id, capacity);
      alive.push_back(true);
      addr.push_back(&s);
      released.push_back(false);
      EXPECT_EQ(s.capacity()[0], 1.0 + static_cast<double>(step));
    } else if (roll < 0.8 && hosts.alive_count() > 0) {
      const NodeId victim =
          hosts.kth_alive(rng.pick_index(hosts.alive_count()));
      ASSERT_TRUE(alive[victim.value]);
      hosts.mark_departed(victim);
      alive[victim.value] = false;
      departed_held.push_back(victim.value);
      EXPECT_FALSE(hosts.alive(victim));
      EXPECT_TRUE(hosts.known(victim));
    } else if (!departed_held.empty()) {
      // No task was ever admitted, so every departed scheduler is drained.
      const std::size_t i = rng.pick_index(departed_held.size());
      const NodeId id(departed_held[i]);
      departed_held[i] = departed_held.back();
      departed_held.pop_back();
      ASSERT_EQ(hosts.scheduler(id)->running_count(), 0u);
      hosts.release_scheduler(id);
      released[id.value] = true;
    }

    std::size_t scanned = 0;
    for (const bool a : alive) scanned += a ? 1 : 0;
    ASSERT_EQ(hosts.alive_count(), scanned) << "step " << step;
    ASSERT_EQ(hosts.size(), alive.size());
    if (step % 100 == 0) {
      ASSERT_NO_FATAL_FAILURE(
          expect_matches(hosts, alive, addr, released, step));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(hosts, alive, addr, released, 12000));

  std::size_t freed = 0;
  for (const bool r : released) freed += r ? 1 : 0;
  EXPECT_GT(freed, 1000u);
  EXPECT_GT(alive.size() - freed, 1000u);
  EXPECT_EQ(hosts.scheduler(NodeId(static_cast<std::uint32_t>(alive.size()))),
            nullptr);
}

}  // namespace
}  // namespace soc::core
