// Unit tests for the cluster simulation substrate: clocks, disk/net models,
// node queueing, topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/agent_scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/disk_model.hpp"
#include "sim/net_model.hpp"
#include "sim/node.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::sim {
namespace {

TEST(SimAgent, ChargeAndAdvance) {
  SimAgent a;
  EXPECT_EQ(a.now(), 0);
  a.charge(100);
  EXPECT_EQ(a.now(), 100);
  a.charge(-5);  // negative charges are clamped
  EXPECT_EQ(a.now(), 100);
  a.advance_to(50);  // never goes backwards
  EXPECT_EQ(a.now(), 100);
  a.advance_to(200);
  EXPECT_EQ(a.now(), 200);
}

TEST(SimAgent, ForkJoin) {
  SimAgent parent(1000);
  SimAgent child = parent.fork();
  EXPECT_EQ(child.now(), 1000);
  child.charge(500);
  parent.join(child);
  EXPECT_EQ(parent.now(), 1500);
  // Joining an earlier child is a no-op.
  SimAgent fast = parent.fork();
  parent.charge(100);
  parent.join(fast);
  EXPECT_EQ(parent.now(), 1600);
}

TEST(DiskModel, SequentialSkipsSeek) {
  DiskModel d;
  const SimMicros seq = d.service_us(64 * 1024, true);
  const SimMicros rnd = d.service_us(64 * 1024, false);
  EXPECT_LT(seq, rnd);
  EXPECT_EQ(rnd - seq, d.params().seek_us + d.params().rotational_us);
}

TEST(DiskModel, TransferScalesWithBytes) {
  DiskModel d;
  const SimMicros small = d.service_us(1024, true);
  const SimMicros big = d.service_us(1024 * 1024, true);
  EXPECT_GT(big, small);
  // ~100 MB/s: 1 MiB should take about 10.5 ms of transfer.
  EXPECT_NEAR(static_cast<double>(big - d.params().controller_us), 10485.76, 200.0);
}

TEST(DiskModel, NvmeProfileMuchFaster) {
  DiskModel hdd{DiskParams::hdd_250gb()};
  DiskModel nvme{DiskParams::nvme()};
  EXPECT_LT(nvme.service_us(1 << 20, false) * 10, hdd.service_us(1 << 20, false));
}

TEST(NetModel, InfinibandBeatsEthernet) {
  NetModel gbe{NetProfile::gigabit_ethernet()};
  NetModel ib{NetProfile::infiniband_ddr()};
  EXPECT_LT(ib.transfer_us(1 << 20), gbe.transfer_us(1 << 20));
  EXPECT_LT(ib.profile().rtt_us, gbe.profile().rtt_us);
}

TEST(NetModel, TransferMonotoneInSize) {
  NetModel n;
  SimMicros prev = 0;
  for (std::uint64_t sz : {0ULL, 100ULL, 1500ULL, 64000ULL, 1000000ULL}) {
    const SimMicros t = n.transfer_us(sz);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(SimNode, SerialRequestsQueueUp) {
  SimNode n(0, NodeRole::storage);
  // Two requests arriving at t=0 with service 100 each: FCFS.
  const SimMicros c1 = n.serve(0, 100);
  const SimMicros c2 = n.serve(0, 100);
  EXPECT_EQ(c1, 100);
  EXPECT_EQ(c2, 200);
  // A late arrival after the queue drained starts immediately.
  const SimMicros c3 = n.serve(1000, 50);
  EXPECT_EQ(c3, 1050);
  EXPECT_EQ(n.requests_served(), 3u);
  EXPECT_EQ(n.busy_total(), 250);
}

TEST(SimNode, ConcurrentReservationsNeverOverlap) {
  SimNode n(0, NodeRole::storage);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<SimMicros> completions(kThreads * kPerThread);
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      completions[t * kPerThread + i] = n.serve(0, 10);
    }
  });
  // Work-conserving single server from t=0: completions are exactly the
  // multiples of 10 up to 10*N, each used once.
  std::sort(completions.begin(), completions.end());
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_EQ(completions[i], 10 * (i + 1));
  }
}

TEST(Cluster, ParapluieTopology) {
  Cluster c(ClusterSpec::parapluie());
  EXPECT_EQ(c.compute_count(), 24u);
  EXPECT_EQ(c.storage_count(), 8u);
  EXPECT_EQ(c.metadata_count(), 1u);
  EXPECT_EQ(c.net().profile().name, "gbe");
}

TEST(Cluster, StorageNodeVariants) {
  for (std::uint32_t n : {4u, 8u, 12u}) {
    Cluster c(ClusterSpec::with_storage_nodes(n));
    EXPECT_EQ(c.storage_count(), n);
  }
}

TEST(Cluster, ResetClearsQueues) {
  Cluster c;
  c.storage_node(0).serve(0, 100);
  EXPECT_GT(c.total_storage_busy(), 0);
  c.reset();
  EXPECT_EQ(c.total_storage_busy(), 0);
  EXPECT_EQ(c.total_storage_requests(), 0u);
}

TEST(Cluster, NodeIdsUnique) {
  Cluster c;
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < c.compute_count(); ++i) ids.push_back(c.compute_node(i).id());
  for (std::size_t i = 0; i < c.storage_count(); ++i) ids.push_back(c.storage_node(i).id());
  ids.push_back(c.metadata_node().id());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

/// Run `times[r]` as agent r's yields on its own thread and return the
/// turns in the order they were taken.
std::vector<std::pair<SimMicros, std::uint32_t>> take_turns(
    const std::vector<std::vector<SimMicros>>& times) {
  const auto n = static_cast<std::uint32_t>(times.size());
  AgentScheduler scheduler(n);
  std::vector<std::pair<SimMicros, std::uint32_t>> turns;  // written under the turn
  ThreadPool pool(n);
  pool.parallel_for(n, [&](std::size_t r) {
    const auto id = static_cast<std::uint32_t>(r);
    for (SimMicros t : times[r]) {
      scheduler.yield(id, t);
      turns.emplace_back(t, id);
    }
    scheduler.finish(id);
  });
  return turns;
}

TEST(AgentScheduler, TurnsGoInSimulatedTimeOrder) {
  // Yields a whole lookahead window apart merge in (time, id) order,
  // whatever order the threads happen to run in; the tie at 0 goes to the
  // lower id.
  constexpr SimMicros q = AgentScheduler::kLookaheadUs;
  const std::vector<std::vector<SimMicros>> times = {
      {0, 4 * q, 8 * q, 9 * q}, {0, 2 * q, 6 * q, 11 * q}, {q, 3 * q, 5 * q, 7 * q},
      {10 * q, 12 * q, 13 * q}};
  std::vector<std::pair<SimMicros, std::uint32_t>> expected;
  for (std::uint32_t r = 0; r < times.size(); ++r) {
    for (SimMicros t : times[r]) expected.emplace_back(t, r);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(take_turns(times), expected);
}

TEST(AgentScheduler, KeepsTheTurnInsideTheLookaheadWindow) {
  // Agent 0 runs on until its clock reaches agent 1's plus the window.
  constexpr SimMicros q = AgentScheduler::kLookaheadUs;
  const std::vector<std::pair<SimMicros, std::uint32_t>> expected = {
      {0, 0}, {q - 1, 0}, {0, 1}, {q, 0}};
  EXPECT_EQ(take_turns({{0, q - 1, q}, {0}}), expected);
}

}  // namespace
}  // namespace bsc::sim
