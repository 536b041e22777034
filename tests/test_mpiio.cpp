// Tests for the MPI-IO layer: communicator barriers in simulated time,
// gather exchange, independent vs collective I/O.
#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mpiio/mpi_file.hpp"
#include "pfs/pfs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::mpiio {
namespace {

TEST(Communicator, BarrierSynchronizesClocks) {
  sim::NetModel net;
  Communicator comm(4, net);
  ThreadPool pool(4);
  std::vector<sim::SimAgent> agents(4);
  agents[2].charge(5000);  // the straggler
  pool.parallel_for(4, [&](std::size_t r) {
    comm.barrier(static_cast<std::uint32_t>(r), agents[r]);
  });
  for (const auto& a : agents) {
    EXPECT_EQ(a.now(), 5000 + comm.barrier_cost());
  }
}

TEST(Communicator, BarrierReusableAcrossPhases) {
  sim::NetModel net;
  Communicator comm(3, net);
  ThreadPool pool(3);
  std::vector<sim::SimAgent> agents(3);
  pool.parallel_for(3, [&](std::size_t r) {
    for (int phase = 0; phase < 5; ++phase) {
      agents[r].charge(static_cast<SimMicros>(r * 10));
      comm.barrier(static_cast<std::uint32_t>(r), agents[r]);
    }
  });
  EXPECT_EQ(agents[0].now(), agents[1].now());
  EXPECT_EQ(agents[1].now(), agents[2].now());
}

TEST(Communicator, GatherCollectsAllPieces) {
  sim::NetModel net;
  Communicator comm(4, net);
  ThreadPool pool(4);
  std::vector<Communicator::Piece> at_root;
  pool.parallel_for(4, [&](std::size_t r) {
    sim::SimAgent a;
    Communicator::Piece p;
    p.rank = static_cast<std::uint32_t>(r);
    p.offset = r * 100;
    p.data = to_bytes(std::string(r + 1, 'x'));
    auto out = comm.gather_pieces(static_cast<std::uint32_t>(r), a, std::move(p));
    if (r == 0) {
      at_root = std::move(out);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
  ASSERT_EQ(at_root.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& p : at_root) total += p.data.size();
  EXPECT_EQ(total, 1u + 2 + 3 + 4);
}

TEST(Communicator, ScheduledRanksTakeTurnsAcrossBarriers) {
  // Before the barrier the ranks run in simulated-time order; the barrier
  // equalizes their clocks, so afterwards the lowest rank goes first.
  sim::NetModel net;
  sim::AgentScheduler scheduler(3);
  Communicator comm(3, net, &scheduler);
  ThreadPool pool(3);
  std::vector<std::uint32_t> order;  // written under the turn
  pool.parallel_for(3, [&](std::size_t r) {
    const auto rank = static_cast<std::uint32_t>(r);
    sim::SimAgent agent;
    agent.charge(static_cast<SimMicros>(100 * (3 - r)));
    comm.yield(rank, agent);
    order.push_back(rank);
    comm.barrier(rank, agent);
    order.push_back(rank);
    scheduler.finish(rank);
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 1, 0, 0, 1, 2}));
}

class MpiIoTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRanks = 4;

  /// Run `body(rank, io)` over kRanks rank threads against a fresh PFS.
  template <typename Fn>
  void run(Fn&& body) {
    Communicator comm(kRanks, cluster_.net());
    ThreadPool pool(kRanks);
    std::vector<sim::SimAgent> agents(kRanks);
    pool.parallel_for(kRanks, [&](std::size_t r) {
      MpiIo io(comm, static_cast<std::uint32_t>(r), fs_,
               vfs::IoCtx{&agents[r], 100, 100});
      body(static_cast<std::uint32_t>(r), io);
    });
  }

  sim::Cluster cluster_;
  pfs::LustreLikeFs fs_{cluster_};
};

TEST_F(MpiIoTest, CollectiveOpenAndIndependentIo) {
  std::atomic<int> failures{0};
  run([&](std::uint32_t rank, MpiIo& io) {
    auto fh = io.file_open("/shared.dat", AccessMode::rdwr_create());
    if (!fh.ok()) {
      ++failures;
      return;
    }
    const Bytes mine = make_payload(rank, 0, 10000);
    if (!io.write_at(fh.value(), rank * 10000, as_view(mine)).ok()) ++failures;
    if (!io.file_sync(fh.value()).ok()) ++failures;
    // Cross-rank read: MPI-IO guarantees visibility after sync.
    const std::uint32_t peer = (rank + 1) % kRanks;
    auto r = io.read_at(fh.value(), peer * 10000, 10000);
    if (!r.ok() || !check_payload(peer, 0, as_view(r.value()))) ++failures;
    if (!io.file_close(fh.value()).ok()) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(MpiIoTest, CollectiveWriteEqualsIndependentContent) {
  std::atomic<int> failures{0};
  run([&](std::uint32_t rank, MpiIo& io) {
    auto f1 = io.file_open("/coll.dat", AccessMode::write_create());
    auto f2 = io.file_open("/indep.dat", AccessMode::write_create());
    if (!f1.ok() || !f2.ok()) {
      ++failures;
      return;
    }
    const Bytes mine = make_payload(100 + rank, 0, 8000);
    if (!io.write_at_all(f1.value(), rank * 8000, as_view(mine)).ok()) ++failures;
    if (!io.write_at(f2.value(), rank * 8000, as_view(mine)).ok()) ++failures;
    if (!io.file_close(f1.value()).ok()) ++failures;
    if (!io.file_close(f2.value()).ok()) ++failures;
  });
  ASSERT_EQ(failures.load(), 0);
  sim::SimAgent a;
  vfs::IoCtx ctx{&a, 100, 100};
  auto coll = vfs::read_file(fs_, ctx, "/coll.dat");
  auto indep = vfs::read_file(fs_, ctx, "/indep.dat");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(indep.ok());
  EXPECT_TRUE(equal(as_view(coll.value()), as_view(indep.value())));
}

TEST_F(MpiIoTest, CollectiveWriteIssuesFewerStorageCalls) {
  // Two-phase collective I/O coalesces contiguous rank pieces into a
  // handful of large writes: fewer OST requests than independent I/O.
  std::atomic<int> failures{0};
  const std::uint64_t before = cluster_.total_storage_requests();
  run([&](std::uint32_t rank, MpiIo& io) {
    auto fh = io.file_open("/few.dat", AccessMode::write_create());
    if (!fh.ok()) {
      ++failures;
      return;
    }
    const Bytes mine = make_payload(rank, 0, 4096);
    if (!io.write_at_all(fh.value(), rank * 4096, as_view(mine)).ok()) ++failures;
    if (!io.file_close(fh.value()).ok()) ++failures;
  });
  ASSERT_EQ(failures.load(), 0);
  const std::uint64_t coll_requests = cluster_.total_storage_requests() - before;

  sim::Cluster cluster2;
  pfs::LustreLikeFs fs2(cluster2);
  Communicator comm(kRanks, cluster2.net());
  ThreadPool pool(kRanks);
  std::vector<sim::SimAgent> agents(kRanks);
  pool.parallel_for(kRanks, [&](std::size_t r) {
    MpiIo io(comm, static_cast<std::uint32_t>(r), fs2, vfs::IoCtx{&agents[r], 100, 100});
    auto fh = io.file_open("/few.dat", AccessMode::write_create());
    ASSERT_TRUE(fh.ok());
    const Bytes mine = make_payload(r, 0, 4096);
    ASSERT_TRUE(io.write_at(fh.value(), r * 4096, as_view(mine)).ok());
    ASSERT_TRUE(io.file_close(fh.value()).ok());
  });
  EXPECT_LT(coll_requests, cluster2.total_storage_requests());
}

TEST_F(MpiIoTest, FileViewShiftsOffsets) {
  std::atomic<int> failures{0};
  run([&](std::uint32_t rank, MpiIo& io) {
    auto fh = io.file_open("/view.dat", AccessMode::rdwr_create());
    if (!fh.ok()) {
      ++failures;
      return;
    }
    io.set_view(fh.value(), 1000);
    if (rank == 0) {
      if (!io.write_at(fh.value(), 0, as_view(to_bytes("shifted"))).ok()) ++failures;
      if (!io.file_sync(fh.value()).ok()) ++failures;
    } else {
      if (!io.file_sync(fh.value()).ok()) ++failures;
    }
    if (!io.file_close(fh.value()).ok()) ++failures;
  });
  ASSERT_EQ(failures.load(), 0);
  sim::SimAgent a;
  vfs::IoCtx ctx{&a, 100, 100};
  auto h = fs_.open(ctx, "/view.dat", vfs::OpenFlags::rd());
  ASSERT_TRUE(h.ok());
  auto r = fs_.read(ctx, h.value(), 1000, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value())), "shifted");
}

TEST_F(MpiIoTest, ReadAtAllSynchronizes) {
  std::atomic<int> failures{0};
  sim::SimAgent seed_agent;
  vfs::IoCtx seed{&seed_agent, 100, 100};
  ASSERT_TRUE(vfs::write_file(fs_, seed, "/ra.dat", as_view(make_payload(9, 0, 40000))).ok());
  run([&](std::uint32_t rank, MpiIo& io) {
    auto fh = io.file_open("/ra.dat", AccessMode::read_only());
    if (!fh.ok()) {
      ++failures;
      return;
    }
    auto r = io.read_at_all(fh.value(), rank * 10000, 10000);
    if (!r.ok() || !check_payload(9, rank * 10000, as_view(r.value()))) ++failures;
    if (!io.file_close(fh.value()).ok()) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace bsc::mpiio
