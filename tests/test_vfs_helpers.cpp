// Tests for the vfs convenience helpers and experiment-level determinism
// guarantees.
#include <gtest/gtest.h>

#include "apps/hpc_apps.hpp"
#include "common/rng.hpp"
#include "pfs/pfs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::vfs {
namespace {

class HelpersTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  pfs::LustreLikeFs fs_{cluster_};
  sim::SimAgent agent_;
  IoCtx ctx_{&agent_, 100, 100};
};

TEST_F(HelpersTest, WriteFileChunksAndReadFileReassembles) {
  const Bytes data = make_payload(1, 0, 1 << 20);
  ASSERT_TRUE(write_file(fs_, ctx_, "/big", as_view(data), 100000).ok());
  auto back = read_file(fs_, ctx_, "/big", 70000);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
}

TEST_F(HelpersTest, WriteFileEmptyCreatesEmptyFile) {
  ASSERT_TRUE(write_file(fs_, ctx_, "/empty", {}).ok());
  EXPECT_EQ(file_size(fs_, ctx_, "/empty").value(), 0u);
  EXPECT_TRUE(read_file(fs_, ctx_, "/empty").value().empty());
}

TEST_F(HelpersTest, MkdirRecursiveIdempotent) {
  ASSERT_TRUE(mkdir_recursive(fs_, ctx_, "/a/b/c/d").ok());
  ASSERT_TRUE(mkdir_recursive(fs_, ctx_, "/a/b/c/d").ok());  // repeat is fine
  ASSERT_TRUE(mkdir_recursive(fs_, ctx_, "/a/b/x").ok());    // shared prefix
  EXPECT_TRUE(exists(fs_, ctx_, "/a/b/c/d"));
  EXPECT_TRUE(exists(fs_, ctx_, "/a/b/x"));
}

TEST_F(HelpersTest, RemoveRecursiveTearsDownTree) {
  ASSERT_TRUE(mkdir_recursive(fs_, ctx_, "/tree/sub1/sub2").ok());
  ASSERT_TRUE(write_file(fs_, ctx_, "/tree/f1", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(write_file(fs_, ctx_, "/tree/sub1/f2", as_view(to_bytes("y"))).ok());
  ASSERT_TRUE(write_file(fs_, ctx_, "/tree/sub1/sub2/f3", as_view(to_bytes("z"))).ok());
  ASSERT_TRUE(remove_recursive(fs_, ctx_, "/tree").ok());
  EXPECT_FALSE(exists(fs_, ctx_, "/tree"));
  EXPECT_TRUE(fs_.mds().check_tree_invariants().ok());
}

TEST_F(HelpersTest, RemoveRecursiveOnFile) {
  ASSERT_TRUE(write_file(fs_, ctx_, "/solo", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(remove_recursive(fs_, ctx_, "/solo").ok());
  EXPECT_FALSE(exists(fs_, ctx_, "/solo"));
}

TEST_F(HelpersTest, FileSizeErrors) {
  EXPECT_EQ(file_size(fs_, ctx_, "/nope").code(), Errc::not_found);
}

}  // namespace
}  // namespace bsc::vfs

namespace bsc::apps {
namespace {

TEST(Determinism, SameSeedSameCensusAndTime) {
  // The whole experiment pipeline is deterministic: identical options must
  // produce bit-identical censuses AND identical simulated times, across
  // repeated runs with real thread nondeterminism underneath.
  HpcRunOptions opts;
  opts.ranks = 8;
  opts.seed = 99;

  trace::Census census0;
  SimMicros time0 = 0;
  for (int run = 0; run < 3; ++run) {
    sim::Cluster cluster;
    pfs::LustreLikeFs fs(cluster);
    auto r = run_hpc_app(HpcAppKind::blast, fs, cluster, opts);
    ASSERT_TRUE(r.ok) << r.error;
    if (run == 0) {
      census0 = r.census.census;
      time0 = r.sim_time;
    } else {
      for (std::size_t i = 0; i < trace::kOpKindCount; ++i) {
        EXPECT_EQ(r.census.census.op_counts[i], census0.op_counts[i]);
      }
      EXPECT_EQ(r.census.census.bytes_read, census0.bytes_read);
      EXPECT_EQ(r.census.census.bytes_written, census0.bytes_written);
      // The ranks take turns in simulated-time order, so they reserve every
      // node's service windows in the same order on every run.
      EXPECT_EQ(r.sim_time, time0);
    }
  }
}

}  // namespace
}  // namespace bsc::apps
