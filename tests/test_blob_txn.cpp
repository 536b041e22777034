// Tests for Týr-style multi-blob transactions: atomicity, preconditions,
// conflicts, concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace bsc::blob {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  BlobStore store_{cluster_};
  sim::SimAgent agent_;
  BlobClient client_{store_, &agent_};
};

TEST_F(TxnTest, EmptyCommitSucceeds) {
  auto txn = client_.begin_transaction();
  EXPECT_TRUE(txn.commit().ok());
}

TEST_F(TxnTest, MultiBlobWriteAllApplied) {
  auto txn = client_.begin_transaction();
  txn.write("a", 0, as_view(to_bytes("AAAA")))
      .write("b", 0, as_view(to_bytes("BBBB")))
      .write("c", 100, as_view(to_bytes("CC")));
  ASSERT_TRUE(txn.commit().ok());
  EXPECT_EQ(to_string(as_view(client_.read("a", 0, 4).value())), "AAAA");
  EXPECT_EQ(to_string(as_view(client_.read("b", 0, 4).value())), "BBBB");
  EXPECT_EQ(client_.size("c").value(), 102u);
}

TEST_F(TxnTest, CreateThenWriteSameKeyInOneTxn) {
  auto txn = client_.begin_transaction();
  txn.create("k").write("k", 0, as_view(to_bytes("v")));
  ASSERT_TRUE(txn.commit().ok());
  EXPECT_EQ(to_string(as_view(client_.read("k", 0, 1).value())), "v");
}

TEST_F(TxnTest, InapplicableOpAbortsWholeTxn) {
  ASSERT_TRUE(client_.create("exists").ok());
  auto txn = client_.begin_transaction();
  txn.write("x", 0, as_view(to_bytes("data"))).create("exists");  // must fail
  EXPECT_EQ(txn.commit().code(), Errc::conflict);
  // Nothing applied: atomicity.
  EXPECT_FALSE(client_.exists("x"));
}

// write() keeps its own copy of the caller's bytes: overwriting and then
// freeing the buffer before commit() must not change what commits, also
// when the transaction is moved in between. A view of the caller's buffer
// would read freed memory here, which ASan turns into a failure.
TEST_F(TxnTest, CommitUsesBytesCapturedAtWrite) {
  const Bytes want_a = make_payload(51, 0, 8192);
  const Bytes want_b = make_payload(52, 0, 100);
  auto buf = std::make_unique<Bytes>(want_a);
  auto staged = client_.begin_transaction();
  staged.write("owned-a", 0, as_view(*buf));
  buf->assign(want_b.begin(), want_b.end());
  staged.write("owned-b", 0, as_view(*buf));
  std::fill(buf->begin(), buf->end(), std::byte{0xab});
  buf.reset();
  BlobTransaction txn = std::move(staged);
  ASSERT_TRUE(txn.commit().ok());

  for (const auto& [key, want] : {std::pair{"owned-a", &want_a}, std::pair{"owned-b", &want_b}}) {
    auto r = client_.read(key, 0, want->size());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value()), as_view(*want))) << key;
    for (std::uint32_t n : store_.replicas_of(key)) {
      EXPECT_TRUE(store_.server(n).verify_key(key).ok()) << key << " on server " << n;
    }
  }
}

TEST_F(TxnTest, RemoveMissingAborts) {
  auto txn = client_.begin_transaction();
  txn.write("y", 0, as_view(to_bytes("data"))).remove("ghost");
  EXPECT_EQ(txn.commit().code(), Errc::conflict);
  EXPECT_FALSE(client_.exists("y"));
}

TEST_F(TxnTest, VersionPreconditionHolds) {
  ASSERT_TRUE(client_.create("v").ok());
  const Version v = client_.stat("v").value().version;
  auto txn = client_.begin_transaction();
  txn.expect_version("v", v).write("v", 0, as_view(to_bytes("ok")));
  EXPECT_TRUE(txn.commit().ok());
}

TEST_F(TxnTest, StaleVersionPreconditionConflicts) {
  ASSERT_TRUE(client_.create("v").ok());
  const Version v = client_.stat("v").value().version;
  ASSERT_TRUE(client_.write("v", 0, as_view(to_bytes("bump"))).ok());  // version moves
  auto txn = client_.begin_transaction();
  txn.expect_version("v", v).write("v", 0, as_view(to_bytes("stale")));
  EXPECT_EQ(txn.commit().code(), Errc::conflict);
  EXPECT_EQ(to_string(as_view(client_.read("v", 0, 4).value())), "bump");
}

TEST_F(TxnTest, MustNotExistPrecondition) {
  auto txn = client_.begin_transaction();
  txn.expect_version("new", 0).create("new");
  EXPECT_TRUE(txn.commit().ok());
  auto txn2 = client_.begin_transaction();
  txn2.expect_version("new", 0).write("new", 0, as_view(to_bytes("x")));
  EXPECT_EQ(txn2.commit().code(), Errc::conflict);
}

TEST_F(TxnTest, TxnAppliesToAllReplicas) {
  auto txn = client_.begin_transaction();
  txn.write("rep", 0, as_view(make_payload(1, 0, 2048)));
  ASSERT_TRUE(txn.commit().ok());
  for (std::uint32_t n : store_.replicas_of("rep")) {
    SimMicros svc = 0;
    auto r = store_.server(n).read("rep", 0, 2048, &svc);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(check_payload(1, 0, as_view(r.value().data)));
  }
}

TEST_F(TxnTest, MixedOpsTruncateAndRemove) {
  ASSERT_TRUE(client_.write("t1", 0, as_view(make_payload(2, 0, 1000))).ok());
  ASSERT_TRUE(client_.create("t2").ok());
  auto txn = client_.begin_transaction();
  txn.truncate("t1", 10).remove("t2").create("t3");
  ASSERT_TRUE(txn.commit().ok());
  EXPECT_EQ(client_.size("t1").value(), 10u);
  EXPECT_FALSE(client_.exists("t2"));
  EXPECT_TRUE(client_.exists("t3"));
}

TEST_F(TxnTest, ConcurrentDisjointTxnsAllSucceed) {
  constexpr int kThreads = 8;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    sim::SimAgent a;
    BlobClient c(store_, &a);
    for (int i = 0; i < 10; ++i) {
      auto txn = c.begin_transaction();
      txn.write(strfmt("t%zu-a", t), static_cast<std::uint64_t>(i) * 16,
                as_view(to_bytes("0123456789abcdef")))
          .write(strfmt("t%zu-b", t), static_cast<std::uint64_t>(i) * 16,
                 as_view(to_bytes("fedcba9876543210")));
      ASSERT_TRUE(txn.commit().ok());
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(client_.size(strfmt("t%d-a", t)).value(), 160u);
    EXPECT_EQ(client_.size(strfmt("t%d-b", t)).value(), 160u);
  }
}

TEST_F(TxnTest, ConcurrentConflictingTxnsSerialize) {
  // All threads increment the same counter blob under a version
  // precondition; retried on conflict. The final count must equal the
  // number of successful increments (no lost updates).
  constexpr int kThreads = 6;
  constexpr int kIncrements = 15;
  const Bytes zeros(8, std::byte{0});
  ASSERT_TRUE(client_.write("ctr", 0, as_view(zeros)).ok());
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    sim::SimAgent a;
    BlobClient c(store_, &a);
    for (int i = 0; i < kIncrements; ++i) {
      for (;;) {
        // Snapshot the version BEFORE reading the value: any interleaved
        // writer then forces a conflict instead of a lost update.
        const Version v = c.stat("ctr").value().version;
        auto cur = c.read("ctr", 0, 8);
        ASSERT_TRUE(cur.ok());
        ASSERT_EQ(cur.value().size(), 8u);
        std::uint64_t val = 0;
        std::memcpy(&val, cur.value().data(), 8);
        ++val;
        Bytes enc(8);
        std::memcpy(enc.data(), &val, 8);
        auto txn = c.begin_transaction();
        txn.expect_version("ctr", v).write("ctr", 0, as_view(enc));
        if (txn.commit().ok()) break;
      }
    }
    (void)t;
  });
  auto final_v = client_.read("ctr", 0, 8);
  ASSERT_TRUE(final_v.ok());
  std::uint64_t val = 0;
  std::memcpy(&val, final_v.value().data(), 8);
  EXPECT_EQ(val, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace bsc::blob
