// Tests for the blob-backed key-value store.
#include <gtest/gtest.h>

#include <vector>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "kvstore/kv.hpp"

namespace bsc::kvstore {
namespace {

class KvTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  blob::BlobStore store_{cluster_};
  KvStore kv_{store_, "test"};
  sim::SimAgent agent_;
};

TEST_F(KvTest, PutGetOverwrite) {
  ASSERT_TRUE(kv_.put(agent_, "alpha", "1").ok());
  EXPECT_EQ(kv_.get(agent_, "alpha").value(), "1");
  ASSERT_TRUE(kv_.put(agent_, "alpha", "2").ok());
  EXPECT_EQ(kv_.get(agent_, "alpha").value(), "2");
  EXPECT_EQ(kv_.approximate_count(agent_), 1u);
}

TEST_F(KvTest, GetMissing) {
  EXPECT_EQ(kv_.get(agent_, "ghost").code(), Errc::not_found);
  EXPECT_FALSE(kv_.contains(agent_, "ghost"));
}

TEST_F(KvTest, EraseSemantics) {
  ASSERT_TRUE(kv_.put(agent_, "k", "v").ok());
  ASSERT_TRUE(kv_.erase(agent_, "k").ok());
  EXPECT_EQ(kv_.get(agent_, "k").code(), Errc::not_found);
  EXPECT_EQ(kv_.erase(agent_, "k").code(), Errc::not_found);
}

TEST_F(KvTest, ManyKeysAcrossBuckets) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(kv_.put(agent_, strfmt("key-%03d", i), strfmt("val-%03d", i)).ok());
  }
  EXPECT_EQ(kv_.approximate_count(agent_), 300u);
  for (int i = 0; i < 300; i += 17) {
    EXPECT_EQ(kv_.get(agent_, strfmt("key-%03d", i)).value(), strfmt("val-%03d", i));
  }
  auto items = kv_.items(agent_);
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 300u);
  EXPECT_TRUE(std::is_sorted(items.value().begin(), items.value().end()));
}

TEST_F(KvTest, ValuesShrinkCorrectly) {
  // Bucket blobs shrink via truncate when values get shorter; a stale tail
  // would corrupt decoding.
  ASSERT_TRUE(kv_.put(agent_, "k", std::string(4000, 'x')).ok());
  ASSERT_TRUE(kv_.put(agent_, "k", "tiny").ok());
  EXPECT_EQ(kv_.get(agent_, "k").value(), "tiny");
  EXPECT_EQ(kv_.approximate_count(agent_), 1u);
}

TEST_F(KvTest, PutManyIsAtomicBatch) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 50; ++i) batch.emplace_back(strfmt("b-%02d", i), "v");
  ASSERT_TRUE(kv_.put_many(agent_, batch).ok());
  EXPECT_EQ(kv_.approximate_count(agent_), 50u);
}

TEST_F(KvTest, ConcurrentWritersNoLostUpdates) {
  constexpr int kThreads = 6;
  constexpr int kKeysPerThread = 25;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    sim::SimAgent agent;
    for (int i = 0; i < kKeysPerThread; ++i) {
      // All threads hammer overlapping buckets; optimistic retries must
      // preserve every write.
      ASSERT_TRUE(kv_.put(agent, strfmt("t%zu-k%02d", t, i), strfmt("%zu", t)).ok());
    }
  });
  EXPECT_EQ(kv_.approximate_count(agent_), kThreads * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      EXPECT_TRUE(kv_.contains(agent_, strfmt("t%d-k%02d", t, i)));
    }
  }
}

TEST_F(KvTest, ConcurrentPutsToSameKeyStayConsistent) {
  // All threads overwrite ONE key: the final state must be exactly one
  // entry holding one of the written values, and no bucket corruption.
  constexpr int kThreads = 6;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    sim::SimAgent agent;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv_.put(agent, "hot", strfmt("writer-%zu", t)).ok());
    }
  });
  auto v = kv_.get(agent_, "hot");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(starts_with(v.value(), "writer-"));
  EXPECT_EQ(kv_.approximate_count(agent_), 1u);
}

TEST_F(KvTest, TwoStoresShareOneBlobNamespace) {
  KvStore other(store_, "other");
  ASSERT_TRUE(kv_.put(agent_, "dup", "from-test").ok());
  ASSERT_TRUE(other.put(agent_, "dup", "from-other").ok());
  EXPECT_EQ(kv_.get(agent_, "dup").value(), "from-test");
  EXPECT_EQ(other.get(agent_, "dup").value(), "from-other");
}

TEST_F(KvTest, SingleBucketConfigStillCorrect) {
  KvStore tiny(store_, "tiny", KvConfig{.buckets = 1});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(tiny.put(agent_, strfmt("k%d", i), strfmt("v%d", i)).ok());
  }
  EXPECT_EQ(tiny.approximate_count(agent_), 40u);
  EXPECT_EQ(tiny.get(agent_, "k39").value(), "v39");
}

// A bucket lives in chunk 0 of its blob: once it would outgrow chunk_bytes,
// puts are refused instead of acknowledged and lost. Every acknowledged put
// must read back exactly.
TEST(KvChunkLimit, EveryAcknowledgedPutReadsBack) {
  sim::Cluster cluster;
  blob::StoreConfig cfg;
  cfg.chunk_bytes = 4096;
  blob::BlobStore store(cluster, cfg);
  KvStore kv(store, "small", KvConfig{.buckets = 1});
  sim::SimAgent agent;
  std::vector<int> acked;
  for (int i = 0; i < 400; ++i) {
    const Status st = kv.put(agent, strfmt("key-%03d", i), strfmt("value-%03d", i));
    if (st.ok()) {
      acked.push_back(i);
    } else {
      EXPECT_EQ(st.code(), Errc::invalid_argument) << i;
    }
  }
  ASSERT_FALSE(acked.empty());
  EXPECT_LT(acked.size(), 400u);  // the bucket did fill up
  for (const int i : acked) {
    auto got = kv.get(agent, strfmt("key-%03d", i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value(), strfmt("value-%03d", i));
  }
  EXPECT_EQ(kv.approximate_count(agent), acked.size());
}

}  // namespace
}  // namespace bsc::kvstore
