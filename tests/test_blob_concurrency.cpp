// Concurrency tests for the unserialized blob write path: per-key striped
// locks (writers to distinct keys scale, writers to one key serialize
// identically on every replica), chunk-parallel I/O, transaction-vs-writer
// interleavings, and the work-stealing pool. Run these under
// -DBSC_SANITIZE=thread to validate the locking model.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace bsc::blob {
namespace {

/// One SimAgent + BlobClient per logical thread over a shared store.
struct MtRig {
  sim::Cluster cluster;
  BlobStore store;
  std::vector<std::unique_ptr<sim::SimAgent>> agents;
  std::vector<std::unique_ptr<BlobClient>> clients;

  explicit MtRig(int threads, StoreConfig cfg = {}) : store(cluster, cfg) {
    for (int t = 0; t < threads; ++t) {
      agents.push_back(std::make_unique<sim::SimAgent>());
      clients.push_back(std::make_unique<BlobClient>(store, agents.back().get()));
    }
  }
};

/// Assert every replica of `key` holds byte-identical content at the same
/// version; returns that version.
Version expect_replicas_identical(BlobStore& store, const std::string& key) {
  const auto replicas = store.replicas_of(key);
  EXPECT_FALSE(replicas.empty());
  SimMicros svc = 0;
  auto ref_stat = store.server(replicas.front()).stat(key, &svc);
  EXPECT_TRUE(ref_stat.ok()) << key;
  if (!ref_stat.ok()) return 0;
  auto ref = store.server(replicas.front()).read(key, 0, ref_stat.value().size, &svc);
  EXPECT_TRUE(ref.ok());
  for (std::uint32_t n : replicas) {
    auto st = store.server(n).stat(key, &svc);
    EXPECT_TRUE(st.ok()) << key << " missing on replica " << n;
    if (!st.ok()) continue;
    EXPECT_EQ(st.value().version, ref_stat.value().version) << key;
    EXPECT_EQ(st.value().size, ref_stat.value().size) << key;
    auto r = store.server(n).read(key, 0, st.value().size, &svc);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) continue;
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(ref.value().data))) << key;
  }
  return ref_stat.value().version;
}

TEST(BlobConcurrency, DistinctKeyWritersScaleAndConverge) {
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 40;
  MtRig rig(kThreads);
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    for (int i = 0; i < kWritesPerThread; ++i) {
      const std::string key = strfmt("dk-%zu-%d", t, i % 8);
      const Bytes data = make_payload(t * 1000 + static_cast<std::uint64_t>(i), 0, 4096);
      ASSERT_TRUE(client.write(key, 0, as_view(data)).ok());
    }
  });
  // Every key: replicas byte-identical, content = that thread's last write
  // of the slot (each slot is written by exactly one thread, in order).
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (int slot = 0; slot < 8; ++slot) {
      const std::string key = strfmt("dk-%zu-%d", t, slot);
      const Version v = expect_replicas_identical(rig.store, key);
      EXPECT_EQ(v, static_cast<Version>(kWritesPerThread / 8));
      const int last = kWritesPerThread - 8 + slot;
      const Bytes want = make_payload(t * 1000 + static_cast<std::uint64_t>(last), 0, 4096);
      auto r = rig.clients[t]->read(key, 0, 4096);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(equal(as_view(r.value()), as_view(want)));
    }
  }
  EXPECT_TRUE(rig.store.verify_all_integrity().ok());
}

TEST(BlobConcurrency, SameKeyWritersApplyInOneOrderEverywhere) {
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 50;
  MtRig rig(kThreads);
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    for (int i = 0; i < kWritesPerThread; ++i) {
      // Full overwrites with a thread+iteration-unique payload: whichever
      // write lands last, all replicas must agree on it byte-for-byte.
      const Bytes data =
          make_payload(7000 + t * 100 + static_cast<std::uint64_t>(i), 0, 4096);
      ASSERT_TRUE(client.write("hot", 0, as_view(data)).ok());
    }
  });
  const Version v = expect_replicas_identical(rig.store, "hot");
  // Every write applied on every replica exactly once (no lost updates).
  EXPECT_EQ(v, static_cast<Version>(kThreads * kWritesPerThread));
  EXPECT_TRUE(rig.store.verify_all_integrity().ok());
}

TEST(BlobConcurrency, MultiChunkWritersConvergePerChunk) {
  constexpr int kThreads = 4;
  StoreConfig cfg;
  cfg.chunk_bytes = 64 * 1024;  // small chunks so writes stripe
  MtRig rig(kThreads, cfg);
  ThreadPool pool(kThreads);
  constexpr std::uint64_t kBlobBytes = 200 * 1024;  // 4 chunks (last partial)
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    for (int i = 0; i < 6; ++i) {
      const Bytes data = make_payload(t * 10 + static_cast<std::uint64_t>(i), 0, kBlobBytes);
      ASSERT_TRUE(client.write(strfmt("mc-%zu", t), 0, as_view(data)).ok());
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string key = strfmt("mc-%zu", t);
    // Logical size lives on chunk 0; content round-trips through the
    // scatter-gather read path.
    EXPECT_EQ(rig.clients[t]->size(key).value(), kBlobBytes);
    const Bytes want = make_payload(t * 10 + 5, 0, kBlobBytes);
    auto r = rig.clients[t]->read(key, 0, kBlobBytes);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value()), as_view(want)));
    // Each chunk's replica set converged.
    expect_replicas_identical(rig.store, chunk_engine_key(key, 0));
    for (std::uint64_t c = 1; c * cfg.chunk_bytes < kBlobBytes; ++c) {
      expect_replicas_identical(rig.store, chunk_engine_key(key, c));
    }
  }
  // The namespace hides chunk keys.
  auto scan = rig.clients[0]->scan("mc-");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().size(), static_cast<std::size_t>(kThreads));
  EXPECT_TRUE(rig.store.verify_all_integrity().ok());
}

TEST(BlobConcurrency, MultiChunkOverwritesShareTheRetryBucket) {
  // A multi-chunk overwrite fans its per-primary groups out on the client's
  // pool, and every group leg earns into the client-wide retry bucket from
  // its own pool thread. The bucket must be guarded (run under TSan).
  constexpr int kThreads = 4;
  StoreConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.deadline.retry_token_cap = 16.0;  // bucket on
  MtRig rig(kThreads, cfg);
  ThreadPool pool(kThreads);
  constexpr std::uint64_t kBlobBytes = 512 * 1024;  // 8 chunks over several primaries
  constexpr int kRounds = 8;
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    for (int i = 0; i < kRounds; ++i) {
      const Bytes data = make_payload(t * 100 + static_cast<std::uint64_t>(i), 0, kBlobBytes);
      ASSERT_TRUE(client.write(strfmt("rb-%zu", t), 0, as_view(data)).ok());
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string key = strfmt("rb-%zu", t);
    const Bytes want = make_payload(t * 100 + kRounds - 1, 0, kBlobBytes);
    auto r = rig.clients[t]->read(key, 0, kBlobBytes);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value()), as_view(want))) << key;
    for (std::uint64_t c = 0; c * cfg.chunk_bytes < kBlobBytes; ++c) {
      expect_replicas_identical(rig.store, chunk_engine_key(key, c));
    }
  }
}

TEST(BlobConcurrency, TransactionsAndStripedWritersDoNotDeadlock) {
  constexpr int kThreads = 8;
  MtRig rig(kThreads);
  ThreadPool pool(kThreads);
  std::atomic<int> committed{0};
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    for (int i = 0; i < 30; ++i) {
      if (t % 2 == 0) {
        // Even threads: multi-key transactions over the shared key pair.
        auto txn = client.begin_transaction();
        const Bytes a = make_payload(t, static_cast<std::uint64_t>(i), 512);
        txn.write("txn-a", 0, as_view(a)).write("txn-b", 0, as_view(a));
        if (txn.commit().ok()) committed.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Odd threads: striped single-key writes to the same keys the
        // transactions lock exclusively.
        const Bytes d = make_payload(100 + t, static_cast<std::uint64_t>(i), 512);
        ASSERT_TRUE(client.write(t % 4 == 1 ? "txn-a" : "txn-b", 0, as_view(d)).ok());
      }
    }
  });
  EXPECT_EQ(committed.load(), kThreads / 2 * 30);
  expect_replicas_identical(rig.store, "txn-a");
  expect_replicas_identical(rig.store, "txn-b");
  EXPECT_TRUE(rig.store.verify_all_integrity().ok());
}

TEST(BlobConcurrency, StripeAcquisitionCountersAdvance) {
  MtRig rig(1);
  BlobClient& client = *rig.clients[0];
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.write(strfmt("sc-%d", i), 0, as_view(to_bytes("x"))).ok());
  }
  std::uint64_t total = 0;
  std::size_t hot_stripes = 0;
  for (std::size_t s = 0; s < rig.store.server_count(); ++s) {
    const auto acq = rig.store.server(static_cast<std::uint32_t>(s)).stripe_acquisitions();
    for (std::uint64_t a : acq) {
      total += a;
      if (a > 0) ++hot_stripes;
    }
  }
  // 32 keys × replication 3 lock acquisitions, spread over many stripes.
  EXPECT_EQ(total, 32u * rig.store.config().replication);
  EXPECT_GT(hot_stripes, 8u);
}

TEST(BlobConcurrency, WorkStealingPoolDrainsSkewedSubmission) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> ran{0};
  std::mutex mu;
  std::vector<std::future<void>> futures;
  // Nested submissions land on the submitting worker's own deque (skewed
  // backlog); the outer tasks never block on them — joining a nested task
  // from inside a worker can deadlock the pool — so the join happens here
  // on the external thread while idle workers steal the skew.
  pool.parallel_for(4, [&](std::size_t) {
    std::vector<std::future<void>> local;
    for (int i = 0; i < 64; ++i) {
      local.push_back(
          pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
    }
    std::scoped_lock lk(mu);
    for (auto& f : local) futures.push_back(std::move(f));
  });
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 4u * 64u);
  EXPECT_GE(pool.tasks_executed(), 4u * 64u + 4u);  // nested + the 4 outer
}

TEST(BlobConcurrency, SharedPageCacheSurvivesMixedBlobTraffic) {
  constexpr int kThreads = 8;
  MtRig rig(kThreads);
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    BlobClient& client = *rig.clients[t];
    const std::string key = strfmt("pc-%zu", t % 4);  // pairs of threads share keys
    for (int i = 0; i < 50; ++i) {
      const Bytes d = make_payload(t, static_cast<std::uint64_t>(i), 2048);
      ASSERT_TRUE(client.write(key, 0, as_view(d)).ok());
      auto r = client.read(key, 0, 2048);
      ASSERT_TRUE(r.ok());
    }
  });
  // Aggregated shard counters are coherent: reads hit the write-through
  // cache most of the time, and every node's budget invariant held.
  for (std::size_t n = 0; n < rig.cluster.storage_count(); ++n) {
    auto& cache = rig.cluster.storage_node(n).cache();
    std::uint64_t per_shard = 0;
    for (std::size_t s = 0; s < cache.shard_count(); ++s) {
      const auto sc = cache.shard_counters(s);
      per_shard += sc.hits + sc.misses;
    }
    EXPECT_EQ(per_shard, cache.hits() + cache.misses());
  }
}

}  // namespace
}  // namespace bsc::blob
