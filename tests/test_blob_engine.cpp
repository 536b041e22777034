// Unit + property tests for the per-node blob engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "blob/storage_engine.hpp"
#include "common/rng.hpp"
#include "persist/fault_file.hpp"

namespace bsc::blob {
namespace {

TEST(Engine, CreateRemoveContains) {
  StorageEngine e;
  EXPECT_TRUE(e.create("a").ok());
  EXPECT_TRUE(e.contains("a"));
  EXPECT_EQ(e.create("a").code(), Errc::already_exists);
  EXPECT_TRUE(e.remove("a").ok());
  EXPECT_FALSE(e.contains("a"));
  EXPECT_EQ(e.remove("a").code(), Errc::not_found);
  EXPECT_EQ(e.create("").code(), Errc::invalid_argument);
}

TEST(Engine, WriteReadRoundTrip) {
  StorageEngine e;
  const Bytes data = make_payload(1, 0, 1000);
  auto w = e.write("k", 0, as_view(data), true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value().bytes, 1000u);
  EXPECT_TRUE(w.value().sequential_disk);
  auto r = e.read("k", 0, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  EXPECT_EQ(r.value().extents_touched, 1u);
}

TEST(Engine, WriteWithoutCreateFailsWhenMissing) {
  StorageEngine e;
  EXPECT_EQ(e.write("k", 0, as_view(to_bytes("x")), false).code(), Errc::not_found);
}

TEST(Engine, OverwriteSupersedes) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("aaaaaaaa")), true).ok());
  ASSERT_TRUE(e.write("k", 2, as_view(to_bytes("BB")), true).ok());
  auto r = e.read("k", 0, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value().data)), "aaBBaaaa");
  EXPECT_GT(e.dead_bytes(), 0u);
}

TEST(Engine, SparseHolesReadZero) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 100, as_view(to_bytes("xy")), true).ok());
  EXPECT_EQ(e.size("k").value(), 102u);
  auto r = e.read("k", 0, 102);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data[0], std::byte{0});
  EXPECT_EQ(r.value().data[99], std::byte{0});
  EXPECT_EQ(to_string(subview(as_view(r.value().data), 100, 2)), "xy");
}

TEST(Engine, ReadPastEndClipsAndEmpty) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("hello")), true).ok());
  auto r = e.read("k", 3, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value().data)), "lo");
  EXPECT_TRUE(e.read("k", 5, 10).value().data.empty());
  EXPECT_TRUE(e.read("k", 99, 10).value().data.empty());
}

TEST(Engine, TruncateShrinkAndGrow) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("abcdefgh")), true).ok());
  ASSERT_TRUE(e.truncate("k", 3).ok());
  EXPECT_EQ(e.size("k").value(), 3u);
  EXPECT_EQ(to_string(as_view(e.read("k", 0, 10).value().data)), "abc");
  // Grow back: the cut region must read as zeros, not stale data.
  ASSERT_TRUE(e.truncate("k", 8).ok());
  auto r = e.read("k", 0, 8);
  EXPECT_EQ(to_string(subview(as_view(r.value().data), 0, 3)), "abc");
  for (std::size_t i = 3; i < 8; ++i) EXPECT_EQ(r.value().data[i], std::byte{0});
}

TEST(Engine, VersionBumpsOnEveryMutation) {
  StorageEngine e;
  ASSERT_TRUE(e.create("k").ok());
  const Version v1 = e.version("k").value();
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("x")), false).ok());
  const Version v2 = e.version("k").value();
  ASSERT_TRUE(e.truncate("k", 0).ok());
  const Version v3 = e.version("k").value();
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST(Engine, RecreateAfterRemoveContinuesVersionSequence) {
  // Remove leaves a version floor: a recreated key's versions continue past
  // the dead incarnation's instead of restarting at 1, so a replica that
  // slept through remove+recreate can never look "freshest" to repair.
  StorageEngine e;
  ASSERT_TRUE(e.create("k").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("x")), false).ok());
  }
  const Version before = e.version("k").value();
  ASSERT_TRUE(e.remove("k").ok());
  ASSERT_TRUE(e.create("k").ok());
  EXPECT_GT(e.version("k").value(), before);

  // Same through the write-creates path.
  ASSERT_TRUE(e.remove("k").ok());
  const Version floor = before + 1;  // create consumed + reinstated the floor
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("y")), true).ok());
  EXPECT_GT(e.version("k").value(), floor);
}

TEST(Engine, ScanSortedAndPrefixFiltered) {
  StorageEngine e;
  ASSERT_TRUE(e.create("b/2").ok());
  ASSERT_TRUE(e.create("a/1").ok());
  ASSERT_TRUE(e.create("a/2").ok());
  auto all = e.scan();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, "a/1");
  EXPECT_EQ(all[2].key, "b/2");
  EXPECT_EQ(e.scan("a/").size(), 2u);
  EXPECT_EQ(e.scan("zzz").size(), 0u);
}

TEST(Engine, CompactionReclaimsDeadBytesAndPreservesData) {
  StorageEngine e(EngineConfig{.compact_dead_ratio = 0.3});
  Rng rng(42);
  std::map<std::string, Bytes> model;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "obj-" + std::to_string(i % 7);
    const auto off = rng.next_below(2000);
    const Bytes data = make_payload(i, off, 500);
    ASSERT_TRUE(e.write(key, off, as_view(data), true).ok());
    write_at(model[key], off, as_view(data));
  }
  ASSERT_TRUE(e.needs_compaction());
  const std::uint64_t dead = e.dead_bytes();
  EXPECT_EQ(e.compact(), dead);
  EXPECT_EQ(e.dead_bytes(), 0u);
  EXPECT_TRUE(e.verify_integrity().ok());
  for (const auto& [key, expect] : model) {
    auto r = e.read(key, 0, expect.size());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(expect))) << key;
  }
}

TEST(Engine, SteadyStateOverwriteRecyclesSegmentSlots) {
  // A bounded working set overwritten forever must not grow the memory it
  // holds: every overwrite fully replaces the previous round's extents, so
  // their buffers are freed and exactly the live bytes stay held.
  StorageEngine e;
  const Bytes data = make_payload(9, 0, 4000);
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(e.write("hot-" + std::to_string(k), 0, as_view(data), true).ok());
    }
  }
  EXPECT_EQ(e.live_bytes(), 4u * 4000u);
  EXPECT_EQ(e.buffer_bytes(), e.live_bytes());
  EXPECT_TRUE(e.verify_integrity().ok());
  for (int k = 0; k < 4; ++k) {
    auto r = e.read("hot-" + std::to_string(k), 0, 4000);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  }
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(e.remove("hot-" + std::to_string(k)).ok());
  EXPECT_EQ(e.buffer_bytes(), 0u);
}

TEST(Engine, RecycledSlotSurvivesRemoveTruncateAndCompact) {
  StorageEngine e;
  const Bytes data = make_payload(10, 0, 2000);
  for (int i = 0; i < 8; ++i) {
    const std::string key = "r-" + std::to_string(i);
    ASSERT_TRUE(e.write(key, 0, as_view(data), true).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(e.remove(key).ok());
    } else {
      ASSERT_TRUE(e.truncate(key, 100).ok());
    }
  }
  ASSERT_TRUE(e.write("keep", 0, as_view(data), true).ok());
  EXPECT_TRUE(e.verify_integrity().ok());
  // Removed objects freed their buffers; each truncated one still holds its
  // whole 2000-byte buffer for 100 live bytes.
  EXPECT_EQ(e.live_bytes(), 4u * 100u + 2000u);
  EXPECT_EQ(e.buffer_bytes(), 5u * 2000u);
  e.compact();
  EXPECT_EQ(e.buffer_bytes(), e.live_bytes());
  EXPECT_TRUE(e.verify_integrity().ok());
  auto r = e.read("keep", 0, 2000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  for (int i = 1; i < 8; i += 2) {
    auto t = e.read("r-" + std::to_string(i), 0, 100);
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(equal(as_view(t.value().data), subview(as_view(data), 0, 100)));
  }
  // Steady-state overwrites after compaction hold only the live bytes.
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(e.write("keep", 0, as_view(data), true).ok());
  }
  EXPECT_EQ(e.buffer_bytes(), e.live_bytes());
  EXPECT_TRUE(e.verify_integrity().ok());
  ASSERT_TRUE(e.remove("keep").ok());
  for (int i = 1; i < 8; i += 2) ASSERT_TRUE(e.remove("r-" + std::to_string(i)).ok());
  EXPECT_EQ(e.buffer_bytes(), 0u);
}

TEST(Engine, IntegrityDetectsCorruption) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(make_payload(3, 0, 256)), true).ok());
  EXPECT_TRUE(e.verify_integrity().ok());
  ASSERT_TRUE(e.corrupt_for_testing("k"));
  EXPECT_EQ(e.verify_integrity().code(), Errc::io_error);
}

TEST(Engine, CorruptionCopiesASharedBuffer) {
  // Two replicas store one client buffer; corrupting one must not reach the
  // other, which still verifies and reads back the original bytes.
  StorageEngine a;
  StorageEngine b;
  const Bytes data = make_payload(5, 0, 4096);
  const SharedBytes shared = SharedBytes::copy_of(as_view(data));
  ASSERT_TRUE(a.write("k", 0, shared, true).ok());
  ASSERT_TRUE(b.write("k", 0, shared, true).ok());
  ASSERT_TRUE(a.corrupt_for_testing("k"));
  EXPECT_EQ(a.verify_object("k").code(), Errc::io_error);
  EXPECT_TRUE(b.verify_object("k").ok());
  auto r = b.read("k", 0, data.size());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  EXPECT_TRUE(equal(shared.view, as_view(data)));
}

TEST(Engine, RemoveAccountsDeadBytes) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(make_payload(4, 0, 512)), true).ok());
  EXPECT_EQ(e.live_bytes(), 512u);
  ASSERT_TRUE(e.remove("k").ok());
  EXPECT_EQ(e.live_bytes(), 0u);
  EXPECT_EQ(e.dead_bytes(), 512u);
}

// Property sweep: random offset/length write programs agree with an
// in-memory reference model, through splits, trims and compactions.
class EngineRandomProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineRandomProgram, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  StorageEngine e(EngineConfig{.compact_dead_ratio = 0.5});
  Rng rng(seed);
  std::map<std::string, Bytes> model;
  for (int step = 0; step < 300; ++step) {
    const std::string key = "k" + std::to_string(rng.next_below(5));
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 6) {
      const auto off = rng.next_below(4000);
      const auto len = 1 + rng.next_below(700);
      const Bytes data = make_payload(seed ^ step, off, len);
      ASSERT_TRUE(e.write(key, off, as_view(data), true).ok());
      write_at(model[key], off, as_view(data));
    } else if (action < 8) {
      const auto nsz = rng.next_below(4500);
      auto r = e.truncate(key, nsz);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(r.code(), Errc::not_found);
      } else {
        ASSERT_TRUE(r.ok());
        it->second.resize(nsz);  // grow zero-fills, shrink cuts
      }
    } else if (action < 9) {
      auto st = e.remove(key);
      EXPECT_EQ(st.ok(), model.erase(key) > 0);
    } else if (e.needs_compaction()) {
      e.compact();
    }
    // Spot-check a random range of a random object.
    if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      const auto off = rng.next_below(it->second.size() + 10);
      const auto len = rng.next_below(1000);
      auto r = e.read(it->first, off, len);
      ASSERT_TRUE(r.ok());
      const ByteView expect = subview(as_view(it->second), off, len);
      ASSERT_TRUE(equal(as_view(r.value().data), expect))
          << "key=" << it->first << " off=" << off << " len=" << len;
    }
  }
  EXPECT_TRUE(e.verify_integrity().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomProgram,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- sharding ---------------------------------------------------------------

/// `per_shard` keys in every engine shard, shard-major: keys[s * per_shard + r]
/// is the r-th key of shard s.
std::vector<std::string> keys_in_every_shard(std::size_t per_shard) {
  std::array<std::vector<std::string>, StorageEngine::kShards> by_shard;
  std::size_t filled = 0;
  for (std::size_t i = 0; filled < StorageEngine::kShards; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto& bucket = by_shard[StorageEngine::shard_of(key)];
    if (bucket.size() == per_shard) continue;
    bucket.push_back(std::move(key));
    if (bucket.size() == per_shard) ++filled;
  }
  std::vector<std::string> keys;
  for (auto& bucket : by_shard) keys.insert(keys.end(), bucket.begin(), bucket.end());
  return keys;
}

TEST(EngineShards, AccountingMatchesPerKeyTruth) {
  StorageEngine e;
  const auto keys = keys_in_every_shard(3);
  struct Truth {
    Bytes data;
    std::vector<bool> backed;  ///< byte written since the last truncate below it
  };
  std::map<std::string, Truth> model;
  std::uint64_t appended = 0;
  // Write lengths strictly grow, so no write can exactly match an existing
  // extent: every write adds an extent, and exactly `appended` bytes were
  // stored, each live or dead.
  std::uint64_t len = 16;
  Rng rng(7);
  for (int step = 0; step < 3000; ++step) {
    const std::string& key = keys[rng.next_below(keys.size())];
    const auto action = rng.next_below(10);
    if (action < 7) {
      const auto off = rng.next_below(1024);
      const Bytes data = make_payload(static_cast<std::uint64_t>(step), off, ++len);
      ASSERT_TRUE(e.write(key, off, as_view(data), true).ok());
      Truth& t = model[key];
      write_at(t.data, off, as_view(data));
      t.backed.resize(t.data.size(), false);
      std::fill_n(t.backed.begin() + static_cast<std::ptrdiff_t>(off), len, true);
      appended += len;
    } else if (action < 9) {
      const auto nsz = rng.next_below(2048);
      auto it = model.find(key);
      ASSERT_EQ(e.truncate(key, nsz).ok(), it != model.end());
      if (it != model.end()) {
        it->second.data.resize(nsz);
        it->second.backed.resize(nsz, false);
      }
    } else {
      ASSERT_EQ(e.remove(key).ok(), model.erase(key) > 0);
    }
  }

  std::uint64_t live = 0;
  for (const auto& [key, t] : model) {
    live += static_cast<std::uint64_t>(std::count(t.backed.begin(), t.backed.end(), true));
  }
  EXPECT_EQ(e.object_count(), model.size());
  EXPECT_EQ(e.live_bytes(), live);
  EXPECT_EQ(e.dead_bytes(), appended - live);

  // The merged scan is one sorted listing, prefix-filtered or not.
  std::uint64_t visited = 0;
  const auto all = e.scan({}, &visited);
  EXPECT_EQ(visited, model.size());
  ASSERT_EQ(all.size(), model.size());
  auto mit = model.begin();
  for (const BlobStat& st : all) {
    EXPECT_EQ(st.key, mit->first);
    EXPECT_EQ(st.size, mit->second.data.size()) << st.key;
    ++mit;
  }
  const auto some = e.scan("key-1");
  EXPECT_TRUE(std::is_sorted(some.begin(), some.end(),
                             [](const BlobStat& a, const BlobStat& b) { return a.key < b.key; }));
  EXPECT_EQ(some.size(), static_cast<std::size_t>(std::count_if(
                             model.begin(), model.end(),
                             [](const auto& kv) { return kv.first.rfind("key-1", 0) == 0; })));

  const std::uint64_t dead = e.dead_bytes();
  EXPECT_EQ(e.compact(), dead);
  EXPECT_EQ(e.dead_bytes(), 0u);
  EXPECT_EQ(e.live_bytes(), live);
  EXPECT_TRUE(e.verify_integrity().ok());
  for (const auto& [key, t] : model) {
    auto r = e.read(key, 0, t.data.size());
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(t.data))) << key;
    EXPECT_EQ(r.value().size, t.data.size()) << key;
  }
}

TEST(EngineShards, CheckpointAndWalReplayRoundTripAcrossShards) {
  persist::TempDir dir;
  auto j = persist::Journal::open(dir.path(), {.fsync = persist::FsyncPolicy::none});
  ASSERT_TRUE(j.ok());
  auto journal = std::move(j).take();
  const EngineConfig cfg{};
  StorageEngine e(cfg);
  e.attach_journal(journal.get());
  // Three keys per shard, one per role:
  //  0: removed before the checkpoint — its version floor lives in the snapshot;
  //  1: removed after it — the floor is rebuilt by WAL replay;
  //  2: removed before, recreated after — the floor is consumed.
  constexpr std::size_t kRoles = 3;
  const auto keys = keys_in_every_shard(kRoles);
  const auto role = [](std::size_t i) { return i % kRoles; };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto len = 200 + 7 * i;
    ASSERT_TRUE(e.write(keys[i], 0, as_view(make_payload(i, 0, len)), true).ok());
    ASSERT_TRUE(e.write(keys[i], 50, as_view(make_payload(i + 1000, 50, 40)), true).ok());
    ASSERT_TRUE(e.set_version(keys[i], 10 + i).ok());
    if (role(i) != 1) ASSERT_TRUE(e.remove(keys[i]).ok());
  }
  ASSERT_TRUE(e.write_checkpoint().ok());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (role(i) == 1) {
      ASSERT_TRUE(e.truncate(keys[i], 120).ok());
      ASSERT_TRUE(e.remove(keys[i]).ok());
    } else if (role(i) == 2) {
      ASSERT_TRUE(e.write(keys[i], 30, as_view(make_payload(i + 2000, 30, 90)), true).ok());
      ASSERT_TRUE(e.grow(keys[i], 500).ok());
    }
  }
  ASSERT_TRUE(journal->sync().ok());

  persist::RecoveryReport report;
  auto rec = StorageEngine::recover(dir.path(), cfg, &report);
  ASSERT_TRUE(rec.ok()) << rec.error().message();
  EXPECT_GT(report.checkpoint_lsn, 0u);
  EXPECT_GT(report.records_replayed, 0u);
  StorageEngine& got = rec.value();

  const auto ws = e.scan();
  const auto gs = got.scan();
  ASSERT_EQ(ws.size(), keys.size() / kRoles);
  ASSERT_EQ(gs.size(), ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(gs[i].key, ws[i].key);
    EXPECT_EQ(gs[i].size, ws[i].size) << ws[i].key;
    EXPECT_EQ(gs[i].version, ws[i].version) << ws[i].key;
    auto wr = e.read(ws[i].key, 0, ws[i].size);
    auto gr = got.read(ws[i].key, 0, ws[i].size);
    ASSERT_TRUE(wr.ok() && gr.ok()) << ws[i].key;
    EXPECT_TRUE(equal(as_view(gr.value().data), as_view(wr.value().data))) << ws[i].key;
  }
  EXPECT_EQ(got.live_bytes(), e.live_bytes());

  // Every outstanding floor survived: recreating a removed key continues its
  // version sequence identically in both engines.
  e.attach_journal(nullptr);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (role(i) == 2) continue;
    ASSERT_TRUE(e.create(keys[i]).ok());
    ASSERT_TRUE(got.create(keys[i]).ok());
    EXPECT_EQ(got.version(keys[i]).value(), e.version(keys[i]).value()) << keys[i];
    EXPECT_GT(got.version(keys[i]).value(), 10 + i) << keys[i];
  }
}

TEST(EngineShards, ConcurrentReadsPairContentWithVersion) {
  // One writer per key overwrites it with payloads tagged by the version the
  // write produces; readers race them. Every read outcome must carry the
  // version of the bytes it returned — a read that looked the version up in
  // a second lock hold would pair data with a newer version.
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kLen = 4096;
  constexpr Version kWrites = 4000;
  const auto tagged = [](Version v) {
    Bytes b(kLen);
    for (std::size_t off = 0; off < kLen; off += sizeof v) std::memcpy(&b[off], &v, sizeof v);
    return b;
  };
  // The version a payload carries, or 0 when its words disagree (torn).
  const auto tag_of = [](ByteView data) -> Version {
    Version v = 0;
    if (data.size() < sizeof v) return 0;
    std::memcpy(&v, data.data(), sizeof v);
    for (std::size_t off = 0; off + sizeof v <= data.size(); off += sizeof v) {
      if (std::memcmp(data.data() + off, &v, sizeof v) != 0) return 0;
    }
    return v;
  };
  StorageEngine e;
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back("hot-" + std::to_string(k));
    ASSERT_EQ(e.write(keys[k], 0, as_view(tagged(1)), true).value().version, 1u);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Bytes buf(kLen);
      for (std::uint64_t i = r; !done.load(std::memory_order_relaxed); ++i) {
        const std::string& key = keys[i % kKeys];
        auto rd = e.read(key, 0, kLen);
        if (!rd.ok() || tag_of(as_view(rd.value().data)) != rd.value().version) {
          mismatches.fetch_add(1);
        }
        auto ri = e.read_into(key, 0, MutableByteView{buf.data(), buf.size()});
        if (!ri.ok() || tag_of(as_view(buf)) != ri.value().version) mismatches.fetch_add(1);
        reads.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t k = 0; k < kKeys; ++k) {
    writers.emplace_back([&, k] {
      for (Version v = 2; v <= kWrites; ++v) {
        auto w = e.write(keys[k], 0, as_view(tagged(v)), false);
        if (!w.ok() || w.value().version != v) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace bsc::blob
