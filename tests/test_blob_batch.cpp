// Batched scatter-gather striping: wire envelope round-trips, equivalence
// with an unstriped reference store (byte contents, sizes, errors, replica
// convergence), chunk coalescing, hole accounting in the read counters, the
// client metadata cache under concurrent truncate/remove/recreate, the
// single-round behavior of absent / at-EOF striped reads, and striped I/O
// through an RPC fault injector.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "rpc/fault.hpp"
#include "rpc/wire.hpp"

namespace bsc::blob {
namespace {

constexpr std::uint64_t kChunk = 1ULL << 20;

/// The reference store of the equivalence checks: chunk_bytes = 0 never
/// stripes, so every op is one plain request (a lone read or stat through
/// the read leg, or a plain mutation leg) — no chunk layout, no batch
/// envelopes, no metadata cache, unlike the striped path under test. It
/// also covers the remove/truncate chunk_bytes == 0 guard.
StoreConfig unstriped_cfg() {
  StoreConfig cfg;
  cfg.chunk_bytes = 0;
  return cfg;
}

// --- wire envelope --------------------------------------------------------

TEST(BatchWire, RequestRoundTripPinsWireSize) {
  const Bytes payload = make_payload(7, 0, 300);
  rpc::BatchRequest req;
  req.ops.push_back({rpc::BatchOpKind::write, "blob\x1f""3", 2, 4096, 0,
                     0xdeadbeefULL, as_view(payload)});
  req.ops.push_back({rpc::BatchOpKind::read, "blob", 1, 0, 512, 0, {}});
  req.ops.push_back({rpc::BatchOpKind::stat, "blob", 1, 0, 0, 0, {}});

  const Bytes buf = rpc::encode(req);
  ASSERT_EQ(rpc::wire_size(req), buf.size());

  auto dec = rpc::decode_batch_request(as_view(buf));
  ASSERT_TRUE(dec.ok());
  const auto& ops = dec.value().ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, rpc::BatchOpKind::write);
  EXPECT_EQ(ops[0].key, "blob\x1f""3");
  EXPECT_EQ(ops[0].span, 2u);
  EXPECT_EQ(ops[0].offset, 4096u);
  EXPECT_EQ(ops[0].checksum, 0xdeadbeefULL);
  EXPECT_TRUE(equal(ops[0].data, as_view(payload)));
  EXPECT_EQ(ops[1].kind, rpc::BatchOpKind::read);
  EXPECT_EQ(ops[1].len, 512u);
  EXPECT_EQ(ops[2].kind, rpc::BatchOpKind::stat);
}

TEST(BatchWire, ReplyRoundTripPinsWireSize) {
  const Bytes payload = make_payload(9, 0, 129);
  rpc::BatchReply reply;
  reply.subs.push_back({0, 129, 42, 0x5eedULL, as_view(payload)});
  reply.subs.push_back({static_cast<std::uint8_t>(Errc::not_found), 0, 0, 0, {}});

  const Bytes buf = rpc::encode(reply);
  ASSERT_EQ(rpc::wire_size(reply), buf.size());

  auto dec = rpc::decode_batch_reply(as_view(buf));
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.value().subs.size(), 2u);
  EXPECT_EQ(dec.value().subs[0].version, 42u);
  EXPECT_EQ(dec.value().subs[0].digest, 0x5eedULL);
  EXPECT_TRUE(equal(dec.value().subs[0].data, as_view(payload)));
  EXPECT_EQ(dec.value().subs[1].errc, static_cast<std::uint8_t>(Errc::not_found));
  EXPECT_EQ(dec.value().subs[1].digest, 0u);
}

TEST(BatchWire, RequestFlagsRoundTrip) {
  rpc::BatchRequest req;
  req.flags = rpc::kBatchDigestOnly;
  req.ops.push_back({rpc::BatchOpKind::read, "k", 1, 0, 64, 0, {}});
  const Bytes buf = rpc::encode(req);
  ASSERT_EQ(rpc::wire_size(req), buf.size());
  auto dec = rpc::decode_batch_request(as_view(buf));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().flags, rpc::kBatchDigestOnly);
}

TEST(BatchWire, RejectsUnknownKindAndTruncation) {
  rpc::BatchRequest req;
  req.ops.push_back({rpc::BatchOpKind::write, "k", 1, 0, 0, 0, {}});
  Bytes buf = rpc::encode(req);
  Bytes bad = buf;
  bad[5] = std::byte{99};  // kind of the first op, after the flags u8 + u32 count
  EXPECT_FALSE(rpc::decode_batch_request(as_view(bad)).ok());
  buf.pop_back();
  EXPECT_FALSE(rpc::decode_batch_request(as_view(buf)).ok());
}

// --- batched striped vs unstriped (single-leg) equivalence ---------------

/// Runs one scripted striped workload against a fresh store and returns the
/// full observable state: every app-level read plus final sizes.
struct ScriptResult {
  std::vector<Bytes> reads;
  std::vector<std::uint64_t> sizes;
  std::vector<Errc> errs;
};

ScriptResult run_script(const StoreConfig& cfg) {
  sim::Cluster cluster;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ScriptResult out;

  auto record_read = [&](std::string_view key, std::uint64_t off, std::uint64_t len) {
    auto r = client.read(key, off, len);
    out.errs.push_back(r.code());
    out.reads.push_back(r.ok() ? std::move(r.value()) : Bytes{});
  };
  auto record_size = [&](std::string_view key) {
    auto s = client.size(key);
    out.sizes.push_back(s.ok() ? s.value() : ~0ULL);
  };

  // 4.5-chunk blob written at an odd offset, then overwritten mid-stripe.
  const Bytes big = make_payload(1, 12345, 4 * kChunk + kChunk / 2);
  EXPECT_TRUE(client.write("a", 12345, as_view(big)).ok());
  const Bytes over = make_payload(2, 0, kChunk);
  EXPECT_TRUE(client.write("a", 2 * kChunk - 777, as_view(over)).ok());
  record_size("a");
  record_read("a", 0, 6 * kChunk);
  record_read("a", 2 * kChunk - 800, 1000);      // straddles the overwrite
  record_read("a", kChunk - 3, 7);               // chunk boundary
  record_read("a", 4 * kChunk, 2 * kChunk);      // tail, clipped at EOF
  record_read("a", 7 * kChunk, 16);              // past EOF -> empty

  // Sparse blob: write lands in chunk 3 only; chunks 0-2 are holes.
  EXPECT_TRUE(client.write("sparse", 3 * kChunk + 11, as_view(make_payload(3, 0, 4096))).ok());
  record_size("sparse");
  record_read("sparse", 0, 4 * kChunk);
  record_read("sparse", kChunk, 100);            // pure hole chunk

  // Truncate down to mid-chunk (drops chunks 2+, trims chunk 1), then up.
  EXPECT_TRUE(client.truncate("a", kChunk + kChunk / 2).ok());
  record_size("a");
  record_read("a", 0, 2 * kChunk);
  EXPECT_TRUE(client.truncate("a", 3 * kChunk).ok());
  record_size("a");
  record_read("a", kChunk, 2 * kChunk);          // trailing zeros

  // Remove + recreate with different striped contents.
  EXPECT_TRUE(client.remove("a").ok());
  record_read("a", 0, kChunk * 2);               // not_found
  const Bytes fresh = make_payload(4, 0, 2 * kChunk + 99);
  EXPECT_TRUE(client.write("a", 0, as_view(fresh)).ok());
  record_size("a");
  record_read("a", 0, 3 * kChunk);

  // Absent blob: striped-range read of a key that never existed.
  record_read("ghost", 0, 5 * kChunk);

  // Replica convergence: scrub must be clean on both stores.
  const auto report = store.scrub(/*repair=*/false, &agent);
  EXPECT_EQ(report.divergent_replicas, 0u);
  EXPECT_EQ(report.checksum_errors, 0u);
  EXPECT_TRUE(store.verify_all_integrity().ok());
  return out;
}

void expect_equivalent(const ScriptResult& striped, const ScriptResult& reference) {
  ASSERT_EQ(striped.reads.size(), reference.reads.size());
  ASSERT_EQ(striped.errs, reference.errs);
  ASSERT_EQ(striped.sizes, reference.sizes);
  for (std::size_t i = 0; i < striped.reads.size(); ++i) {
    EXPECT_TRUE(equal(as_view(striped.reads[i]), as_view(reference.reads[i])))
        << "read " << i << " diverged from the unstriped reference";
  }
}

// "PerLeg" in these names is the reference: the unstriped store, where
// every op is one single-key leg.
TEST(BatchEquivalence, BatchedAndPerLegProduceIdenticalResults) {
  expect_equivalent(run_script(StoreConfig{}), run_script(unstriped_cfg()));
}

TEST(QuorumBatchEquivalence, R2BatchedMatchesPerLeg) {
  StoreConfig on;
  on.write_quorum = 2;  // replication 3 -> R = 2: every read arbitrates
  StoreConfig off = unstriped_cfg();
  off.write_quorum = 2;
  expect_equivalent(run_script(on), run_script(off));
}

TEST(QuorumBatchEquivalence, R3BatchedMatchesPerLeg) {
  StoreConfig on;
  on.write_quorum = 1;  // replication 3 -> R = 3: full-set arbitration
  StoreConfig off = unstriped_cfg();
  off.write_quorum = 1;
  expect_equivalent(run_script(on), run_script(off));
}

TEST(QuorumBatchEquivalence, HedgedBatchedMatchesPerLeg) {
  StoreConfig on;
  on.hedge.enabled = true;
  on.hedge.fixed_delay_us = 1;  // hedge aggressively; results must not change
  expect_equivalent(run_script(on), run_script(unstriped_cfg()));
}

// --- coalescing -----------------------------------------------------------

TEST(BatchCoalescing, AdjacentChunksOnOnePrimaryShareASubHeader) {
  // One storage node: every chunk's acting primary is the same server, so
  // the chunk legs of a striped write form a single batch whose consecutive
  // chunks coalesce into one vectored sub-op.
  sim::Cluster cluster{sim::ClusterSpec::with_storage_nodes(1)};
  StoreConfig cfg;
  cfg.replication = 1;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes data = make_payload(5, 0, 4 * kChunk);
  ASSERT_TRUE(client.write("c", 0, as_view(data)).ok());
  EXPECT_GE(client.counters().batch_envelopes, 1u);
  EXPECT_GE(client.counters().coalesced_ops, 1u);

  auto r = client.read("c", 0, 4 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
  // The read fanned out as one batch too (chunks 0..3 plus the stat sub).
  EXPECT_GE(client.counters().batch_envelopes, 2u);
}

// --- hole accounting (satellite: bytes_read counted zero-filled bytes) ----

TEST(BatchHoleAccounting, BytesReadCountsExtentBackedBytesOnly) {
  // The striped store and the unstriped reference decompose identically.
  for (const bool striped : {true, false}) {
    sim::Cluster cluster;
    BlobStore store(cluster, striped ? StoreConfig{} : unstriped_cfg());
    sim::SimAgent agent;
    BlobClient client(store, &agent);

    // 4 KiB of real data deep in chunk 3; chunks 0-2 are pure holes.
    ASSERT_TRUE(client.write("h", 3 * kChunk + 11, as_view(make_payload(6, 0, 4096))).ok());
    const std::uint64_t logical = 3 * kChunk + 11 + 4096;
    auto r = client.read("h", 0, 4 * kChunk);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), logical);
    EXPECT_EQ(client.counters().bytes_read, 4096u) << "striped=" << striped;
    EXPECT_EQ(client.counters().read_hole_bytes, logical - 4096u)
        << "striped=" << striped;

    // Single-chunk path: truncate-up creates a tail hole inside chunk 0.
    ASSERT_TRUE(client.write("s", 0, as_view(make_payload(7, 0, 100))).ok());
    ASSERT_TRUE(client.truncate("s", 50000).ok());
    auto sr = client.read("s", 0, 50000);
    ASSERT_TRUE(sr.ok());
    ASSERT_EQ(sr.value().size(), 50000u);
    EXPECT_EQ(client.counters().bytes_read, 4096u + 100u) << "striped=" << striped;
    EXPECT_EQ(client.counters().read_hole_bytes, (logical - 4096u) + 49900u)
        << "striped=" << striped;
  }
}

// --- metadata cache -------------------------------------------------------

class MetaCacheTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  BlobStore store_{cluster_};
  sim::SimAgent agent_a_, agent_b_;
  BlobClient a_{store_, &agent_a_};
  BlobClient b_{store_, &agent_b_};
};

TEST_F(MetaCacheTest, HitsSkipTheStatRound) {
  const Bytes data = make_payload(8, 0, 3 * kChunk);
  ASSERT_TRUE(a_.write("k", 0, as_view(data)).ok());  // write primes the cache
  ASSERT_TRUE(a_.read("k", 0, 3 * kChunk).ok());
  ASSERT_TRUE(a_.read("k", kChunk, kChunk).ok());
  EXPECT_EQ(a_.counters().metacache_hits, 2u);
  EXPECT_EQ(a_.counters().metacache_misses, 0u);

  // A fresh client misses once, then hits.
  ASSERT_TRUE(b_.read("k", 0, 3 * kChunk).ok());
  ASSERT_TRUE(b_.read("k", 0, 3 * kChunk).ok());
  EXPECT_EQ(b_.counters().metacache_misses, 1u);
  EXPECT_EQ(b_.counters().metacache_hits, 1u);
}

TEST_F(MetaCacheTest, ConcurrentTruncateIsDetectedAndReread) {
  const Bytes data = make_payload(9, 0, 3 * kChunk);
  ASSERT_TRUE(a_.write("k", 0, as_view(data)).ok());
  ASSERT_TRUE(a_.read("k", 0, 3 * kChunk).ok());

  // Another client shrinks the blob behind a_'s cache.
  ASSERT_TRUE(b_.truncate("k", kChunk + 5).ok());

  auto r = a_.read("k", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), kChunk + 5);  // stale size detected, re-read
  EXPECT_TRUE(equal(as_view(r.value()), subview(as_view(data), 0, kChunk + 5)));
  EXPECT_GE(a_.counters().metacache_invalidations, 1u);
}

TEST_F(MetaCacheTest, ConcurrentRemoveAndRecreateAreDetected) {
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(10, 0, 2 * kChunk))).ok());
  ASSERT_TRUE(a_.read("k", 0, 2 * kChunk).ok());

  ASSERT_TRUE(b_.remove("k").ok());
  EXPECT_EQ(a_.read("k", 0, 2 * kChunk).code(), Errc::not_found);

  const Bytes fresh = make_payload(11, 0, 2 * kChunk + kChunk / 2);
  ASSERT_TRUE(b_.write("k", 0, as_view(fresh)).ok());
  auto r = a_.read("k", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(fresh)));
}

TEST_F(MetaCacheTest, LocalMutationsInvalidate) {
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(12, 0, 2 * kChunk))).ok());
  ASSERT_TRUE(a_.read("k", 0, 2 * kChunk).ok());
  ASSERT_TRUE(a_.truncate("k", kChunk / 2).ok());  // refreshes the entry itself
  auto r = a_.read("k", 0, 2 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), kChunk / 2);

  // A transaction on the key drops the entry outright.
  auto txn = a_.begin_transaction();
  txn.truncate("k", 10);
  ASSERT_TRUE(txn.commit().ok());
  auto r2 = a_.read("k", 0, kChunk);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().size(), 10u);
}

// --- per-sub quorum voting in the batch envelope --------------------------

TEST(QuorumBatchedReads, SixteenChunkReadShipsOneEnvelopePerGroupReplica) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // replication 3 -> R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes data = make_payload(20, 0, 16 * kChunk);
  ASSERT_TRUE(client.write("e", 0, as_view(data)).ok());

  // Reproduce the client's grouping: chunks sharing their first-R-live
  // replica tuple ride one envelope pair (the stat sentinel uses the base
  // key, which IS chunk 0's key, so it joins chunk 0's group).
  std::set<std::vector<std::uint32_t>> tuples;
  for (std::uint64_t c = 0; c < 16; ++c) {
    const auto reps = store.replicas_of(chunk_engine_key("e", c));
    ASSERT_GE(reps.size(), 2u);
    tuples.insert({reps[0], reps[1]});
  }
  const auto groups = static_cast<std::uint64_t>(tuples.size());

  const std::uint64_t env0 = client.counters().batch_envelopes;
  const std::uint64_t probes0 = client.counters().quorum_probes;
  const std::uint64_t winners0 = client.counters().quorum_winners;
  const std::uint64_t savings0 = client.counters().quorum_digest_savings_bytes;
  auto r = client.read("e", 0, 16 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));

  // One payload envelope + one digest-only envelope per candidate tuple;
  // every sub resolves on the first vote (no refetch), so each sub-op's
  // payload crossed the wire exactly once.
  EXPECT_EQ(client.counters().batch_envelopes - env0, 2 * groups);
  EXPECT_EQ(client.counters().quorum_probes - probes0, groups);
  EXPECT_EQ(client.counters().quorum_winners - winners0, 16u);
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
  // The digest-only envelopes saved ~1 payload per probed group.
  EXPECT_GE(client.counters().quorum_digest_savings_bytes - savings0,
            groups * kChunk);
}

TEST(QuorumBatchedReads, StaleReplicaPayloadLosesTheVoteAndIsRefetched) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes v1 = make_payload(21, 0, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());
  const Bytes v2 = make_payload(22, 7, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v2)).ok());

  // Roll chunk 1's payload-bearing replica (candidate 0 in replica order)
  // back to its v1 copy — exactly what a replica that missed the second
  // mutation looks like under quorum writes.
  const std::string c1 = chunk_engine_key("q", 1);
  const auto replicas = store.replicas_of(c1);
  ASSERT_GE(replicas.size(), 2u);
  SimMicros svc = 0;
  ASSERT_TRUE(store.server(replicas[0])
                  .install_copy(c1, subview(as_view(v1), kChunk, kChunk), kChunk,
                                /*version=*/1, &svc)
                  .ok());

  auto r = client.read("q", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(v2)))
      << "stale candidate-0 payload must lose the per-sub version vote";
  EXPECT_GE(client.counters().quorum_probes, 1u);
  EXPECT_GE(client.counters().quorum_refetches, 1u);
}

TEST(QuorumBatchedReads, OlderVersionIdenticalPayloadAcceptedByDigest) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes v1 = make_payload(23, 0, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());  // no-op rewrite, version bump

  // Candidate 0 of chunk 1 missed the rewrite: older version, same bytes.
  const std::string c1 = chunk_engine_key("q", 1);
  const auto replicas = store.replicas_of(c1);
  SimMicros svc = 0;
  ASSERT_TRUE(store.server(replicas[0])
                  .install_copy(c1, subview(as_view(v1), kChunk, kChunk), kChunk,
                                /*version=*/1, &svc)
                  .ok());

  const std::uint64_t winners0 = client.counters().quorum_winners;
  auto r = client.read("q", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(v1)));
  // The span digests matched, so the older payload was accepted as-is:
  // no second payload transfer.
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
  EXPECT_GT(client.counters().quorum_winners, winners0);
}

TEST(QuorumBatchedReads, LoneReadRefetchesWhenThePayloadReplicaMissedAGrow) {
  // A truncate-grow raises the size and version but touches no extent, so a
  // replica that missed it still has a matching span digest. Its payload is
  // then shorter than the object (the reply is clipped at its own EOF): the
  // vote must refetch from the winner instead of accepting it by digest.
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  rpc::FaultInjector injector(/*seed=*/31);
  store.transport().set_fault_injector(&injector);

  const Bytes v1 = make_payload(31, 0, 1024);
  ASSERT_TRUE(client.write("g", 0, as_view(v1)).ok());
  const auto reps = store.replicas_of("g");
  ASSERT_EQ(reps.size(), 3u);
  SimMicros svc = 0;
  const auto pre = store.server(reps[1]).stat("g", &svc);
  ASSERT_TRUE(pre.ok());
  ASSERT_TRUE(client.truncate("g", 4096).ok());
  const auto grown = client.stat("g");
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ(grown.value().size, 4096u);

  // Open the primary's breaker: reads fail over while it is unreachable,
  // and it stays a suspect (demoted behind the other replicas) afterwards.
  rpc::FaultPlan dead;
  dead.error_probability = 1.0;
  injector.set_plan(store.server(reps[0]).node().id(), dead);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.read("g", 0, 4096).ok()) << i;
  ASSERT_GE(client.counters().breaker_opens, 1u);
  injector.clear_all();

  // reps[1], now the payload candidate, missed the grow.
  ASSERT_TRUE(store.server(reps[1])
                  .install_copy("g", as_view(v1), v1.size(), pre.value().version, &svc)
                  .ok());
  const std::uint64_t refetches0 = client.counters().quorum_refetches;
  BlobStat served;
  auto r = client.read("g", 0, 4096, &served);
  ASSERT_TRUE(r.ok());
  Bytes expect(4096, std::byte{0});
  std::copy(v1.begin(), v1.end(), expect.begin());
  ASSERT_EQ(r.value().size(), expect.size());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(expect)));
  EXPECT_EQ(served.size, grown.value().size);
  EXPECT_EQ(served.version, grown.value().version);
  EXPECT_EQ(client.counters().quorum_refetches - refetches0, 1u);
}

TEST(QuorumBatchedReads, HolesArbitrateAtR2) {
  // Sparse blob at R = 2: chunks 0-2 are absent on every replica (a hole is
  // "absent everywhere", not a stale divergence) and must stay zero.
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes tail = make_payload(24, 0, 4096);
  ASSERT_TRUE(client.write("sp", 3 * kChunk + 11, as_view(tail)).ok());
  auto r = client.read("sp", 0, 4 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3 * kChunk + 11 + 4096);
  Bytes expect(3 * kChunk + 11 + 4096, std::byte{0});
  std::copy(tail.begin(), tail.end(),
            expect.begin() + static_cast<std::ptrdiff_t>(3 * kChunk + 11));
  EXPECT_TRUE(equal(as_view(r.value()), as_view(expect)));
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
}

TEST(HedgedBatchedReads, HedgeComposesWithBatchedStriping) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.hedge.enabled = true;
  cfg.hedge.fixed_delay_us = 1;        // hedge on every group
  cfg.hedge.min_samples = 1u << 30;    // stay on the fixed delay
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes data = make_payload(25, 0, 6 * kChunk);
  ASSERT_TRUE(client.write("h", 0, as_view(data)).ok());
  auto r = client.read("h", 0, 6 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
  EXPECT_GE(client.counters().hedges, 1u);

  // Hedged AND quorum together: votes + hedges on the same envelopes.
  StoreConfig qcfg = cfg;
  qcfg.write_quorum = 2;
  sim::Cluster cluster2;
  BlobStore store2(cluster2, qcfg);
  sim::SimAgent agent2;
  BlobClient client2(store2, &agent2);
  ASSERT_TRUE(client2.write("h", 0, as_view(data)).ok());
  auto r2 = client2.read("h", 0, 6 * kChunk);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(equal(as_view(r2.value()), as_view(data)));
  EXPECT_GE(client2.counters().quorum_probes, 1u);
  EXPECT_EQ(client2.counters().quorum_refetches, 0u);
}

// --- read accounting across the read paths --------------------------------

TEST(ReadAccounting, AllReadPathsDecomposeIdentically) {
  // The same logical content and read script must yield byte-identical
  // results AND identical {bytes_read, read_hole_bytes} decompositions on
  // every read path: single-chunk (chunk_bytes = 0, the reference) and
  // batched striped (R = 1 and R = 2).
  struct Totals {
    std::uint64_t bytes_read = 0;
    std::uint64_t holes = 0;
    std::uint64_t returned = 0;
    std::vector<Bytes> reads;
  };
  auto run = [](StoreConfig cfg) {
    sim::Cluster cluster;
    BlobStore store(cluster, cfg);
    sim::SimAgent agent;
    BlobClient client(store, &agent);
    EXPECT_TRUE(
        client.write("x", 3 * kChunk + 11, as_view(make_payload(26, 0, 4096))).ok());
    EXPECT_TRUE(client.write("x", kChunk - 5, as_view(make_payload(27, 0, 10))).ok());
    EXPECT_TRUE(client.truncate("x", 5 * kChunk).ok());  // tail hole
    Totals t;
    for (const auto& [off, len] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, 6 * kChunk},           // whole blob, clipped at EOF
             {kChunk - 8, 20},          // extent straddling a chunk boundary
             {2 * kChunk, kChunk},      // pure hole chunk
             {4 * kChunk + 1, kChunk},  // tail hole, clipped
         }) {
      auto r = client.read("x", off, len);
      EXPECT_TRUE(r.ok());
      t.returned += r.ok() ? r.value().size() : 0;
      t.reads.push_back(r.ok() ? std::move(r.value()) : Bytes{});
    }
    t.bytes_read = client.counters().bytes_read;
    t.holes = client.counters().read_hole_bytes;
    return t;
  };

  StoreConfig quorum;
  quorum.write_quorum = 2;

  const Totals base = run(unstriped_cfg());
  // Decomposition identity: every returned byte is extent-backed or hole.
  EXPECT_EQ(base.bytes_read + base.holes, base.returned);
  for (const StoreConfig& cfg : {StoreConfig{}, quorum}) {
    const Totals t = run(cfg);
    EXPECT_EQ(t.bytes_read, base.bytes_read);
    EXPECT_EQ(t.holes, base.holes);
    EXPECT_EQ(t.returned, base.returned);
    ASSERT_EQ(t.reads.size(), base.reads.size());
    for (std::size_t i = 0; i < t.reads.size(); ++i) {
      EXPECT_TRUE(equal(as_view(t.reads[i]), as_view(base.reads[i])))
          << "read " << i;
    }
  }
}

// --- size()/stat() through the metadata cache (satellite) -----------------

TEST_F(MetaCacheTest, SizeAndStatAnswerFromTheCache) {
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(14, 0, 2 * kChunk))).ok());
  const SimMicros t0 = agent_a_.now();
  auto s = a_.size("k");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), 2 * kChunk);
  EXPECT_EQ(agent_a_.now(), t0);  // cache hit: zero charged rounds
  EXPECT_EQ(a_.counters().metacache_hits, 1u);

  // A fresh client pays one charged stat round, then hits.
  const SimMicros b0 = agent_b_.now();
  ASSERT_TRUE(b_.stat("k").ok());
  EXPECT_GT(agent_b_.now(), b0);
  const SimMicros b1 = agent_b_.now();
  auto s2 = b_.size("k");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value(), 2 * kChunk);
  EXPECT_EQ(agent_b_.now(), b1);
  EXPECT_EQ(b_.counters().metacache_misses, 1u);
  EXPECT_EQ(b_.counters().metacache_hits, 1u);

  // Local mutations keep the entry coherent: size() after truncate answers
  // the new size from the refreshed entry.
  ASSERT_TRUE(b_.truncate("k", 12345).ok());
  auto s3 = b_.size("k");
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s3.value(), 12345u);

  // Absent blobs are never cached: each stat pays its round again.
  EXPECT_EQ(b_.stat("ghost").code(), Errc::not_found);
  const std::uint64_t misses = b_.counters().metacache_misses;
  EXPECT_EQ(b_.stat("ghost").code(), Errc::not_found);
  EXPECT_EQ(b_.counters().metacache_misses, misses + 1);
}

// --- absent / at-EOF striped reads (satellite: full-len probe legs) -------

TEST(BatchProbeEconomy, AbsentStripedReadCostsOneStatRound) {
  sim::Cluster cluster;
  BlobStore store(cluster);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const SimMicros t0 = agent.now();
  EXPECT_EQ(client.stat("ghost-a").code(), Errc::not_found);
  const SimMicros stat_cost = agent.now() - t0;

  const SimMicros t1 = agent.now();
  EXPECT_EQ(client.read("ghost-b", 0, 8 * kChunk).code(), Errc::not_found);
  const SimMicros read_cost = agent.now() - t1;

  // The absent read is answered by its stat round alone — no batch envelope,
  // no full-length probe leg shipped over the wire.
  EXPECT_EQ(read_cost, stat_cost);
  EXPECT_EQ(client.counters().batch_envelopes, 0u);
}

TEST(BatchProbeEconomy, AtEofStripedReadShipsNoData) {
  sim::Cluster cluster;
  BlobStore store(cluster);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ASSERT_TRUE(client.write("k", 0, as_view(make_payload(13, 0, 2 * kChunk))).ok());

  const std::uint64_t envelopes_before = client.counters().batch_envelopes;
  auto r = client.read("k", 5 * kChunk, 3 * kChunk);  // far past EOF
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  // Verified by a stat round, not by a data batch.
  EXPECT_EQ(client.counters().batch_envelopes, envelopes_before);
  EXPECT_EQ(client.counters().bytes_read, 0u);
}

// --- striped I/O through the fault injector --------------------------------

/// Drives 4.5-chunk blobs through batch envelopes while one storage node is
/// first flaky (drops + transient errors), then unreachable (every request
/// errors, though the node is never marked down). Acked writes must read
/// back byte-exact; reads must fail over: the subs of an undelivered
/// envelope move to their next live replica and are resent, regrouped.
void run_faulted_striped(std::uint32_t write_quorum) {
  constexpr std::uint64_t kSmallChunk = 64 << 10;
  constexpr std::uint64_t kLen = 4 * kSmallChunk + kSmallChunk / 2;
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.chunk_bytes = kSmallChunk;
  cfg.write_quorum = write_quorum;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  rpc::FaultInjector injector(0x5eed + write_quorum);
  store.transport().set_fault_injector(&injector);

  // The victim is the primary of chunk 1 of the first blob, so at least one
  // read group sends its payload envelope there.
  const std::uint32_t victim = store.replicas_of(chunk_engine_key("f-00", 1))[0];
  const std::uint32_t victim_node = store.server(victim).node().id();

  std::map<std::string, Bytes> acked;
  int key_no = 0;
  auto write_blobs = [&](int n) {
    for (int i = 0; i < n; ++i, ++key_no) {
      const std::string key = strfmt("f-%02d", key_no);
      Bytes data = make_payload(40 + static_cast<std::uint64_t>(key_no), 0, kLen);
      if (client.write(key, 0, as_view(data)).ok()) acked[key] = std::move(data);
    }
  };
  auto expect_acked_read_back = [&](const char* phase) {
    for (const auto& [key, data] : acked) {
      auto r = client.read(key, 0, kLen);
      ASSERT_TRUE(r.ok()) << phase << ": read of " << key << " failed: "
                          << r.error().message();
      EXPECT_TRUE(equal(as_view(r.value()), as_view(data)))
          << phase << ": " << key << " is not byte-exact";
    }
  };

  rpc::FaultPlan flaky;
  flaky.drop_probability = 0.3;
  flaky.error_probability = 0.3;
  injector.set_plan(victim_node, flaky);
  write_blobs(12);
  EXPECT_FALSE(acked.empty());
  expect_acked_read_back("flaky");

  rpc::FaultPlan dead;
  dead.error_probability = 1.0;
  injector.set_plan(victim_node, dead);
  const std::uint64_t retries0 = client.counters().batch_retries;
  const std::uint64_t failovers0 = client.counters().failovers;
  expect_acked_read_back("victim unreachable");
  // Every envelope to the victim also failed its whole-envelope re-send, so
  // the reads above completed only because their subs moved off the victim
  // and were resent: at R = 1 to the next replica, at R = 2 into a vote
  // among the remaining live replicas.
  EXPECT_GT(client.counters().batch_retries, retries0);
  if (write_quorum == 0) EXPECT_GT(client.counters().failovers, failovers0);
  write_blobs(6);
  expect_acked_read_back("victim unreachable, after more writes");

  EXPECT_GT(injector.counters().dropped, 0u);
  EXPECT_GT(injector.counters().errored, 0u);

  injector.clear_all();
  expect_acked_read_back("faults cleared");
  store.transport().set_fault_injector(nullptr);
}

TEST(BatchFaults, StripedIoSurvivesFlakyThenUnreachableNodeW0) {
  run_faulted_striped(0);  // classic: every live replica acks, R = 1
}

TEST(BatchFaults, StripedIoSurvivesFlakyThenUnreachableNodeW2) {
  run_faulted_striped(2);  // W = 2 over replication 3, R = 2
}

// --- golden single-key mutation legs ---------------------------------------

/// Runs every single-key mutation shape, plus the striped base leg, on a
/// fault-free R=3 store (64 KiB chunks, write_creates off) and renders one
/// line per op: status, the agent's simulated-time delta, the batch
/// envelopes shipped, then each replica's version/size of the key ("-" =
/// absent), with chunk 1's replicas after a second "|" for striped ops.
std::vector<std::string> golden_mutation_trace(std::uint32_t write_quorum) {
  StoreConfig cfg;
  cfg.write_quorum = write_quorum;
  cfg.write_creates = false;
  cfg.chunk_bytes = 64 * 1024;
  sim::Cluster cluster;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const auto replica_states = [&store](const std::string& ekey) {
    std::string s;
    for (std::uint32_t n : store.replicas_of(ekey)) {
      const auto v = store.server(n).peek_version(ekey);
      const auto size = store.server(n).peek_size(ekey);
      s += v.ok() ? strfmt(" %llu/%llu", static_cast<unsigned long long>(v.value()),
                           static_cast<unsigned long long>(size.value()))
                  : std::string{" -"};
    }
    return s;
  };
  std::vector<std::string> lines;
  const auto step = [&](const char* what, const std::string& key, bool striped,
                        const auto& op) {
    const SimMicros t0 = agent.now();
    const std::uint64_t env0 = client.counters().batch_envelopes;
    const Status st = op();
    std::string line = strfmt(
        "%s %s dt=%lld env=%llu |", what, std::string{to_string(st.code())}.c_str(),
        static_cast<long long>(agent.now() - t0),
        static_cast<unsigned long long>(client.counters().batch_envelopes - env0));
    line += replica_states(key);
    if (striped) line += " |" + replica_states(chunk_engine_key(key, 1));
    lines.push_back(std::move(line));
  };
  const auto status_of = [](const Result<std::uint64_t>& r) {
    return r.ok() ? Status::success() : Status{r.error()};
  };
  const Bytes small = make_payload(61, 0, 4096);
  const Bytes wide = make_payload(62, 0, 96 * 1024);

  step("create", "g", false, [&] { return client.create("g"); });
  step("create-existing", "g", false, [&] { return client.create("g"); });
  step("write", "g", false, [&] { return status_of(client.write("g", 0, as_view(small))); });
  step("write-absent", "absent", false,
       [&] { return status_of(client.write("absent", 0, as_view(small))); });
  step("truncate", "g", false, [&] { return client.truncate("g", 1000); });
  step("truncate-absent", "absent", false, [&] { return client.truncate("absent", 10); });
  step("remove", "g", false, [&] { return client.remove("g"); });
  step("remove-absent", "g", false, [&] { return client.remove("g"); });
  step("create", "s", true, [&] { return client.create("s"); });
  step("striped-write", "s", true,
       [&] { return status_of(client.write("s", 0, as_view(wide))); });
  step("striped-truncate", "s", true, [&] { return client.truncate("s", 80 * 1024); });
  step("striped-remove", "s", true, [&] { return client.remove("s"); });
  return lines;
}

// Pins every mutation leg shape to literal statuses, simulated costs,
// envelope counts and replica states: a single-key op is one plain request
// (no batch envelope), a striped op is its base leg plus one chunk wave.
// W=2 takes the quorum path (freshest-replica pre-size, quorum ack rule)
// and agrees with W=0 when nothing fails.
TEST(MutationGolden, SingleKeyLegsMatchParent) {
  const std::vector<std::string> expected = {
      "create ok dt=245 env=0 | 1/0 1/0 1/0",
      "create-existing already_exists dt=105 env=0 | 1/0 1/0 1/0",
      "write ok dt=375 env=0 | 2/4096 2/4096 2/4096",
      "write-absent not_found dt=142 env=0 | - - -",
      "truncate ok dt=245 env=0 | 3/1000 3/1000 3/1000",
      "truncate-absent not_found dt=105 env=0 | - - -",
      "remove ok dt=245 env=0 | - - -",
      "remove-absent not_found dt=105 env=0 | - - -",
      "create ok dt=245 env=0 | 1/0 1/0 1/0 | - - -",
      "striped-write ok dt=3198 env=1 | 3/98304 3/98304 3/98304 | 1/32768 1/32768 1/32768",
      "striped-truncate ok dt=292 env=1 | 4/81920 4/81920 4/81920 | 2/16384 2/16384 2/16384",
      "striped-remove ok dt=292 env=1 | - - - | - - -",
  };
  for (const std::uint32_t w : {0u, 2u}) {
    EXPECT_EQ(golden_mutation_trace(w), expected) << "write_quorum=" << w;
  }
}

// --- golden read legs -------------------------------------------------------

/// Runs every read shape on a fault-free R=3 store (64 KiB chunks) and
/// renders one line per op: status, the agent's simulated-time delta, the
/// batch envelopes shipped, the failovers taken and the bytes (or size)
/// returned. A second client writes the blobs, so the reading client's
/// metadata cache starts cold; both share one agent. An empty fault
/// injector (it delivers everything) runs a striped read's groups in
/// order: fanned out on the client pool, groups that share a node book its
/// queue in wall-clock order, and at W=2 the votes do share nodes.
std::vector<std::string> golden_read_trace(std::uint32_t write_quorum) {
  constexpr std::uint64_t kSmallChunk = 64 * 1024;
  StoreConfig cfg;
  cfg.write_quorum = write_quorum;
  cfg.chunk_bytes = kSmallChunk;
  sim::Cluster cluster;
  BlobStore store(cluster, cfg);
  rpc::FaultInjector in_order(1);
  store.transport().set_fault_injector(&in_order);
  sim::SimAgent agent;
  BlobClient writer(store, &agent);
  BlobClient client(store, &agent);

  // A striped blob whose chunk 0 has another acting primary than chunks 1
  // and 2, so a read starting past chunk 0 sends its stat sub alone.
  std::string striped;
  for (int i = 0; striped.empty(); ++i) {
    const std::string key = strfmt("s%d", i);
    const std::uint32_t p0 = store.replicas_of(key)[0];
    if (p0 != store.replicas_of(chunk_engine_key(key, 1))[0] &&
        p0 != store.replicas_of(chunk_engine_key(key, 2))[0]) {
      striped = key;
    }
  }
  EXPECT_TRUE(writer.write("g", 0, as_view(make_payload(63, 0, 4096))).ok());
  EXPECT_TRUE(
      writer.write(striped, 0, as_view(make_payload(64, 0, 3 * kSmallChunk - 100))).ok());

  std::vector<std::string> lines;
  const auto step = [&](const char* what, const auto& op) {
    const SimMicros t0 = agent.now();
    const std::uint64_t env0 = client.counters().batch_envelopes;
    const std::uint64_t fo0 = client.counters().failovers;
    const auto [code, n] = op();
    lines.push_back(strfmt(
        "%s %s dt=%lld env=%llu fo=%llu n=%llu", what,
        std::string{to_string(code)}.c_str(), static_cast<long long>(agent.now() - t0),
        static_cast<unsigned long long>(client.counters().batch_envelopes - env0),
        static_cast<unsigned long long>(client.counters().failovers - fo0),
        static_cast<unsigned long long>(n)));
  };
  const auto read = [&](const std::string& key, std::uint64_t off, std::uint64_t len) {
    return [&client, key, off, len] {
      auto r = client.read(key, off, len);
      return std::pair{r.code(), r.ok() ? r.value().size() : std::uint64_t{0}};
    };
  };
  const auto stat = [&](const std::string& key) {
    return [&client, key] {
      auto s = client.stat(key);
      return std::pair{s.code(), s.ok() ? s.value().size : std::uint64_t{0}};
    };
  };

  step("read", read("g", 0, 4096));
  step("read-absent", read("ghost", 0, 4096));
  step("read-past-eof", read("g", 8192, 100));
  step("stat", stat("g"));
  step("stat-absent", stat("ghost"));
  step("size-cached", [&] {
    auto s = client.size("g");
    return std::pair{s.code(), s.ok() ? s.value() : std::uint64_t{0}};
  });
  step("striped-cold", read(striped, 0, 3 * kSmallChunk));
  step("striped-warm", read(striped, 0, 3 * kSmallChunk));
  step("striped-past-chunk0", read(striped, kSmallChunk + 100, kSmallChunk));
  return lines;
}

// Pins every read shape to literal statuses, simulated costs, envelope and
// failover counts: a lone read or stat is one plain request (no batch
// envelope), a striped read ships one envelope per candidate group plus,
// on a cache miss, one stat round first.
TEST(ReadGolden, ReadLegsMatchParent) {
  const std::vector<std::string> expected_w0 = {
      "read ok dt=143 env=0 fo=0 n=4096",
      "read-absent not_found dt=105 env=0 fo=0 n=0",
      "read-past-eof ok dt=106 env=0 fo=0 n=0",
      "stat ok dt=106 env=0 fo=0 n=4096",
      "stat-absent not_found dt=106 env=0 fo=0 n=0",
      "size-cached ok dt=0 env=0 fo=0 n=4096",
      "striped-cold ok dt=824 env=3 fo=0 n=196508",
      "striped-warm ok dt=718 env=3 fo=0 n=196508",
      "striped-past-chunk0 ok dt=716 env=3 fo=0 n=65536",
  };
  // W=2 reads vote in the same round as the payload (R=2): a lone read
  // costs what it costs at W=0, with no version-probe round before it.
  const std::vector<std::string> expected_w2 = {
      "read ok dt=143 env=0 fo=0 n=4096",
      "read-absent not_found dt=105 env=0 fo=0 n=0",
      "read-past-eof ok dt=106 env=0 fo=0 n=0",
      "stat ok dt=106 env=0 fo=0 n=4096",
      "stat-absent not_found dt=106 env=0 fo=0 n=0",
      "size-cached ok dt=0 env=0 fo=0 n=4096",
      "striped-cold ok dt=824 env=6 fo=0 n=196508",
      "striped-warm ok dt=718 env=6 fo=0 n=196508",
      "striped-past-chunk0 ok dt=716 env=6 fo=0 n=65536",
  };
  EXPECT_EQ(golden_read_trace(0), expected_w0);
  EXPECT_EQ(golden_read_trace(2), expected_w2);
}

}  // namespace
}  // namespace bsc::blob
