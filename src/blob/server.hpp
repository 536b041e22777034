// A blob storage server: one per simulated storage node. Wraps the
// log-structured engine with thread safety and computes the simulated service
// time of every operation from the node's disk model plus fixed CPU costs.
//
// Locking model (acquisition order: client ascending server id → mu_ →
// stripe → engine shard → journal):
//
//  * mu_ (shared_mutex) — the "structure" lock. Exclusive for multi-key
//    transaction commits and maintenance (compaction, repair, rebalance);
//    shared for every per-key operation. A committing transaction therefore
//    drains and excludes all per-key traffic, and per-key traffic never
//    observes a half-applied transaction.
//  * stripes_[kLockStripes] — per-key mutation order. A mutating client
//    holds the key's stripe on every replica (all acquired in ascending
//    node order), so racing writers to one key apply in the same order on
//    every replica while writers to distinct keys proceed in parallel.
//  * engine shards — the StorageEngine locks the shard of each key it
//    touches, inside every engine call; the server takes no engine lock.
//    Stripe s and shard s cover the same keys, so a mutation holding its
//    stripe only ever waits on readers of its own shard. Every server op is
//    one engine call, and engine outcomes carry the size and version seen
//    with the data, so no sequence needs a lock held across engine calls.
//  * the journal's mutex — a leaf taken by the engine to append WAL records.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "blob/storage_engine.hpp"
#include "blob/types.hpp"
#include "common/result.hpp"
#include "persist/wal.hpp"
#include "sim/node.hpp"

namespace bsc::blob {

/// CPU/journal cost constants of the server's request path.
struct ServerCosts {
  SimMicros cpu_op_us = 3;          ///< fixed request-handling CPU
  double cpu_byte_us = 0.0001;      ///< per-byte copy/checksum cost (~10 GB/s)
  SimMicros meta_journal_us = 40;   ///< sequential journal append for metadata ops
  double scan_per_obj_us = 0.2;     ///< index walk per object during scan
};

class BlobServer {
 public:
  /// Number of per-key lock stripes: one per engine shard.
  static constexpr std::size_t kLockStripes = StorageEngine::kShards;

  BlobServer(sim::SimNode& node, EngineConfig ecfg = {}, ServerCosts costs = {})
      : node_(&node), engine_(ecfg), ecfg_(ecfg), costs_(costs) {}

  [[nodiscard]] sim::SimNode& node() noexcept { return *node_; }

  // --- durability: write-ahead log, checkpoints, crash / restart ---

  /// Back this server's engine with a WAL under `dir` (created if needed).
  /// If the engine already holds objects, an initial checkpoint is written
  /// so pre-existing state is durable too.
  Status enable_persistence(const std::string& dir, persist::JournalConfig jcfg = {});
  [[nodiscard]] bool persistent() const noexcept { return !persist_dir_.empty(); }

  /// Simulate process death: the engine and the journal's un-fsynced
  /// group-commit buffer vanish; only what reached the WAL/checkpoints
  /// survives. The server keeps serving an EMPTY engine afterwards — mark
  /// it down at the store level before crashing it.
  void crash();

  /// Rebuild the engine from the persistence directory (newest valid
  /// checkpoint + WAL replay) and reattach the journal.
  Status restart(persist::RecoveryReport* report = nullptr);

  /// Snapshot the engine into a checkpoint file; with `prune_wal`, reset
  /// the log afterwards. Charges a sequential sweep of live bytes.
  Result<std::uint64_t> checkpoint_now(SimMicros* service_us, bool prune_wal = false);

  /// Flush + fsync any pending group-commit buffer.
  Status sync_journal();

  // Each operation applies to the in-memory engine and reports the simulated
  // service time in *service_us.

  Status remove(const std::string& key, SimMicros* service_us);
  Result<ReadOutcome> read(const std::string& key, std::uint64_t off, std::uint64_t len,
                           SimMicros* service_us);

  // --- batched scatter-gather reads ---------------------------------------

  /// One sub-operation of a read request. Data subs gather straight into
  /// the caller's (pre-zeroed) buffer slice `dst`, or, with `out` set, into
  /// a reply buffer the server sizes to the bytes it returns (clipped at
  /// EOF); stat subs (`stat_only`, empty dst) report size and version.
  struct ReadSubOp {
    const std::string* key;
    std::uint64_t off = 0;
    MutableByteView dst;
    Bytes* out = nullptr;  ///< reply buffer of a `len`-byte read; dst unused
    bool stat_only = false;
    /// Quorum-vote probe: answer (version, digest) from the extent index —
    /// no payload bytes are read or shipped, so a vote costs what a stat
    /// does. `dst` is empty; `len` carries the span the digest must cover.
    bool digest_only = false;
    /// Payload sub of a quorum round: also ship the span digest so the
    /// client can accept a lower-versioned payload whose bytes match the
    /// winning replica's (version bump without content change).
    bool want_digest = false;
    /// With digest_only: charge the full payload read cost anyway (cache /
    /// disk / per-byte CPU). The hedged-read stand-in uses this — it models
    /// a real payload serve on the alternate replica while keeping the
    /// caller's buffer single-writer.
    bool probe_payload = false;
    std::uint64_t len = 0;  ///< span length for digest_only and `out` subs
  };

  struct ReadSubResult {
    Errc err = Errc::ok;          ///< ok / not_found
    std::uint64_t data_len = 0;   ///< bytes within the object (wire payload)
    std::uint64_t covered = 0;    ///< extent-backed bytes among data_len
    std::uint64_t size = 0;       ///< object size (0 on not_found)
    Version version = 0;          ///< object version (read + stat subs)
    std::uint64_t digest = 0;     ///< span checksum when requested (0 = none)
  };

  /// Execute a batch of read/stat sub-ops under ONE structure-lock
  /// acquisition. Per-sub costs match read()/stat() exactly; the fixed
  /// request-handling CPU (cpu_op_us) is charged once for the envelope.
  /// Writes the total service time to *service_us; `results` must hold
  /// `count` entries. When `per_op_us` is non-null it receives `count`
  /// cumulative service marks (sub i complete at serve-start + per_op_us[i])
  /// so the client can stream per-sub completions out of one queueing trip,
  /// mirroring apply_ops.
  void read_batch(const ReadSubOp* subs, std::size_t count, ReadSubResult* results,
                  SimMicros* service_us, SimMicros* per_op_us = nullptr);
  /// One sub-op as a plain request (a lone read, stat or vote): cpu_op_us
  /// plus the sub's own cost, no ride-along, published on server.read
  /// (payload subs) or server.stat (the rest). read() and stat() are this.
  ReadSubResult read_one(const ReadSubOp& sub, SimMicros* service_us);
  Result<std::uint64_t> size(const std::string& key, SimMicros* service_us);
  Result<BlobStat> stat(const std::string& key, SimMicros* service_us);
  std::vector<BlobStat> scan(const std::string& prefix, SimMicros* service_us);

  /// One mutation op as the client's mutation legs and transaction commit
  /// ship it: `key` points at the sender's key (it must outlive the apply),
  /// and a write's payload is the one immutable buffer the sender built.
  /// Every replica and dual-write target stores a reference to that buffer,
  /// so an R-way write copies its bytes once, not R times.
  struct OpRef {
    enum class Kind { write, truncate, create, remove, grow } kind;
    const std::string* key = nullptr;
    std::uint64_t offset = 0;
    SharedBytes data{};           ///< write payload
    std::uint64_t new_size = 0;   ///< truncate target / grow minimum size
    /// content_checksum(data), computed once by the sender and stored as-is
    /// by every replica (0 = none: the engine computes it).
    std::uint64_t checksum = 0;
  };

  /// Apply a batch of ops; every client mutation and transaction
  /// commit lands here. The caller holds either lock_exclusive() or a
  /// (Multi)KeyLock covering every key in `ops`; precondition checks were
  /// already done. Charges cpu_op_us ONCE for the batch plus each op's own
  /// data/metadata costs — the server-side half of the batching win: k ops
  /// in one envelope parse once, not k times.
  /// When `per_op_us` is non-null it must hold `count` entries and receives
  /// the CUMULATIVE service time after each op, so a caller modelling
  /// streamed execution can mark the instant each sub-op's work finished
  /// (sub i done at serve_start + per_op_us[i]) instead of serializing
  /// everything behind the batch's total.
  Status apply_ops(const OpRef* ops, std::size_t count, SimMicros* service_us,
                   SimMicros* per_op_us = nullptr);

  /// Expected-version check for optimistic transactions (0 = "must not
  /// exist"). Caller holds lock_exclusive() or a KeyLock on `key`.
  [[nodiscard]] bool version_matches(const std::string& key, Version expected);

  /// Uncharged engine-size peek for client-side layout/precondition
  /// decisions; caller holds lock_exclusive() or a KeyLock on `key` when a
  /// stable answer matters.
  [[nodiscard]] Result<std::uint64_t> peek_size(const std::string& key);

  /// Uncharged engine-version peek (same locking contract as peek_size).
  /// Quorum reads arbitrate replica freshness with this.
  [[nodiscard]] Result<Version> peek_version(const std::string& key);

  /// Overwrite the key's version (journaled). Caller holds lock_exclusive()
  /// or a KeyLock on `key`. The replication layer uses this to keep
  /// versions monotonic across remove/recreate cycles and identical on
  /// every replica that applied the same ops — the invariant quorum reads
  /// arbitrate on.
  Status force_version(const std::string& key, Version v);

  /// Install an exact copy of an object — contents, logical size, AND
  /// version — replacing whatever is present. Repair traffic (resync, hint
  /// drain, scrub, rebalance) uses this so a repaired replica is
  /// indistinguishable from one that applied the original op stream: equal
  /// versions again imply equal contents across the replica set.
  Status install_copy(const std::string& key, ByteView data, std::uint64_t logical_size,
                      Version version, SimMicros* service_us);

  /// install_copy under the CALLER's lock (lock_exclusive() or a KeyLock on
  /// `key`). The rebalancer holds the key's stripes on source and target
  /// servers across a copy + plan-state flip; taking a second KeyLock on the
  /// same non-recursive stripe would self-deadlock.
  Status install_copy_locked(const std::string& key, ByteView data,
                             std::uint64_t logical_size, Version version,
                             SimMicros* service_us);

  /// read() under the caller's lock (same contract as install_copy_locked):
  /// the structure lock is NOT re-acquired, so it is safe while already
  /// holding a KeyLock on this server.
  [[nodiscard]] Result<ReadOutcome> read_locked(const std::string& key, std::uint64_t off,
                                                std::uint64_t len, SimMicros* service_us);

  // --- ring-epoch stamp -----------------------------------------------------
  //
  // Servers answer requests stamped with the membership epoch they were last
  // configured at. A client whose placement was computed at an older epoch
  // sees a newer stamp on the reply, drops its cached placement, refreshes
  // the ring, and retries — the in-process analogue of a stale-epoch
  // rejection in a real RPC layer.
  [[nodiscard]] std::uint64_t ring_epoch() const noexcept {
    return ring_epoch_.load(std::memory_order_acquire);
  }
  /// Monotonic: concurrent publishes from overlapping migration windows may
  /// arrive out of order, and a regressing stamp would make fresh clients
  /// "refresh" onto a stale epoch.
  void set_ring_epoch(std::uint64_t e) noexcept {
    std::uint64_t cur = ring_epoch_.load(std::memory_order_relaxed);
    while (cur < e && !ring_epoch_.compare_exchange_weak(
                          cur, e, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

  // --- hinted handoff -------------------------------------------------------
  //
  // When a quorum write cannot reach a replica, the coordinator records a
  // {missed node, key} hint on one of the replicas that DID ack. When the
  // missed node comes back, the store drains its hints by copying the
  // current object (install_copy) before running the digest-based resync.
  // Hints are volatile (a crash loses them) — resync remains the backstop.

  /// Record that `target` missed a mutation of `key`. Returns false when an
  /// identical hint was already pending (deduplicated).
  bool add_hint(std::uint32_t target, const BlobKey& key);

  /// Remove and return all hinted keys destined for `target`.
  [[nodiscard]] std::vector<BlobKey> take_hints_for(std::uint32_t target);

  /// Outstanding hints across all targets (observability / tests).
  [[nodiscard]] std::uint64_t hint_count() const;

  /// Exclusive access for multi-server commit protocols. Locks are acquired
  /// by the client in ascending node-id order, which rules out deadlock.
  [[nodiscard]] std::unique_lock<std::shared_mutex> lock_exclusive() {
    return std::unique_lock(mu_);
  }

  /// Holds the structure lock (shared) plus the key's mutation stripe.
  struct KeyLock {
    std::shared_lock<std::shared_mutex> structure;
    std::unique_lock<std::mutex> stripe;
  };

  /// Per-key mutation lock: shared structure access plus exclusive ownership
  /// of the key's stripe. Clients acquire one per replica, ascending node
  /// order — the same global order as lock_exclusive(), so the two paths
  /// cannot deadlock against each other.
  [[nodiscard]] KeyLock lock_key(std::string_view key);

  /// Holds the structure lock (shared) plus every mutation stripe a batch of
  /// keys maps to — one acquisition round for the whole batch.
  struct MultiKeyLock {
    std::shared_lock<std::shared_mutex> structure;
    std::vector<std::unique_lock<std::mutex>> stripes;  ///< ascending stripe index
  };

  /// Batched per-key mutation lock: shared structure access plus the deduped
  /// set of stripes covering `keys`, acquired in ascending stripe order. A
  /// batched client acquires one MultiKeyLock per replica in ascending node
  /// order — the same node-major/stripe-minor global order as repeated
  /// lock_key() calls, so batched and per-leg mutators cannot deadlock.
  [[nodiscard]] MultiKeyLock lock_keys(const std::vector<std::string_view>& keys);

  [[nodiscard]] static std::size_t stripe_of(std::string_view key) noexcept;

  /// Lifetime acquisition count per stripe (observability: skew here means
  /// hot keys are convoying on one stripe).
  [[nodiscard]] std::array<std::uint64_t, kLockStripes> stripe_acquisitions() const;

  // --- maintenance / introspection (used by tests and ablation benches) ---
  [[nodiscard]] std::uint64_t object_count();
  [[nodiscard]] std::uint64_t live_bytes();
  [[nodiscard]] std::uint64_t dead_bytes();
  std::uint64_t compact(SimMicros* service_us);
  [[nodiscard]] Status verify_integrity();
  [[nodiscard]] Status verify_key(const std::string& key);
  bool corrupt_for_testing(const std::string& key);

 private:
  [[nodiscard]] SimMicros svc_metadata() const noexcept {
    return costs_.cpu_op_us + costs_.meta_journal_us;
  }
  [[nodiscard]] SimMicros svc_bytes_cpu(std::uint64_t bytes) const noexcept {
    return static_cast<SimMicros>(static_cast<double>(bytes) * costs_.cpu_byte_us);
  }
  /// Cost of serving `data_len` payload bytes of a `obj_size`-byte object
  /// beyond the fixed request CPU: per-byte CPU, then 1µs on a page-cache
  /// hit (or pure hole), else a seek plus a half-rotation settle per further
  /// extent. Touches the page cache and publishes server.read.bytes.
  SimMicros svc_read(const std::string& key, std::uint64_t obj_size, std::uint64_t data_len,
                     std::uint32_t extents_touched);
  /// Serve one read sub-op under the held structure lock; returns its own
  /// service time (fixed request CPU and ride-along charges excluded).
  SimMicros serve_read_sub(const ReadSubOp& sub, ReadSubResult& res);
  /// read_one() under the caller's lock: the one place a plain read or stat
  /// is charged and published (read(), read_locked() and stat() are this).
  ReadSubResult read_one_locked(const ReadSubOp& sub, SimMicros* service_us);

  struct Stripe {
    std::mutex mu;
    std::atomic<std::uint64_t> acquisitions{0};
  };

  sim::SimNode* node_;
  std::shared_mutex mu_;
  std::array<Stripe, kLockStripes> stripes_;
  StorageEngine engine_;
  EngineConfig ecfg_;
  ServerCosts costs_;
  mutable std::mutex hints_mu_;  ///< leaf lock; never held across other locks
  std::map<std::uint32_t, std::vector<BlobKey>> hints_;
  std::string persist_dir_;                   ///< empty = volatile server
  persist::JournalConfig jcfg_;
  std::unique_ptr<persist::Journal> journal_; ///< engine_ holds a raw sink ptr
  std::atomic<std::uint64_t> ring_epoch_{0};  ///< membership epoch stamp
};

}  // namespace bsc::blob
