// BlobClient — the application-facing API of the blob store, exactly the
// primitive set of the paper's §III:
//
//   Blob Access:         read(), size()
//   Blob Manipulation:   write(), truncate()
//   Blob Administration: create(), remove()
//   Namespace Access:    scan()
//
// plus Týr-style multi-blob transactions (begin_transaction / commit).
//
// One client per logical execution thread: the client charges its SimAgent
// for every call (request transfer, queueing + service at the replica
// servers, response transfer). Mutations are applied to the full replica
// set with primary-forwarding timing; reads are served by the primary.
//
// Concurrency: mutations hold per-key striped locks (BlobServer::lock_key)
// on every replica — acquired in ascending node order, the same global order
// the transaction commit path uses for its exclusive locks — so writers
// racing on one key serialize identically on every replica while writers to
// distinct keys proceed in parallel.
//
// Striping: I/O past StoreConfig::chunk_bytes is split into chunks, each
// placed independently on the ring (chunk 0 under the application key
// itself, carrying the full logical size). Blobs at or below one chunk never
// pay for striping: a single-chunk read or stat is one plain request through
// the one read leg (read_group_leg), and a single-chunk mutation is one
// plain request through the one replicated-mutation leg
// (mutation_group_leg). A striped op runs the same legs in batch form:
// mutations run the chunk-0 base leg as a plain request, then ship chunks
// c >= 1 as one batch envelope per acting primary; reads ship one envelope
// per candidate replica set, with a piggybacked stat sub verifying the
// client metadata cache's layout. Envelopes fork from the same simulated
// instant and the call completes at the slowest one (scatter-gather).
// chunk_bytes = 0 turns striping off: every op is a single-key leg.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blob/store.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::blob {

/// Per-client counters. Fields are obs::LocalCounter — always-on relaxed
/// atomics that read as plain integers — so clients shared across threads
/// (or observed from a monitoring thread mid-run) never tear a count, and
/// the counts keep advancing even when the global metrics switch is off:
/// this is functional accounting (retry/hint/quorum bookkeeping read by
/// tests, benches, and repair logic), not an observability series. The
/// struct is address-stable and non-copyable, like the client owning it.
struct ClientCounters {
  obs::LocalCounter creates;
  obs::LocalCounter removes;
  obs::LocalCounter reads;
  obs::LocalCounter writes;
  obs::LocalCounter truncates;
  obs::LocalCounter sizes;
  obs::LocalCounter scans;
  obs::LocalCounter bytes_read;
  obs::LocalCounter bytes_written;
  // Fault-tolerance machinery (see DESIGN.md "Fault model").
  obs::LocalCounter retries;                ///< re-sent attempts after timeout/error
  obs::LocalCounter hedges;                 ///< speculative second read legs fired
  obs::LocalCounter failovers;              ///< read subs moved to another replica
  obs::LocalCounter quorum_degraded_writes; ///< acked mutations that missed >=1 replica
  obs::LocalCounter hints_written;          ///< hinted-handoff entries recorded
  // Batched scatter-gather + metadata cache (see DESIGN.md "Batched striping").
  // bytes_read counts bytes backed by stored extents only; zero-filled bytes
  // a read returns for unwritten holes / absent chunks land here instead.
  obs::LocalCounter read_hole_bytes;        ///< zero-filled bytes returned by reads
  obs::LocalCounter batch_envelopes;        ///< multi-op batch requests sent
  obs::LocalCounter coalesced_ops;          ///< vectored sub-ops covering >=2 chunks
  obs::LocalCounter metacache_hits;
  obs::LocalCounter metacache_misses;
  obs::LocalCounter metacache_invalidations;
  // Quorum-aware batched reads (see DESIGN.md "Per-sub quorum voting").
  obs::LocalCounter quorum_probes;          ///< digest-only votes sent
  obs::LocalCounter quorum_winners;         ///< read sub-ops arbitrated by version vote
  obs::LocalCounter quorum_digest_savings_bytes; ///< payload bytes digest replies avoided
  obs::LocalCounter quorum_refetches;       ///< sub-ops re-fetched from a fresher replica
  // Elastic membership (see DESIGN.md "Elastic membership & rebalancing").
  obs::LocalCounter epoch_refreshes;     ///< placement-cache flush + refetch events
  obs::LocalCounter stale_epoch_retries; ///< legs re-run after a stale-epoch stamp
  obs::LocalCounter dual_writes;         ///< mutations mirrored to pending new owners
  obs::LocalCounter chain_dual_writes;   ///< ...with >= 2 overlapping windows pending
  obs::LocalCounter batch_retries;       ///< whole-envelope re-sends before degrading
  // Overload resilience (see DESIGN.md "Overload model").
  obs::LocalCounter sheds_observed;      ///< attempts bounced Errc::overloaded
  obs::LocalCounter deadline_exceeded;   ///< ops stopped with the budget spent
  obs::LocalCounter retries_suppressed;  ///< retries the drained token bucket refused
  obs::LocalCounter breaker_opens;       ///< closed/half_open -> open transitions
  obs::LocalCounter breaker_closes;      ///< half_open -> closed transitions
  obs::LocalCounter breaker_probes;      ///< half-open single probes admitted
  obs::LocalCounter breaker_fast_hints;  ///< forwards converted straight to hints
  obs::LocalCounter breaker_demotions;   ///< read candidates reordered past a suspect
};

class BlobTransaction;

class BlobClient {
 public:
  BlobClient(BlobStore& store, sim::SimAgent* agent) : store_(&store), agent_(agent) {}

  // --- Blob Administration ---
  [[nodiscard]] Status create(std::string_view key);
  [[nodiscard]] Status remove(std::string_view key);

  // --- Blob Access ---
  /// Bytes [offset, offset+len) of the blob, clipped at EOF (holes read as
  /// zero). With `served`, also the chunk-0 (size, version) the bytes were
  /// served at, from the same round: a single-chunk read pairs its bytes
  /// with its version atomically.
  [[nodiscard]] Result<Bytes> read(std::string_view key, std::uint64_t offset,
                                   std::uint64_t len, BlobStat* served = nullptr);
  [[nodiscard]] Result<std::uint64_t> size(std::string_view key);
  [[nodiscard]] Result<BlobStat> stat(std::string_view key);
  [[nodiscard]] bool exists(std::string_view key);

  // --- Blob Manipulation ---
  [[nodiscard]] Result<std::uint64_t> write(std::string_view key, std::uint64_t offset,
                                            ByteView data);
  [[nodiscard]] Status truncate(std::string_view key, std::uint64_t new_size);

  // --- Namespace Access ---
  /// Enumerate all blobs (deduplicated across replicas, sorted by key;
  /// internal chunk keys are hidden). `prefix` filters the result but the
  /// walk still visits every object on every server — the honest cost of a
  /// flat namespace.
  [[nodiscard]] Result<std::vector<BlobStat>> scan(std::string_view prefix = {});

  // --- Transactions (Týr) ---
  [[nodiscard]] BlobTransaction begin_transaction();

  [[nodiscard]] const ClientCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] sim::SimAgent* agent() noexcept { return agent_; }
  [[nodiscard]] BlobStore& store() noexcept { return *store_; }

 private:
  friend class BlobTransaction;

  /// Fate of one fault-injected request attempt, planned from the leg's own
  /// fork time (scatter-gather legs do not run at the agent's clock, so the
  /// client charges costs itself instead of going through Transport::call).
  struct AttemptPlan {
    bool delivered = false;
    SimMicros extra_latency_us = 0;  ///< per network leg, when delivered
    SimMicros failed_at = 0;         ///< failure-detection time, when not
    Errc err = Errc::ok;
  };
  /// `batch_subs` > 0 marks the attempt as a multi-op batch envelope: one
  /// fault verdict for the whole envelope (drawn via Transport::admit_batch
  /// so batch traffic is accounted separately). `attempt_deadline_us`
  /// overrides the policy per-attempt deadline for the drop wait (the
  /// remaining-op-budget clamp); 0 = use the policy value.
  AttemptPlan plan_attempt(BlobServer& srv, SimMicros attempt_start,
                           std::uint64_t request_bytes, std::uint32_t batch_subs = 0,
                           SimMicros attempt_deadline_us = 0);

  /// Decorrelated-jitter backoff (simulated time): sleep drawn uniformly
  /// from [base, prev*3], clamped to the policy cap. Mutates *prev.
  SimMicros next_backoff(SimMicros* prev);

  /// Spend one token from the client-wide retry bucket; false when empty.
  bool take_retry_token();

  /// Drive one request leg to delivery, retrying per RetryPolicy with
  /// backoff. On success `attempt_start` is the (possibly backed-off) send
  /// time of the delivered attempt; on failure `failed_at` is when the last
  /// attempt's failure was detected.
  struct LegDelivery {
    bool ok = false;
    SimMicros attempt_start = 0;
    SimMicros extra_latency_us = 0;
    SimMicros failed_at = 0;
    Errc err = Errc::ok;
  };
  LegDelivery try_deliver(BlobServer& srv, SimMicros start, std::uint64_t request_bytes,
                          std::uint32_t batch_subs = 0);

  // --- elastic membership (placement cache + epoch protocol) ---------------

  /// Placement resolution through the client placement cache. Only
  /// window-free placements (empty `pending`) are cacheable, so a leg routed
  /// by a cache hit may skip the dual-write machinery entirely; what makes
  /// that safe is the epoch stamp protocol — every server carries the ring
  /// epoch it was last told about, legs compare the stamp of the server that
  /// answered against the epoch the placement was computed at, and a newer
  /// stamp means membership moved under the cached entry: flush, refetch,
  /// retry (bounded). Mutation legs additionally re-resolve the placement
  /// under the held key stripes — the rebalancer flips a key's migration
  /// state under those same stripes, so a placement that re-reads
  /// identically cannot change for the rest of the leg.
  Placement locate(const std::string& ekey);
  void place_flush(const std::string& ekey);

  /// Hedge delay currently in force: the observed read-latency percentile
  /// once warmed up, else the fixed delay (0 = hedging dormant).
  [[nodiscard]] SimMicros hedge_delay() const;

  // --- overload resilience (deadline budgets + per-node breakers) ----------

  /// RAII per-operation deadline budget: the outermost public primitive
  /// installs `start + DeadlinePolicy::op_deadline_us` as the absolute
  /// simulated-time budget; nested legs/retries/hedges all clamp against it
  /// through op_deadline_at(). No-op when the policy is unbounded or a
  /// budget is already installed (nested primitive).
  class OpBudget {
   public:
    OpBudget(BlobClient& c, SimMicros start);
    ~OpBudget();
    OpBudget(const OpBudget&) = delete;
    OpBudget& operator=(const OpBudget&) = delete;

   private:
    BlobClient* c_;
    bool installed_ = false;
  };

  [[nodiscard]] SimMicros op_deadline_at() const noexcept { return op_deadline_at_; }
  /// Per-attempt deadline at send time `t`: the policy attempt deadline
  /// clamped to whatever op budget remains (>= 1 so a drop never waits 0).
  [[nodiscard]] SimMicros attempt_deadline_at(SimMicros t) const noexcept;

  /// Per-replica health: latency EWMA + consecutive-failure breaker.
  /// Updated by try_deliver outcomes; guarded by health_mu_ because batched
  /// group legs fan out on the thread pool in fault-free runs (under a fault
  /// injector everything is sequential, keeping chaos traces deterministic).
  struct NodeHealth {
    enum class Breaker { closed, open, half_open };
    Breaker state = Breaker::closed;
    std::uint32_t consecutive_failures = 0;
    std::uint32_t half_open_successes = 0;
    SimMicros opened_at = 0;
    double ewma_latency_us = 0.0;
    std::uint64_t samples = 0;
  };
  /// Record one delivered (latency-bearing) or failed attempt against node.
  /// `node` is the SimNode id (what try_deliver sees), NOT the server index;
  /// demote_suspects converts from candidate server indices at its boundary.
  void health_on_success(std::uint32_t node, SimMicros latency_us);
  void health_on_failure(std::uint32_t node, SimMicros now);
  /// Breaker gate for non-mandatory traffic to `node` at time `now`.
  /// closed -> allowed; open past its cooldown -> transitions to half_open
  /// and admits this caller as the single probe; open otherwise -> refused.
  [[nodiscard]] bool breaker_allows(std::uint32_t node, SimMicros now);
  /// Suspect = breaker not closed, or warmed-up latency EWMA far above the
  /// fleet mean (gray failure: up but slow).
  [[nodiscard]] bool is_suspect(std::uint32_t node);
  /// Stable-partition healthy candidates ahead of suspects (availability is
  /// preserved: suspects stay in the list, at the back).
  void demote_suspects(std::vector<std::uint32_t>& candidates);
  [[nodiscard]] NodeHealth::Breaker breaker_state(std::uint32_t node);

  // --- batched scatter-gather (every striped op) ---------------------------

  /// One replicated mutation of one engine key: 1-2 ops applied in order
  /// (a striped write's base leg is write + grow), the key's version
  /// advancing by the op count. Ops are checked one by one against the
  /// acting primary (later ops see earlier ops' effects): create on an
  /// existing key fails, and so do remove/truncate/grow on an absent key and
  /// a write on an absent key with write_creates off. A `chunk_sub` — chunk
  /// c >= 1 of a striped write, truncate or remove — instead creates its
  /// key on demand and skips an absent truncate/remove target (a hole).
  /// The leg points each op's key at `ekey`.
  struct MutationSub {
    std::string ekey;
    std::uint64_t chunk = 0;            ///< chunk index (grouping / coalescing)
    std::vector<BlobServer::OpRef> ops; ///< share their payload buffers, no copy
    bool chunk_sub = false;
    // Results (filled by mutation_group_leg), observed under the leg's own
    // lock round — one version exchange, no extra stat round. Striped ops
    // plan their chunk wave from pre_size and refresh the metadata cache
    // with new_version.
    bool pre_exists = false;
    std::uint64_t pre_size = 0;  ///< authoritative logical size before the leg
    Version new_version = 0;     ///< key's version after a successful leg
  };

  /// Execute a wave of chunk subs: group by acting primary, one batch
  /// envelope per group (chunk-ascending group order, deterministic), fanned
  /// out on the shared thread pool when no fault injector is installed.
  /// Every group forks from `start`; the agent advances to the slowest
  /// group's completion (sim stays max-of-legs).
  Status batched_mutation_wave(std::vector<MutationSub>& subs, SimMicros start);

  /// The one replicated-mutation leg, forked from `start`: one striped-lock
  /// round per involved node (ascending), one version exchange per key, one
  /// apply_ops trip to the acting primary, one forward per further replica,
  /// dual writes to pending owners, hints and the quorum rule. The acting
  /// primary must ack; further replicas ack until the write quorum is met,
  /// and replicas that are down, stale, or unreachable are recorded as
  /// hinted-handoff entries. With `wave_primary` set the subs are a wave
  /// group shipped as one batch envelope through that primary (Errc::busy
  /// when a cutover moved a sub off it: the wave re-groups). Without it,
  /// `subs` is one single-key op or striped base leg, sent as a plain
  /// request to the acting primary picked under the leg's own locks.
  Status mutation_group_leg(std::span<MutationSub* const> subs,
                            std::optional<std::uint32_t> wave_primary, SimMicros start,
                            SimMicros* completion);

  /// A single-key op or a striped base leg: `sub` alone, as a plain request
  /// forked from the agent's clock, which advances to the leg's completion.
  Status plain_leg(MutationSub& sub);

  /// One read sub-op plus its result: a chunk-granular slice of a striped
  /// read or its chunk-0 stat, or a lone single-chunk read or stat.
  struct ReadSub {
    std::string ekey;
    std::uint64_t chunk = 0;
    std::uint64_t off = 0;             ///< intra-chunk offset
    std::uint64_t len = 0;             ///< span length
    MutableByteView dst{};             ///< striped: pre-zeroed slice of the caller buffer
    bool stat_only = false;
    // Routing (filled by read_wave and the failover rule):
    std::vector<std::uint32_t> replicas{};  ///< live candidates, suspects last
    std::uint32_t votes = 1;           ///< replies a version vote needs
    std::uint64_t epoch = 0;           ///< ring epoch the placement was computed at
    SimMicros ready = 0;               ///< when the sub is (re)sent
    bool resend = false;               ///< (re)send in the wave's next round
    std::uint32_t unreachable = 0;     ///< candidate a resent sub moves off
    bool stale = false;                ///< a reply carried a newer epoch stamp
    // Results (filled by read_group_leg):
    Errc err = Errc::ok;               ///< not_found, or why a resent sub moved
    Bytes data{};                      ///< lone read: the reply bytes, clipped at EOF
    std::uint64_t covered = 0;         ///< extent-backed bytes among those served
    std::uint64_t size = 0;            ///< object size served (chunk 0: logical size)
    Version version = 0;               ///< version served (the vote's winner at R > 1)
    /// Per-sub delivered latency (availability time - group attempt start),
    /// folded into read_latency_ by read_wave AFTER the group barrier —
    /// the histogram is not thread-safe and groups may fan out on the pool.
    SimMicros latency_us = 0;
  };

  /// The one read leg: one group of subs sharing a candidate tuple, forked
  /// from `start`. A payload request to `candidates[0]` plus one digest-only
  /// vote per further quorum candidate, arbitrated per sub by version
  /// (a lower version wins only with the winner's span digest and object
  /// size), with stale subs re-fetched from the winning
  /// replica; hedging composes: a slow payload request arms a delayed
  /// duplicate to candidates[1]. `plain` (a lone sub) sends each request in
  /// plain wire form, served and charged as BlobServer::read/stat; otherwise
  /// each request is one batch envelope, re-sent once whole before giving
  /// up. The subs of an undelivered request are handed back (`resend`,
  /// `unreachable`) for read_wave to move and resend from the failure time.
  void read_group_leg(std::span<ReadSub* const> subs,
                      std::span<const std::uint32_t> candidates, bool plain,
                      SimMicros start, SimMicros* completion);

  /// Run `subs` from the agent's clock, which advances to the slowest
  /// group's completion: place each sub, group by candidate tuple, run every
  /// group's leg (fanned out on the pool when no fault injector is
  /// installed), regroup and resend moved subs, and re-run the whole wave
  /// when a reply's epoch stamp is newer than the placement it was routed
  /// by. A `plain` wave (one lone sub) routes differently in three ways:
  /// its first placement comes from the placement cache, which the epoch
  /// stamp keeps honest (striped chunk keys would churn the cache); it puts
  /// suspect replicas last up front, where a striped sub keeps replica
  /// order until it moves, so its group's envelopes still reach a faulted
  /// node and fail over as a group; and its payload latency feeds the node
  /// latency EWMA (see read_group_leg).
  Status read_wave(std::span<ReadSub* const> subs, bool plain);

  /// A lone read or stat (`sub` alone, plain wire form); a sub the replicas
  /// report absent returns not_found.
  Status lone_leg(ReadSub& sub);

  /// size()/stat() backend: metadata-cache lookup first (a hit answers with
  /// zero rounds; the entry is invalidated on local mutation and verified by
  /// the piggybacked stat sub of every striped read), falling back to one
  /// stat round that primes the cache.
  Result<BlobStat> cached_stat(const std::string& base);

  // --- client metadata cache ----------------------------------------------

  /// Cached chunk-0 metadata: logical blob size + chunk-0 version. Supplies
  /// the layout of every striped read (no stat round before the data
  /// envelopes) and answers size()/stat() with zero rounds. Verified by the
  /// stat sub piggybacked on every striped read round and invalidated on
  /// any local mutation or observed drift. Per-client (the client is bound
  /// to one logical thread), so no lock.
  struct MetaEntry {
    std::uint64_t logical = 0;
    Version v0 = 0;
  };
  static constexpr std::size_t kMetaCacheCap = 4096;
  void cache_put(const std::string& key, MetaEntry e);
  void cache_erase(const std::string& key);

  /// One group of a read wave: subs sharing a candidate tuple, a run of
  /// wave_order_.
  struct ReadGroup {
    std::span<const std::uint32_t> candidates;
    std::size_t first = 0;
    std::size_t count = 0;
    SimMicros start = 0;
    SimMicros completion = 0;
  };

  /// Lazily-created pool for wall-clock-parallel group fan-out (fault-free
  /// runs only: injected faults need the deterministic sequential order).
  ThreadPool& pool();

  BlobStore* store_;
  sim::SimAgent* agent_;
  ClientCounters counters_;
  Rng rng_{0xb10bfa117ULL};  ///< backoff jitter; per-client, deterministic
  Histogram read_latency_;   ///< delivered read-leg latency (drives hedging)
  std::unordered_map<std::string, MetaEntry> meta_cache_;
  std::unordered_map<std::string, Placement> place_cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ReadGroup> wave_groups_;  ///< read_wave scratch, reused across waves
  std::vector<ReadSub*> wave_order_;    ///< subs of wave_groups_, group by group
  // Overload resilience state.
  SimMicros op_deadline_at_ = 0;  ///< absolute budget of the op in flight (0 = none)
  double retry_tokens_ = -1.0;    ///< client-wide bucket; <0 = fill on first use
  std::mutex health_mu_;          ///< guards health_ and retry_tokens_ (pool fan-out)
  std::unordered_map<std::uint32_t, NodeHealth> health_;
  double fleet_ewma_us_ = 0.0;    ///< all-node latency EWMA (suspect baseline)
  std::uint64_t fleet_samples_ = 0;
};

/// A batch of mutations committed atomically across blobs. Preconditions
/// (expected versions) make the transaction optimistic: commit() fails with
/// Errc::conflict — applying nothing — if any precondition no longer holds.
/// Transactional writes address keys directly (no chunk striping): the
/// transaction layer is for small metadata blobs (Týr's use case), and
/// commit() refuses with Errc::invalid_argument, applying nothing, any op
/// whose range or new size passes StoreConfig::chunk_bytes.
class BlobTransaction {
 public:
  explicit BlobTransaction(BlobClient& client) : client_(&client) {}
  // ops_ points into keys_: a copy would point into the source's.
  BlobTransaction(const BlobTransaction&) = delete;
  BlobTransaction& operator=(const BlobTransaction&) = delete;
  BlobTransaction(BlobTransaction&&) = default;
  BlobTransaction& operator=(BlobTransaction&&) = default;

  BlobTransaction& write(std::string_view key, std::uint64_t offset, ByteView data);
  BlobTransaction& truncate(std::string_view key, std::uint64_t new_size);
  BlobTransaction& create(std::string_view key);
  BlobTransaction& remove(std::string_view key);

  /// Require `key` to be at `version` at commit time (0 = must not exist).
  BlobTransaction& expect_version(std::string_view key, Version version);

  [[nodiscard]] std::size_t op_count() const noexcept { return ops_.size(); }

  /// Two-round commit: lock all involved servers (ascending node id — no
  /// deadlock), validate preconditions, apply everywhere, release. The only
  /// path that still takes whole-server exclusive locks.
  [[nodiscard]] Status commit();

 private:
  BlobClient* client_;
  /// Owned copies of each op's key; ops_ points into them (deque elements
  /// never move, not even when the deque does). Each write op owns its
  /// payload buffer, captured at write().
  std::deque<std::string> keys_;
  std::vector<BlobServer::OpRef> ops_;
  std::vector<std::pair<std::string, Version>> preconditions_;
};

}  // namespace bsc::blob
