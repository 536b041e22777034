// Per-node object store: log-structured in simulated cost, extents over
// shared immutable buffers in host memory.
//
// Simulated cost is that of a log-structured append (sequential on the
// simulated disk — the mechanical root of the blob stack's write advantage
// over update-in-place file systems): overwrites supersede extents and
// leave dead bytes behind, which `compact()` reclaims. In host memory each
// extent points into an immutable, refcounted payload buffer (SharedBytes):
// every replica of a client write references the one buffer the client
// built, and a buffer is freed when no extent on any replica references it.
//
// The engine is split into kShards shards, selected by the same key hash as
// the server's lock stripes (BlobServer::stripe_of). Each shard owns its
// objects, version floors and live/dead byte counts behind its own mutex,
// so every single-key call takes exactly one shard lock and mutations of
// keys in different shards never wait on each other. A single-key call is
// atomic: its outcome reports the object's size and version as of the same
// lock hold that served the data. Whole-engine operations (scan, counts,
// compaction, checkpoint, integrity) visit the shards in index order, one
// shard lock at a time.
//
// Durability: the in-memory store can be backed by a write-ahead journal
// (persist::Journal). With one attached, every successful mutation is
// appended as a WAL record, `write_checkpoint()` snapshots the object table
// + extent data, and `recover(dir)` rebuilds an engine from the newest
// valid checkpoint plus WAL replay — reproducing logical contents, holes,
// and versions exactly (extent-to-buffer layout may differ).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "blob/types.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace bsc::blob {

struct EngineConfig {
  double compact_dead_ratio = 0.5;  ///< compaction trigger threshold
};

// Every outcome carries the object's `size` and `version` as of the lock
// hold that produced it: a caller pairing data with a version (quorum votes)
// or sizing the page-cache entry after a write needs no second lookup that
// a concurrent mutation could slip in front of.

/// Outcome of a write, carrying what the cost model needs.
struct WriteOutcome {
  std::uint64_t bytes = 0;
  bool sequential_disk = true;  ///< log-structured appends always are
  Version version = 0;
  std::uint64_t size = 0;       ///< object length after the write
};

/// Outcome of a read: data plus the number of distinct extents touched
/// (each non-adjacent extent costs a seek on the simulated disk).
/// `covered` counts the bytes actually backed by extents — the remainder of
/// `data` is zero-filled holes, which throughput accounting must not claim
/// as transferred payload.
struct ReadOutcome {
  Bytes data;
  std::uint32_t extents_touched = 0;
  std::uint64_t covered = 0;
  std::uint64_t size = 0;
  Version version = 0;
};

/// Outcome of a read_into: like ReadOutcome but the data went straight into
/// the caller's buffer, so only the accounting travels back.
struct ReadIntoOutcome {
  std::uint64_t data_len = 0;   ///< bytes within the object (what a wire reply would carry)
  std::uint64_t covered = 0;    ///< extent-backed bytes among data_len
  std::uint32_t extents_touched = 0;
  std::uint64_t size = 0;
  Version version = 0;
  std::uint64_t digest = 0;     ///< span digest of the read window (0 = not requested)
};

/// Outcome of a span_probe: the digest a quorum vote ships plus the exact
/// accounting a payload read of the same span would have reported, so the
/// caller can charge read-equivalent costs without materializing bytes.
struct SpanProbeOutcome {
  std::uint64_t digest = 0;     ///< fold of the overlapping extent checksums
  std::uint64_t data_len = 0;   ///< bytes a payload read would carry
  std::uint64_t covered = 0;    ///< extent-backed bytes among data_len
  std::uint32_t extents_touched = 0;
  std::uint64_t size = 0;
  Version version = 0;
};

class StorageEngine {
 public:
  /// Number of internal shards (power of two). BlobServer's lock stripes
  /// are these shards: a mutation holding stripe s touches only shard s.
  static constexpr std::size_t kShards = 64;

  /// Shard (= server lock stripe) of a key.
  [[nodiscard]] static std::size_t shard_of(std::string_view key) noexcept;

  explicit StorageEngine(EngineConfig cfg = {});
  StorageEngine(StorageEngine&& other) noexcept;
  /// Replaces the contents shard by shard, each under that shard's lock, so
  /// a server can swap in a fresh or recovered engine (crash, restart)
  /// while unlocked single-key peeks are in flight.
  StorageEngine& operator=(StorageEngine&& other) noexcept;
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Rebuild an engine from a persistence directory: load the newest valid
  /// checkpoint (corrupt ones are skipped), replay WAL records past its
  /// LSN, stop cleanly at a torn/corrupt tail record (the log is truncated
  /// there), and verify every extent checksum before returning. The result
  /// has no journal attached — reattach one to resume logging.
  static Result<StorageEngine> recover(const std::string& dir, EngineConfig cfg = {},
                                       persist::RecoveryReport* report = nullptr);

  /// Attach (or detach with nullptr) a write-ahead journal sink: every
  /// subsequent successful mutation is appended as a WAL record. Non-owning;
  /// the journal must outlive the engine or be detached first.
  void attach_journal(persist::Journal* journal) noexcept { journal_ = journal; }
  [[nodiscard]] persist::Journal* journal() const noexcept { return journal_; }

  /// Snapshot the whole object table + extent data into a checkpoint file
  /// in the attached journal's directory, covering every record assigned so
  /// far. With `prune_wal` the log is reset afterwards (bounded replay, at
  /// the cost of older-checkpoint fallback depth). Returns the covered LSN.
  /// The caller keeps mutations out for the duration; one that slips in
  /// fails the snapshot with busy.
  Result<std::uint64_t> write_checkpoint(bool prune_wal = false);

  /// Create an empty object. Fails with already_exists if present.
  Status create(const std::string& key);

  /// Remove an object and account its extents as dead. The removed object's
  /// version is kept as a *version floor*: recreating the key continues the
  /// version sequence past it instead of restarting at 1. Without the floor,
  /// a replica that was down across a remove+recreate would hold the old
  /// incarnation at a HIGHER version than the live ones, and every
  /// freshest-wins repair path (resync, scrub, hint drain) would resurrect
  /// the deleted data. Floors survive recovery: WAL replay of the remove
  /// record rebuilds them, and checkpoints snapshot outstanding floors.
  Status remove(const std::string& key);

  [[nodiscard]] bool contains(const std::string& key) const;

  /// Random-access write; grows the object as needed. Creates the object
  /// when `create_if_missing` (RADOS semantics), else not_found. The new
  /// extent keeps a reference to `data`'s buffer: every replica of a client
  /// write stores the one buffer the client built.
  /// `checksum`, when non-zero, is the caller's precomputed
  /// content_checksum(data): every client write path computes it once and
  /// ships it with the payload, so each replica stores instead of
  /// recomputing (and a wire corruption is caught later against the
  /// *sender's* checksum, which a server-side recompute would bless).
  /// 0 = compute here.
  Result<WriteOutcome> write(const std::string& key, std::uint64_t offset, SharedBytes data,
                             bool create_if_missing, std::uint64_t checksum = 0);

  /// write() of a plain view (repair installs, WAL replay, standalone
  /// callers): copies `data` into a fresh buffer first.
  Result<WriteOutcome> write(const std::string& key, std::uint64_t offset, ByteView data,
                             bool create_if_missing, std::uint64_t checksum = 0) {
    return write(key, offset, SharedBytes::copy_of(data), create_if_missing, checksum);
  }

  /// Random-access read; unwritten holes read as zero; reads past the end
  /// are clipped (empty result at/after EOF).
  Result<ReadOutcome> read(const std::string& key, std::uint64_t offset,
                           std::uint64_t len) const;

  /// Scatter-gather read into a caller-provided buffer: copies the extent
  /// bytes overlapping [offset, offset + dst.size()) directly into `dst`,
  /// skipping the intermediate ReadOutcome allocation+copy of read().
  /// Contract: `dst` is pre-zeroed by the caller — holes and the tail past
  /// the object's length are left untouched (they already read as zero).
  /// With `want_digest` the outcome also carries span_probe's digest of the
  /// same window, taken under the same lock hold.
  Result<ReadIntoOutcome> read_into(const std::string& key, std::uint64_t offset,
                                    MutableByteView dst, bool want_digest = false) const;

  /// Metadata-proportional span digest for quorum votes: folds the stored
  /// per-extent checksums overlapping [offset, offset + len) — clipped at
  /// the object's length, like a read — into one value, without touching
  /// payload bytes. Replicas that applied the same op stream hold identical
  /// extent layouts, so equal digests mean byte-identical read replies;
  /// layouts that differ over identical bytes only differ in digest, which
  /// costs the client a spurious (but safe) payload refetch. Extents whose
  /// whole-extent checksum was dropped (overwrite splits, truncate trims)
  /// fall back to hashing their overlapping stored bytes.
  [[nodiscard]] Result<SpanProbeOutcome> span_probe(const std::string& key,
                                                    std::uint64_t offset,
                                                    std::uint64_t len) const;

  /// Grow (sparse) or shrink the object.
  Result<Version> truncate(const std::string& key, std::uint64_t new_size);

  /// Raise the object's logical length to at least `min_size` (no data is
  /// written; the gap reads as a hole). Bumps the version. Used to keep a
  /// striped blob's full logical size on its chunk-0 record.
  Result<Version> grow(const std::string& key, std::uint64_t min_size);

  Result<std::uint64_t> size(const std::string& key) const;
  Result<Version> version(const std::string& key) const;
  /// Size and version from one lock hold.
  Result<BlobStat> stat(const std::string& key) const;

  /// Force the object's version to `v` without touching its contents.
  /// Repair paths (resync, scrub, hint drain, rebalance) use this to install
  /// a copy at the *source's* version: replicas then agree that equal
  /// versions imply equal contents, which is what version-arbitrated quorum
  /// reads rely on. Journaled (WalOp::set_version) so recovery round-trips.
  Status set_version(const std::string& key, Version v);

  /// Install an exact copy — contents `data` at offset 0, logical size,
  /// version — replacing whatever is present, in one lock hold: readers see
  /// the old object or the new one, never a missing key. Journaled as the
  /// remove / write / truncate / set_version records it is made of.
  Status install(const std::string& key, ByteView data, std::uint64_t logical_size,
                 Version version);

  /// All keys in lexicographic order, optionally filtered by prefix.
  /// The simulated server charges a walk over every object (the flat
  /// namespace has no directory index), so `visited` (when non-null)
  /// receives the object count; the in-memory walk itself starts each
  /// shard at the prefix.
  [[nodiscard]] std::vector<BlobStat> scan(const std::string& prefix = {},
                                           std::uint64_t* visited = nullptr) const;

  [[nodiscard]] std::uint64_t object_count() const;

  // --- space accounting / compaction ---
  [[nodiscard]] std::uint64_t live_bytes() const;
  [[nodiscard]] std::uint64_t dead_bytes() const;
  /// Host memory held: the summed sizes of the distinct payload buffers this
  /// engine's extents reference. Only partly superseded buffers hold dead bytes.
  [[nodiscard]] std::uint64_t buffer_bytes() const;
  [[nodiscard]] bool needs_compaction() const;

  /// Copy every partial extent into a buffer of its own size, so that no
  /// dead byte is held any more, and zero the dead-byte count (shard by
  /// shard); returns the dead bytes reclaimed.
  std::uint64_t compact();

  /// Verify every extent checksum (failure injection tests flip bytes).
  [[nodiscard]] Status verify_integrity() const;

  /// Verify one object's extent checksums.
  [[nodiscard]] Status verify_object(const std::string& key) const;

  /// Test hook: corrupt one byte of stored data for `key` (if any exists), in
  /// a private copy of the buffer so other engines sharing it are untouched.
  bool corrupt_for_testing(const std::string& key);

 private:
  struct Extent {
    std::uint64_t log_off = 0;  ///< logical offset within the object
    std::uint64_t buf_off = 0;  ///< offset of the extent's bytes within `buf`
    std::uint64_t len = 0;
    std::uint64_t checksum = 0;
    SharedBytes buf;            ///< the whole buffer a write stored

    [[nodiscard]] ByteView bytes() const noexcept { return buf.view.subspan(buf_off, len); }
  };

  struct ObjectRec {
    std::uint64_t length = 0;
    Version version = 0;
    std::vector<Extent> extents;  ///< sorted by log_off, non-overlapping
  };

  /// One shard's slice of the engine; every field is guarded by `mu`.
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, ObjectRec> objects;
    std::map<std::string, Version> removed_floors;  ///< last version of removed keys
    std::uint64_t live_bytes = 0;
    std::uint64_t dead_bytes = 0;
  };
  using Shards = std::array<Shard, kShards>;

  [[nodiscard]] Shard& shard(std::string_view key) const noexcept {
    return (*shards_)[shard_of(key)];
  }

  /// Lock a shard, publishing engine.shard.acquisitions and, when the lock
  /// was already held, engine.shard.contended.
  [[nodiscard]] static std::unique_lock<std::mutex> lock(const Shard& s);

  // The helpers below run with the shard's lock held.

  /// Account `n` live bytes dead.
  static void retire_bytes(Shard& s, std::uint64_t n) noexcept;

  /// Cut [off, off+len) out of the object's extent list, keeping the left
  /// and right slices of overlapping extents on their buffers.
  static void supersede_range(Shard& s, ObjectRec& rec, std::uint64_t off, std::uint64_t len);

  Result<WriteOutcome> write_locked(Shard& s, const std::string& key, std::uint64_t offset,
                                    SharedBytes data, bool create_if_missing,
                                    std::uint64_t checksum);
  Status remove_locked(Shard& s, const std::string& key);
  Result<Version> truncate_locked(Shard& s, const std::string& key, std::uint64_t new_size);
  Status set_version_locked(Shard& s, const std::string& key, Version v);
  static std::uint64_t compact_locked(Shard& s);
  [[nodiscard]] static Status verify_locked(const std::string& key, const ObjectRec& rec);
  [[nodiscard]] static SpanProbeOutcome probe_locked(const ObjectRec& rec,
                                                     std::uint64_t offset, std::uint64_t len);

  /// Append a record to the attached journal (no-op without one).
  Status journal_append(persist::WalRecord rec);

  /// Recovery: install one checkpointed object wholesale (one buffer per
  /// run, length/version restored verbatim).
  Status restore_object(const persist::CheckpointObject& obj);

  /// Consume the version floor a prior remove left for `key` (0 if none):
  /// the recreated object's version sequence starts above it.
  static Version take_floor(Shard& s, const std::string& key);

  EngineConfig cfg_;
  std::unique_ptr<Shards> shards_;
  persist::Journal* journal_ = nullptr;
};

}  // namespace bsc::blob
