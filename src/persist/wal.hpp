// Write-ahead log for the blob storage engine.
//
// The WAL is the durable half of blob::StorageEngine: every successful
// mutation (create / remove / write / truncate / grow — exactly the engine's
// op set) is serialized as one checksummed, length-prefixed record and
// appended to `<dir>/wal.log`. Recovery replays records after the newest
// valid checkpoint and stops cleanly at the first torn or corrupt record,
// so a crash mid-append loses at most the un-fsynced tail, never corrupts
// the prefix.
//
// Record wire format (all integers little-endian):
//
//   u32 body_len | u64 body_checksum | body
//   body = u8 op | u64 lsn | u32 key_len | key bytes
//        | u64 offset | u64 size | u8 flags | payload bytes
//
// `offset`/`payload` are meaningful for write records, `size` for
// truncate/grow; the fixed body header is carried by every record type to
// keep parsing single-shape. `body_checksum` covers the whole body; a
// mismatch (bit flip) or a short read (torn write) ends the valid log.
//
// Durability policy (group commit):
//   * always — write(2) + fsync(2) per record: nothing is ever lost.
//   * group  — records buffer in user space and are flushed + fsynced when
//              the batch reaches `group_records`/`group_bytes` or on an
//              explicit sync(); a crash loses at most one open batch.
//   * none   — write(2) per record, never fsync: the OS decides.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace bsc::persist {

// --- little-endian wire helpers (shared with the checkpoint format) -------

inline void put_u8(Bytes& b, std::uint8_t v) { b.push_back(std::byte{v}); }

inline void put_u32(Bytes& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
}

inline void put_u64(Bytes& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
}

/// Bounds-checked sequential reader; any out-of-range access latches
/// `ok = false` and returns zeros thereafter.
struct Cursor {
  ByteView buf;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > buf.size()) { ok = false; return 0; }
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (pos + 4 > buf.size()) { ok = false; return 0; }
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (pos + 8 > buf.size()) { ok = false; return 0; }
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[pos++]) << (8 * i);
    return v;
  }
  ByteView take(std::size_t n) {
    if (pos + n > buf.size()) { ok = false; return {}; }
    ByteView out = buf.subspan(pos, n);
    pos += n;
    return out;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return buf.size() - pos; }
};

// --- WAL records ----------------------------------------------------------

/// One journaled engine mutation. Matches blob::StorageEngine's op set 1:1.
enum class WalOp : std::uint8_t {
  create = 1,
  remove = 2,
  write = 3,
  truncate = 4,
  grow = 5,
  set_version = 6,  ///< repair/hint-drain installs a copy at the source's version
};

struct WalRecord {
  WalOp op = WalOp::create;
  std::uint64_t lsn = 0;  ///< assigned by Journal::append, strictly increasing
  std::string key;
  std::uint64_t offset = 0;        ///< write only
  std::uint64_t size = 0;          ///< truncate / grow target
  bool create_if_missing = false;  ///< write only
  Bytes data;                      ///< write payload
};

/// Serialize one record (header + checksummed body) onto `out`.
void encode_record(const WalRecord& rec, Bytes& out);

/// Result of scanning a WAL file front to back.
struct WalScanResult {
  std::vector<WalRecord> records;        ///< every valid record, in order
  std::vector<std::uint64_t> record_ends;///< file offset just past record i
  std::uint64_t valid_bytes = 0;         ///< prefix length that parsed clean
  bool tail_torn = false;                ///< file continues past valid_bytes
  std::string tail_reason;               ///< why parsing stopped (when torn)
};

/// Path of the log file inside a persistence directory.
[[nodiscard]] std::string wal_path(const std::string& dir);

/// Parse `path` until EOF or the first invalid record (torn length prefix,
/// short body, checksum mismatch, or non-monotonic LSN). A missing file is
/// an empty, un-torn log.
[[nodiscard]] WalScanResult scan_wal(const std::string& path);

// --- recovery report ------------------------------------------------------

/// What StorageEngine::recover found and did; consumed by tests, benches,
/// and operator logging.
struct RecoveryReport {
  std::uint64_t checkpoint_lsn = 0;      ///< 0 = recovered from WAL alone
  std::uint32_t checkpoints_skipped = 0; ///< corrupt/unparseable snapshots
  std::uint64_t records_replayed = 0;
  std::uint64_t records_skipped = 0;     ///< LSN already covered by checkpoint
  bool tail_torn = false;                ///< log ended in a torn/corrupt record
  std::string tail_reason;
  std::uint64_t wal_valid_bytes = 0;     ///< log was truncated to this length
};

// --- the journal ----------------------------------------------------------

enum class FsyncPolicy { always, group, none };

[[nodiscard]] constexpr std::string_view to_string(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::always: return "always";
    case FsyncPolicy::group: return "group";
    case FsyncPolicy::none: return "none";
  }
  return "?";
}

struct JournalConfig {
  FsyncPolicy fsync = FsyncPolicy::group;
  std::uint64_t group_records = 64;        ///< flush after this many records
  std::uint64_t group_bytes = 256 * 1024;  ///< ... or this many buffered bytes
};

/// Append-only journal over `<dir>/wal.log`. Thread-safe behind one leaf
/// mutex: the engine's shards append concurrently (each with its own shard
/// lock held, so one key's records keep their apply order), and group
/// commit batches whatever they interleave into.
class Journal {
 public:
  /// Open (creating `dir` if needed). An existing log is scanned to
  /// continue the LSN sequence; a torn tail is truncated away so new
  /// appends extend a clean prefix. LSNs also advance past any existing
  /// checkpoint so post-checkpoint records always sort after it.
  static Result<std::unique_ptr<Journal>> open(const std::string& dir,
                                               JournalConfig cfg = {});
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Stamp `rec` with the next LSN and append it (buffered per policy).
  Status append(WalRecord rec);

  /// Flush the group-commit buffer and fsync the log.
  Status sync();

  /// Crash simulation: drop the un-flushed buffer and close the fd without
  /// flushing — exactly what process death does to user-space state.
  void abandon();

  /// Drop the whole log (buffer included). Only valid immediately after a
  /// checkpoint covering every assigned LSN; see
  /// StorageEngine::write_checkpoint(prune_wal).
  Status truncate_log();

  [[nodiscard]] std::uint64_t next_lsn() const {
    std::scoped_lock lk(mu_);
    return next_lsn_;
  }
  [[nodiscard]] std::uint64_t last_assigned_lsn() const { return next_lsn() - 1; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const JournalConfig& config() const noexcept { return cfg_; }

  // Counters for benches / observability.
  [[nodiscard]] std::uint64_t appended_records() const {
    std::scoped_lock lk(mu_);
    return append_count_;
  }
  [[nodiscard]] std::uint64_t fsync_count() const {
    std::scoped_lock lk(mu_);
    return fsync_count_;
  }
  [[nodiscard]] std::uint64_t buffered_bytes() const {
    std::scoped_lock lk(mu_);
    return buf_.size();
  }

 private:
  Journal(std::string dir, JournalConfig cfg, int fd, std::uint64_t next_lsn)
      : dir_(std::move(dir)), cfg_(cfg), fd_(fd), next_lsn_(next_lsn) {}

  /// Caller holds mu_.
  Status flush_buffer(bool do_fsync);

  mutable std::mutex mu_;  ///< leaf lock over everything below
  std::string dir_;
  JournalConfig cfg_;
  int fd_ = -1;
  std::uint64_t next_lsn_ = 1;
  Bytes buf_;
  std::uint64_t buf_records_ = 0;
  std::uint64_t append_count_ = 0;
  std::uint64_t fsync_count_ = 0;
};

}  // namespace bsc::persist
