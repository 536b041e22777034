// KvStore — a key-value abstraction layered on the blob store.
//
// The paper motivates blobs "as a base for storage abstractions like
// key-value stores or time-series databases" (§I); Týr itself was built to
// host transactional KV workloads. This store demonstrates the layering:
//
//   * the key space is hash-partitioned into fixed buckets, one blob each
//     ("kv!<store>!bucket-NNNN"), so lookups touch exactly one blob;
//   * updates are optimistic read-modify-write cycles committed with a Týr
//     transaction carrying a version precondition — concurrent writers to
//     the same bucket retry instead of losing updates;
//   * no directories, no inodes: the entire store is a handful of blobs;
//   * a bucket lives in chunk 0 of its blob (transactions stay inside one
//     chunk), so a put that would grow a bucket past
//     StoreConfig::chunk_bytes fails with Errc::invalid_argument — size
//     `buckets` for the data — and a lookup is a single read round.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blob/client.hpp"
#include "common/result.hpp"

namespace bsc::kvstore {

struct KvConfig {
  std::uint32_t buckets = 64;
  std::uint32_t max_txn_retries = 64;
};

class KvStore {
 public:
  /// Binds to (does not own) a blob store; `name` scopes the bucket keys so
  /// multiple KvStores can share one blob namespace.
  KvStore(blob::BlobStore& store, std::string name, KvConfig cfg = {});

  /// Insert or overwrite. Retries on concurrent-writer conflicts.
  Status put(sim::SimAgent& agent, std::string_view key, std::string_view value);

  /// Point lookup.
  Result<std::string> get(sim::SimAgent& agent, std::string_view key);

  /// Delete; not_found when the key was absent.
  Status erase(sim::SimAgent& agent, std::string_view key);

  [[nodiscard]] bool contains(sim::SimAgent& agent, std::string_view key);

  /// Atomically put every pair (all-or-nothing across buckets) — the
  /// multi-blob transaction use case.
  Status put_many(sim::SimAgent& agent,
                  const std::vector<std::pair<std::string, std::string>>& pairs);

  /// All pairs, sorted by key (full store walk).
  Result<std::vector<std::pair<std::string, std::string>>> items(sim::SimAgent& agent);

  [[nodiscard]] std::uint64_t approximate_count(sim::SimAgent& agent);

  [[nodiscard]] const KvConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  [[nodiscard]] std::string bucket_key(std::uint32_t bucket) const;
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const;

  /// Decode a bucket blob ({count}[len-prefixed k,v]*); missing blob = empty.
  Result<Entries> load_bucket(blob::BlobClient& client, std::uint32_t bucket,
                              blob::Version* version);
  [[nodiscard]] static Bytes encode_bucket(const Entries& entries);

  /// One optimistic update cycle on a bucket; retried on conflict.
  template <typename MutateFn>
  Status update_bucket(sim::SimAgent& agent, std::uint32_t bucket, MutateFn&& mutate);

  blob::BlobStore* store_;
  std::string name_;
  KvConfig cfg_;
};

}  // namespace bsc::kvstore
