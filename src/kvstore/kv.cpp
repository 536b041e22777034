#include "kvstore/kv.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "rpc/wire.hpp"

namespace bsc::kvstore {

KvStore::KvStore(blob::BlobStore& store, std::string name, KvConfig cfg)
    : store_(&store), name_(std::move(name)), cfg_(cfg) {
  if (cfg_.buckets == 0) cfg_.buckets = 1;
}

std::string KvStore::bucket_key(std::uint32_t bucket) const {
  return strfmt("kv!%s!bucket-%04u", name_.c_str(), bucket);
}

std::uint32_t KvStore::bucket_of(std::string_view key) const {
  return static_cast<std::uint32_t>(fnv1a64(key) % cfg_.buckets);
}

Bytes KvStore::encode_bucket(const Entries& entries) {
  rpc::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.put_string(k);
    w.put_string(v);
  }
  return std::move(w).take();
}

Result<KvStore::Entries> KvStore::load_bucket(blob::BlobClient& client,
                                              std::uint32_t bucket,
                                              blob::Version* version) {
  // One read round: a bucket never outgrows chunk 0 (transactions refuse
  // ranges past chunk_bytes), so the reply is one whole incarnation of the
  // bucket, clipped at EOF, paired with the version it was served at. A
  // decode failure is therefore real corruption, never a torn snapshot.
  const std::uint64_t cb = store_->config().chunk_bytes;
  blob::BlobStat served;
  auto data = client.read(bucket_key(bucket), 0,
                          cb > 0 ? cb : std::numeric_limits<std::uint64_t>::max(), &served);
  if (!data.ok()) {
    if (data.code() != Errc::not_found) return data.error();
    if (version) *version = 0;  // bucket blob not created yet
    return Entries{};
  }
  if (version) *version = served.version;
  rpc::WireReader r(as_view(data.value()));
  auto count = r.get_u32();
  if (!count.ok()) return {Errc::io_error, "corrupt bucket header"};
  Entries entries;
  entries.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto k = r.get_string();
    auto v = r.get_string();
    if (!k.ok() || !v.ok()) return {Errc::io_error, "corrupt bucket entry"};
    entries.emplace_back(std::move(k).take(), std::move(v).take());
  }
  return entries;
}

template <typename MutateFn>
Status KvStore::update_bucket(sim::SimAgent& agent, std::uint32_t bucket,
                              MutateFn&& mutate) {
  blob::BlobClient client(*store_, &agent);
  for (std::uint32_t attempt = 0; attempt < cfg_.max_txn_retries; ++attempt) {
    blob::Version version = 0;
    auto entries = load_bucket(client, bucket, &version);
    if (!entries.ok()) return entries.error();
    Status verdict = mutate(entries.value());
    if (!verdict.ok()) return verdict;  // e.g. erase of a missing key
    const Bytes encoded = encode_bucket(entries.value());
    auto txn = client.begin_transaction();
    txn.expect_version(bucket_key(bucket), version);
    // Replace content exactly: shrink first when the bucket got smaller.
    if (version != 0) txn.truncate(bucket_key(bucket), encoded.size());
    txn.write(bucket_key(bucket), 0, as_view(encoded));
    auto st = txn.commit();
    if (st.ok()) return Status::success();
    if (st.code() != Errc::conflict) return st;
    // Conflict: another writer landed first; reload and retry.
  }
  return {Errc::conflict, "bucket update retries exhausted"};
}

Status KvStore::put(sim::SimAgent& agent, std::string_view key, std::string_view value) {
  return update_bucket(agent, bucket_of(key), [&](Entries& entries) {
    for (auto& [k, v] : entries) {
      if (k == key) {
        v = std::string{value};
        return Status::success();
      }
    }
    entries.emplace_back(std::string{key}, std::string{value});
    return Status::success();
  });
}

Result<std::string> KvStore::get(sim::SimAgent& agent, std::string_view key) {
  blob::BlobClient client(*store_, &agent);
  auto entries = load_bucket(client, bucket_of(key), nullptr);
  if (!entries.ok()) return entries.error();
  for (const auto& [k, v] : entries.value()) {
    if (k == key) return v;
  }
  return {Errc::not_found, std::string{key}};
}

Status KvStore::erase(sim::SimAgent& agent, std::string_view key) {
  return update_bucket(agent, bucket_of(key), [&](Entries& entries) {
    const auto before = entries.size();
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const auto& kv) { return kv.first == key; }),
                  entries.end());
    if (entries.size() == before) return Status{Errc::not_found, std::string{key}};
    return Status::success();
  });
}

bool KvStore::contains(sim::SimAgent& agent, std::string_view key) {
  return get(agent, key).ok();
}

Status KvStore::put_many(sim::SimAgent& agent,
                         const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return Status::success();
  blob::BlobClient client(*store_, &agent);
  for (std::uint32_t attempt = 0; attempt < cfg_.max_txn_retries; ++attempt) {
    // Group by bucket, load each involved bucket, apply all mutations, then
    // commit every bucket image in ONE transaction with version guards —
    // all-or-nothing across the whole batch.
    std::map<std::uint32_t, Entries> images;
    std::map<std::uint32_t, blob::Version> versions;
    bool load_failed = false;
    for (const auto& [key, value] : pairs) {
      const std::uint32_t b = bucket_of(key);
      if (!images.count(b)) {
        blob::Version ver = 0;
        auto entries = load_bucket(client, b, &ver);
        if (!entries.ok()) {
          load_failed = true;
          break;
        }
        images.emplace(b, std::move(entries).take());
        versions.emplace(b, ver);
      }
      Entries& entries = images[b];
      bool replaced = false;
      for (auto& [k, v] : entries) {
        if (k == key) {
          v = value;
          replaced = true;
          break;
        }
      }
      if (!replaced) entries.emplace_back(key, value);
    }
    if (load_failed) return {Errc::io_error, "bucket load failed"};

    auto txn = client.begin_transaction();
    for (const auto& [b, entries] : images) {
      const Bytes encoded = encode_bucket(entries);
      txn.expect_version(bucket_key(b), versions[b]);
      if (versions[b] != 0) txn.truncate(bucket_key(b), encoded.size());
      txn.write(bucket_key(b), 0, as_view(encoded));
    }
    auto st = txn.commit();
    if (st.ok()) return Status::success();
    if (st.code() != Errc::conflict) return st;
  }
  return {Errc::conflict, "put_many retries exhausted"};
}

Result<std::vector<std::pair<std::string, std::string>>> KvStore::items(
    sim::SimAgent& agent) {
  blob::BlobClient client(*store_, &agent);
  Entries all;
  for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
    auto entries = load_bucket(client, b, nullptr);
    if (!entries.ok()) return entries.error();
    for (auto& kv : entries.value()) all.push_back(std::move(kv));
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::uint64_t KvStore::approximate_count(sim::SimAgent& agent) {
  auto all = items(agent);
  return all.ok() ? all.value().size() : 0;
}

}  // namespace bsc::kvstore
