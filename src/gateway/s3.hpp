// S3Gateway — an S3-style object interface over the blob store.
//
// The paper's related work (§II-C, Abe & Gibson's pwalrus) explores exposing
// cluster storage "through the storage service layer (S3 interface)"; this
// gateway completes the picture for the blob substrate: buckets, objects,
// prefix/delimiter listings (the folder illusion clouds give users), ETags,
// and multipart upload whose completion is one atomic Týr transaction.
//
// Key mapping (flat, like the blob store itself):
//   object data      -> "s3!<bucket>!o!<key>"
//   object metadata  -> "s3!<bucket>!m!<key>"       (etag, user metadata)
//   bucket marker    -> "s3!<bucket>"
//   multipart part   -> "s3!<bucket>!u!<upload-id>!<part#>"
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blob/client.hpp"
#include "common/result.hpp"

namespace bsc::gateway {

struct ObjectInfo {
  std::string key;
  std::uint64_t size = 0;
  std::string etag;  ///< content checksum, hex
};

struct ListResult {
  std::vector<ObjectInfo> objects;          ///< keys at this level
  std::vector<std::string> common_prefixes; ///< "folders" when delimiter used
  bool truncated = false;
  std::string next_continuation;            ///< pass back to continue listing
};

struct PutOptions {
  std::map<std::string, std::string> user_metadata;  ///< x-amz-meta-*
};

class S3Gateway {
 public:
  explicit S3Gateway(blob::BlobStore& store) : store_(&store) {}

  // --- buckets ---
  Status create_bucket(sim::SimAgent& agent, std::string_view bucket);
  Status delete_bucket(sim::SimAgent& agent, std::string_view bucket);  ///< must be empty
  [[nodiscard]] bool bucket_exists(sim::SimAgent& agent, std::string_view bucket);
  Result<std::vector<std::string>> list_buckets(sim::SimAgent& agent);

  // --- objects ---
  /// Objects are written by one transaction, which stays inside chunk 0 of
  /// the blob store: an object (or an assembled multipart upload) larger
  /// than StoreConfig::chunk_bytes is refused with Errc::invalid_argument.
  Status put_object(sim::SimAgent& agent, std::string_view bucket, std::string_view key,
                    ByteView data, const PutOptions& opts = {});
  Result<Bytes> get_object(sim::SimAgent& agent, std::string_view bucket,
                           std::string_view key);
  /// Ranged GET: bytes [first, last] inclusive (HTTP Range semantics).
  Result<Bytes> get_object_range(sim::SimAgent& agent, std::string_view bucket,
                                 std::string_view key, std::uint64_t first,
                                 std::uint64_t last);
  Result<ObjectInfo> head_object(sim::SimAgent& agent, std::string_view bucket,
                                 std::string_view key);
  Result<std::string> object_metadata(sim::SimAgent& agent, std::string_view bucket,
                                      std::string_view key, std::string_view name);
  Status delete_object(sim::SimAgent& agent, std::string_view bucket,
                       std::string_view key);
  Status copy_object(sim::SimAgent& agent, std::string_view src_bucket,
                     std::string_view src_key, std::string_view dst_bucket,
                     std::string_view dst_key);

  /// ListObjectsV2: prefix filter, optional '/'-style delimiter (groups the
  /// remainder into common prefixes), pagination via continuation token.
  Result<ListResult> list_objects(sim::SimAgent& agent, std::string_view bucket,
                                  std::string_view prefix = {},
                                  std::optional<char> delimiter = std::nullopt,
                                  std::uint32_t max_keys = 1000,
                                  std::string_view continuation = {});

  // --- multipart upload ---
  Result<std::string> create_multipart_upload(sim::SimAgent& agent,
                                              std::string_view bucket,
                                              std::string_view key);
  Status upload_part(sim::SimAgent& agent, std::string_view bucket,
                     std::string_view upload_id, std::uint32_t part_number,
                     ByteView data);
  /// Assembles the parts into the final object and deletes them — one
  /// atomic transaction: concurrent readers see the old object or the new,
  /// never a half-assembled one.
  Status complete_multipart_upload(sim::SimAgent& agent, std::string_view bucket,
                                   std::string_view key, std::string_view upload_id,
                                   const std::vector<std::uint32_t>& part_numbers);
  Status abort_multipart_upload(sim::SimAgent& agent, std::string_view bucket,
                                std::string_view upload_id);

  [[nodiscard]] static std::string etag_of(ByteView data);

 private:
  [[nodiscard]] static std::string bucket_key(std::string_view bucket);
  [[nodiscard]] static std::string data_key(std::string_view bucket, std::string_view key);
  [[nodiscard]] static std::string meta_key(std::string_view bucket, std::string_view key);
  [[nodiscard]] static std::string part_key(std::string_view bucket,
                                            std::string_view upload_id,
                                            std::uint32_t part);
  [[nodiscard]] static Bytes encode_meta(std::string_view etag,
                                         const std::map<std::string, std::string>& user);
  static Status decode_meta(ByteView data, std::string* etag,
                            std::map<std::string, std::string>* user);

  blob::BlobStore* store_;
  std::atomic<std::uint64_t> upload_seq_{1};
};

}  // namespace bsc::gateway
