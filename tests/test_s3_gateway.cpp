// Tests for the S3-style gateway over the blob store.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "gateway/s3.hpp"

namespace bsc::gateway {
namespace {

class S3Test : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(s3_.create_bucket(agent_, "data").ok()); }

  sim::Cluster cluster_;
  blob::BlobStore store_{cluster_};
  S3Gateway s3_{store_};
  sim::SimAgent agent_;
};

TEST_F(S3Test, BucketLifecycle) {
  EXPECT_TRUE(s3_.bucket_exists(agent_, "data"));
  EXPECT_FALSE(s3_.bucket_exists(agent_, "nope"));
  EXPECT_EQ(s3_.create_bucket(agent_, "data").code(), Errc::already_exists);
  EXPECT_EQ(s3_.create_bucket(agent_, "bad!name").code(), Errc::invalid_argument);
  ASSERT_TRUE(s3_.create_bucket(agent_, "tmp").ok());
  auto buckets = s3_.list_buckets(agent_);
  ASSERT_TRUE(buckets.ok());
  EXPECT_EQ(buckets.value().size(), 2u);
  ASSERT_TRUE(s3_.delete_bucket(agent_, "tmp").ok());
  EXPECT_EQ(s3_.delete_bucket(agent_, "tmp").code(), Errc::not_found);
}

TEST_F(S3Test, PutGetHeadDelete) {
  const Bytes data = make_payload(1, 0, 100000);
  PutOptions opts;
  opts.user_metadata["x-amz-meta-source"] = "mom-run";
  ASSERT_TRUE(s3_.put_object(agent_, "data", "sim/output.nc", as_view(data), opts).ok());

  auto got = s3_.get_object(agent_, "data", "sim/output.nc");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(equal(as_view(got.value()), as_view(data)));

  auto head = s3_.head_object(agent_, "data", "sim/output.nc");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().size, 100000u);
  EXPECT_EQ(head.value().etag, S3Gateway::etag_of(as_view(data)));
  EXPECT_EQ(s3_.object_metadata(agent_, "data", "sim/output.nc", "x-amz-meta-source")
                .value(),
            "mom-run");

  ASSERT_TRUE(s3_.delete_object(agent_, "data", "sim/output.nc").ok());
  EXPECT_EQ(s3_.get_object(agent_, "data", "sim/output.nc").code(), Errc::not_found);
  EXPECT_EQ(s3_.delete_object(agent_, "data", "sim/output.nc").code(), Errc::not_found);
}

TEST_F(S3Test, PutToMissingBucketFails) {
  EXPECT_EQ(s3_.put_object(agent_, "ghost", "k", as_view(to_bytes("x"))).code(),
            Errc::not_found);
}

TEST_F(S3Test, OverwriteChangesEtagAndShrinks) {
  ASSERT_TRUE(s3_.put_object(agent_, "data", "k", as_view(make_payload(1, 0, 5000))).ok());
  const std::string etag1 = s3_.head_object(agent_, "data", "k").value().etag;
  ASSERT_TRUE(s3_.put_object(agent_, "data", "k", as_view(to_bytes("tiny"))).ok());
  auto head = s3_.head_object(agent_, "data", "k");
  EXPECT_EQ(head.value().size, 4u);
  EXPECT_NE(head.value().etag, etag1);
  EXPECT_EQ(to_string(as_view(s3_.get_object(agent_, "data", "k").value())), "tiny");
}

TEST_F(S3Test, RangedGet) {
  ASSERT_TRUE(s3_.put_object(agent_, "data", "r", as_view(to_bytes("0123456789"))).ok());
  auto mid = s3_.get_object_range(agent_, "data", "r", 3, 6);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(to_string(as_view(mid.value())), "3456");
  EXPECT_EQ(s3_.get_object_range(agent_, "data", "r", 6, 3).code(),
            Errc::invalid_argument);
}

TEST_F(S3Test, ListWithPrefixAndDelimiter) {
  for (const char* k : {"logs/2017/01/a.log", "logs/2017/02/b.log", "logs/2018/c.log",
                        "logs/root.log", "other/x"}) {
    ASSERT_TRUE(s3_.put_object(agent_, "data", k, as_view(to_bytes("x"))).ok());
  }
  // Flat listing under a prefix.
  auto flat = s3_.list_objects(agent_, "data", "logs/");
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value().objects.size(), 4u);
  EXPECT_TRUE(flat.value().common_prefixes.empty());

  // Delimited listing: the "folder" illusion.
  auto delim = s3_.list_objects(agent_, "data", "logs/", '/');
  ASSERT_TRUE(delim.ok());
  ASSERT_EQ(delim.value().objects.size(), 1u);
  EXPECT_EQ(delim.value().objects[0].key, "logs/root.log");
  ASSERT_EQ(delim.value().common_prefixes.size(), 2u);
  EXPECT_EQ(delim.value().common_prefixes[0], "logs/2017/");
  EXPECT_EQ(delim.value().common_prefixes[1], "logs/2018/");

  // Root-level delimited listing.
  auto root = s3_.list_objects(agent_, "data", "", '/');
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root.value().objects.empty());
  EXPECT_EQ(root.value().common_prefixes.size(), 2u);  // logs/, other/
}

TEST_F(S3Test, ListPagination) {
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        s3_.put_object(agent_, "data", strfmt("obj-%03d", i), as_view(to_bytes("x"))).ok());
  }
  std::vector<std::string> collected;
  std::string token;
  for (;;) {
    auto page = s3_.list_objects(agent_, "data", "obj-", std::nullopt, 10, token);
    ASSERT_TRUE(page.ok());
    for (const auto& o : page.value().objects) collected.push_back(o.key);
    if (!page.value().truncated) break;
    token = page.value().next_continuation;
  }
  ASSERT_EQ(collected.size(), 25u);
  EXPECT_TRUE(std::is_sorted(collected.begin(), collected.end()));
}

TEST_F(S3Test, DeleteNonEmptyBucketFails) {
  ASSERT_TRUE(s3_.put_object(agent_, "data", "k", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(s3_.delete_bucket(agent_, "data").code(), Errc::not_empty);
  ASSERT_TRUE(s3_.delete_object(agent_, "data", "k").ok());
  EXPECT_TRUE(s3_.delete_bucket(agent_, "data").ok());
}

TEST_F(S3Test, CopyObject) {
  const Bytes data = make_payload(2, 0, 20000);
  ASSERT_TRUE(s3_.create_bucket(agent_, "backup").ok());
  ASSERT_TRUE(s3_.put_object(agent_, "data", "orig", as_view(data)).ok());
  ASSERT_TRUE(s3_.copy_object(agent_, "data", "orig", "backup", "copy").ok());
  auto got = s3_.get_object(agent_, "backup", "copy");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(equal(as_view(got.value()), as_view(data)));
  EXPECT_EQ(s3_.head_object(agent_, "backup", "copy").value().etag,
            s3_.head_object(agent_, "data", "orig").value().etag);
}

TEST_F(S3Test, MultipartUploadAssemblesInOrder) {
  auto upload = s3_.create_multipart_upload(agent_, "data", "big");
  ASSERT_TRUE(upload.ok());
  const Bytes p1 = make_payload(10, 0, 70000);
  const Bytes p2 = make_payload(11, 0, 50000);
  const Bytes p3 = make_payload(12, 0, 30000);
  // Upload out of order — completion order is what counts.
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 2, as_view(p2)).ok());
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 1, as_view(p1)).ok());
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 3, as_view(p3)).ok());
  ASSERT_TRUE(
      s3_.complete_multipart_upload(agent_, "data", "big", upload.value(), {1, 2, 3}).ok());

  auto got = s3_.get_object(agent_, "data", "big");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 150000u);
  EXPECT_TRUE(equal(subview(as_view(got.value()), 0, 70000), as_view(p1)));
  EXPECT_TRUE(equal(subview(as_view(got.value()), 70000, 50000), as_view(p2)));
  EXPECT_TRUE(equal(subview(as_view(got.value()), 120000, 30000), as_view(p3)));

  // Parts are gone (consumed by the completion transaction).
  blob::BlobClient client(store_, &agent_);
  EXPECT_TRUE(client.scan("s3!data!u!").value().empty());
}

// An object is written by one transaction, which stays inside chunk 0: a
// put larger than chunk_bytes is refused, never acknowledged with bytes
// that read back as zeros.
TEST_F(S3Test, ObjectsPastOneChunkAreRefusedAndAckedPutsReadBack) {
  const std::uint64_t cb = store_.config().chunk_bytes;
  const Bytes big = make_payload(13, 0, 3 * cb);
  EXPECT_EQ(s3_.put_object(agent_, "data", "big", as_view(big)).code(),
            Errc::invalid_argument);
  EXPECT_EQ(s3_.get_object(agent_, "data", "big").code(), Errc::not_found);

  auto upload = s3_.create_multipart_upload(agent_, "data", "parts");
  ASSERT_TRUE(upload.ok());
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 1,
                              subview(as_view(big), 0, cb)).ok());
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 2,
                              subview(as_view(big), cb, 1)).ok());
  EXPECT_EQ(
      s3_.complete_multipart_upload(agent_, "data", "parts", upload.value(), {1, 2}).code(),
      Errc::invalid_argument);
  EXPECT_EQ(s3_.get_object(agent_, "data", "parts").code(), Errc::not_found);

  for (const std::uint64_t len : {cb - 1, cb}) {
    const Bytes data = make_payload(14 + len, 0, len);
    ASSERT_TRUE(s3_.put_object(agent_, "data", "fits", as_view(data)).ok());
    auto got = s3_.get_object(agent_, "data", "fits");
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(equal(as_view(got.value()), as_view(data))) << len;
  }
}

TEST_F(S3Test, MultipartMissingPartFails) {
  auto upload = s3_.create_multipart_upload(agent_, "data", "k");
  ASSERT_TRUE(upload.ok());
  ASSERT_TRUE(s3_.upload_part(agent_, "data", upload.value(), 1,
                              as_view(to_bytes("only"))).ok());
  EXPECT_EQ(
      s3_.complete_multipart_upload(agent_, "data", "k", upload.value(), {1, 2}).code(),
      Errc::not_found);
  // Object was never created; parts still there until abort.
  EXPECT_EQ(s3_.get_object(agent_, "data", "k").code(), Errc::not_found);
  ASSERT_TRUE(s3_.abort_multipart_upload(agent_, "data", upload.value()).ok());
  blob::BlobClient client(store_, &agent_);
  EXPECT_TRUE(client.scan("s3!data!u!").value().empty());
}

TEST_F(S3Test, UploadPartZeroRejected) {
  auto upload = s3_.create_multipart_upload(agent_, "data", "k");
  EXPECT_EQ(s3_.upload_part(agent_, "data", upload.value(), 0, as_view(to_bytes("x")))
                .code(),
            Errc::invalid_argument);
}

TEST_F(S3Test, ConcurrentPutsToDistinctKeys) {
  ThreadPool pool(8);
  pool.parallel_for(8, [&](std::size_t t) {
    sim::SimAgent agent;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(s3_.put_object(agent, "data", strfmt("par/%zu/%d", t, i),
                                 as_view(make_payload(t * 100 + i, 0, 2048)))
                      .ok());
    }
  });
  auto all = s3_.list_objects(agent_, "data", "par/");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().objects.size(), 80u);
}

}  // namespace
}  // namespace bsc::gateway
