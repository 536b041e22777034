// Unit tests for src/common: results, bytes, hashing, RNG, stats, strings,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace bsc {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok_r(42);
  EXPECT_TRUE(ok_r.ok());
  EXPECT_EQ(ok_r.value(), 42);
  EXPECT_EQ(ok_r.code(), Errc::ok);

  Result<int> err_r(Errc::not_found, "missing");
  EXPECT_FALSE(err_r.ok());
  EXPECT_EQ(err_r.code(), Errc::not_found);
  EXPECT_EQ(err_r.error().message(), "not_found: missing");
  EXPECT_EQ(err_r.value_or(7), 7);
}

TEST(Result, StatusDefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "ok");
  Status e{Errc::busy, "locked"};
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), Errc::busy);
}

TEST(Result, EveryErrcHasName) {
  for (int i = 0; i <= static_cast<int>(Errc::timeout); ++i) {
    EXPECT_NE(to_string(static_cast<Errc>(i)), "unknown");
  }
}

TEST(Bytes, WriteAtGrowsAndZeroFills) {
  Bytes b;
  write_at(b, 4, as_view(to_bytes("xy")));
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], std::byte{0});
  EXPECT_EQ(b[3], std::byte{0});
  EXPECT_EQ(to_string(subview(as_view(b), 4, 2)), "xy");
}

TEST(Bytes, SubviewClipsAtEnd) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(to_string(subview(as_view(b), 3, 10)), "lo");
  EXPECT_TRUE(subview(as_view(b), 9, 2).empty());
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_EQ(fnv1a64(as_view(to_bytes("abc"))), fnv1a64("abc"));
}

TEST(Hash, ChecksumDetectsSizeAndContent) {
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("aaab");
  const Bytes c = to_bytes("aaa");
  EXPECT_NE(content_checksum(as_view(a)), content_checksum(as_view(b)));
  EXPECT_NE(content_checksum(as_view(a)), content_checksum(as_view(c)));
}

// content_checksum and fnv1a64 values are persisted (WAL, checkpoints) or
// decide placement (ring), so their outputs are a format: these literals were
// recorded from the released algorithm and must never change.
TEST(Hash, GoldenValuesAreStable) {
  const Bytes empty;
  const Bytes seven = to_bytes("abcdefg");  // tail loop only
  Bytes b32(32);
  for (std::size_t i = 0; i < b32.size(); ++i) b32[i] = static_cast<std::byte>(i);
  Bytes big(64 * 1024 + 3);  // full lanes plus a 3-byte tail
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(mix64(0x5eedULL + i));
  }

  EXPECT_EQ(content_checksum(as_view(empty)), 0xf771153c8f83af5aULL);
  EXPECT_EQ(content_checksum(as_view(seven)), 0xdbb380ac335119d7ULL);
  EXPECT_EQ(content_checksum(as_view(b32)), 0x6babebbf86bb494aULL);
  EXPECT_EQ(content_checksum(as_view(big)), 0x2077ed522eaabfe1ULL);

  EXPECT_EQ(fnv1a64(as_view(empty)), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(as_view(seven)), 0x406e475017aa7737ULL);
  EXPECT_EQ(fnv1a64(as_view(b32)), 0xe6cb594c1a148ac5ULL);
  EXPECT_EQ(fnv1a64(as_view(big)), 0x470ecd5adaf7954fULL);
  EXPECT_EQ(fnv1a64(std::string_view{"blob/key-0"}), 0xbb18a94a9af5be13ULL);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextInInclusive) {
  Rng r(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng r(4);
  Zipf z(1000, 0.99);
  std::uint64_t low = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const auto v = z.sample(r);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // With theta=0.99 the head is heavily favored over uniform (1%).
  EXPECT_GT(low, kSamples / 10);
}

TEST(Payload, DeterministicAndOffsetConsistent) {
  const Bytes whole = make_payload(9, 0, 256);
  const Bytes tail = make_payload(9, 100, 156);
  EXPECT_TRUE(equal(subview(as_view(whole), 100, 156), as_view(tail)));
  EXPECT_TRUE(check_payload(9, 100, as_view(tail)));
  EXPECT_FALSE(check_payload(10, 100, as_view(tail)));
}

// The payload stream is what staged inputs and app writes are made of, and
// the census and fig3 experiments compare those bytes across runs: these
// literals were recorded from the released generator and must never change.
TEST(Payload, GoldenStreamIsStable) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t off;
    std::size_t len;
    std::uint64_t checksum;
  };
  const Case cases[] = {
      // lengths 0-7 at an unaligned offset (5..7 cross a word boundary)
      {0x5eed, 3, 0, 0xf771153c8f83af5aULL},
      {0x5eed, 3, 1, 0x3866f5e86114b8e0ULL},
      {0x5eed, 3, 2, 0x5288ac59d05366dfULL},
      {0x5eed, 3, 3, 0x91af7626f83abd4bULL},
      {0x5eed, 3, 4, 0x5acc44b4457b06e7ULL},
      {0x5eed, 3, 5, 0x8506cd3fd4d9a9b4ULL},
      {0x5eed, 3, 6, 0x348bb8665d4bfe35ULL},
      {0x5eed, 3, 7, 0xc9cb0f7b070da79aULL},
      // lengths 1-7 at an aligned offset
      {0x5eed, 8, 1, 0x33abb9ce4e326ca4ULL},
      {0x5eed, 8, 7, 0xd757d81e843e24acULL},
      // head, whole words and tail
      {9, 6, 4, 0x86c767efb2f38c96ULL},
      {9, 7, 10, 0xa064b2051cf334a7ULL},
      {9, 13, 27, 0x92748e3846b1b202ULL},
      {9, 1, 69, 0xba5634aacef9fc3cULL},
      {0xC0FFEE, (1ULL << 40) + 5, 100, 0xa806c00f46066654ULL},
      // 1 MiB, aligned and unaligned
      {42, 0, 1 << 20, 0xbe533912059eb759ULL},
      {42, 12345, 1 << 20, 0x964a42cb1e6a01adULL},
  };
  for (const Case& c : cases) {
    const Bytes p = make_payload(c.seed, c.off, c.len);
    ASSERT_EQ(p.size(), c.len);
    EXPECT_EQ(content_checksum(as_view(p)), c.checksum)
        << "seed=" << c.seed << " off=" << c.off << " len=" << c.len;
    EXPECT_TRUE(check_payload(c.seed, c.off, as_view(p)));
  }
}

TEST(Payload, CheckRejectsOneFlippedByte) {
  // [5, 45): a 3-byte head (5..7), four whole words (8..39), a 5-byte tail.
  const Bytes good = make_payload(11, 5, 40);
  ASSERT_TRUE(check_payload(11, 5, as_view(good)));
  for (std::size_t at : {std::size_t{1}, std::size_t{10}, std::size_t{38}}) {
    Bytes bad = good;
    bad[at] ^= std::byte{0x01};
    EXPECT_FALSE(check_payload(11, 5, as_view(bad))) << "flipped index " << at;
  }
}

TEST(Zipf, GoldenSamplesAreStable) {
  // 64 samples per exponent, packed little-endian and checksummed.
  auto samples = [](double theta) {
    Rng r(17);
    Zipf z(4096, theta);
    Bytes out(64 * 8);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t v = z.sample(r);
      for (std::size_t b = 0; b < 8; ++b) out[i * 8 + b] = static_cast<std::byte>(v >> (8 * b));
    }
    return content_checksum(as_view(out));
  };
  EXPECT_EQ(samples(0.9), 0xa3fffe2786e93239ULL);
  EXPECT_EQ(samples(0.99), 0x7020385476643551ULL);
}

TEST(Stats, SummaryMergeMatchesSingle) {
  StatSummary a;
  StatSummary b;
  StatSummary whole;
  Rng r(5);
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_double() * 10;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Stats, HistogramPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed: percentiles are approximate within a bucket factor (~2x).
  EXPECT_GE(h.percentile(50), 400u);
  EXPECT_LE(h.percentile(50), 1024u);
  EXPECT_LE(h.percentile(100), 1000u);
  EXPECT_GE(h.percentile(99), 900u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(Stats, HistogramMerge) {
  Histogram a;
  Histogram b;
  a.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.percentile(100), 1000u);
}

TEST(Stats, HistogramPercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.percentile(0), 0u);  // empty histogram: all percentiles 0
  EXPECT_EQ(h.percentile(100), 0u);

  h.add(100);
  // Single sample: every percentile must report that sample (bucket bound
  // clamped to the true max). The rank-0 bug made percentile(0) report
  // bucket 0's bound — i.e. 0 — for any distribution without zeros.
  EXPECT_EQ(h.percentile(0), 100u);
  EXPECT_EQ(h.percentile(50), 100u);
  EXPECT_EQ(h.percentile(100), 100u);
}

TEST(Stats, HistogramPercentileZeroSkipsEmptyBuckets) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  // p=0 walks to the first non-empty bucket: the minimum lives in bucket 1
  // (exact bucket for value 1), never in the untouched zero bucket.
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 1000u);  // clamped to the true max
}

TEST(Stats, HistogramMergeDisjointShards) {
  // Two shards with disjoint value ranges (the sharded-histogram case:
  // per-thread shards merged on read-out) must merge into exactly the
  // distribution a single histogram would have seen.
  Histogram lo;
  Histogram hi;
  Histogram whole;
  double lo_sum = 0.0;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    lo.add(v);
    whole.add(v);
    lo_sum += static_cast<double>(v);
  }
  for (std::uint64_t v = 10'000; v <= 10'100; ++v) {
    hi.add(v);
    whole.add(v);
    lo_sum += static_cast<double>(v);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_DOUBLE_EQ(lo.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(lo.mean() * static_cast<double>(lo.count()), lo_sum);
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(lo.percentile(p), whole.percentile(p)) << "p=" << p;
  }
  EXPECT_EQ(lo.percentile(100), 10'100u);  // max carried across the merge
}

TEST(Stats, HistogramSubtractIsolatesInterval) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  const Histogram earlier = h;  // point-in-time snapshot
  for (int i = 0; i < 50; ++i) h.add(1000);
  Histogram delta = h;
  delta.subtract(earlier);
  EXPECT_EQ(delta.count(), 50u);
  EXPECT_DOUBLE_EQ(delta.mean(), 1000.0);
  // All interval samples were 1000: p50 is 1000's bucket bound clamped to
  // the cumulative max.
  EXPECT_EQ(delta.percentile(50), 1000u);
}

TEST(Strings, CsvFieldQuoting) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_field("cr\rhere"), "\"cr\rhere\"");
}

TEST(Strings, NormalizePath) {
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("//a//b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b/../c"), "/a/c");
  EXPECT_EQ(normalize_path("/../a"), "/a");
}

TEST(Strings, ParentAndBase) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
  EXPECT_EQ(base_name("/"), "");
}

TEST(Strings, JoinPath) {
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "/b/c"), "/a/b/c");
  EXPECT_EQ(join_path("/", "x"), "/x");
}

TEST(Strings, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ','), "a,b,,c");
}

TEST(Strings, FormatBytesMatchesTableStyle) {
  EXPECT_EQ(format_bytes(27ULL * GiB + 700 * MiB + 100 * MiB), "27.8 GB");
  EXPECT_EQ(format_bytes(12 * MiB + 800 * KiB), "12.8 MB");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] {});
  f.get();
  SUCCEED();
}

}  // namespace
}  // namespace bsc
