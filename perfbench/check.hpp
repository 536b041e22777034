// Payload generation and content checking for the blob workloads.
//
// Every payload the benchmark writes is built from a seeded pool of random
// range bodies: range r of variant v of object o starts with a 16-byte tag
// (o, r, v) and continues with a body chosen from the pool by a hash of the
// tag. A reader can therefore tell, from the bytes alone, which variant a
// range claims to be, and confirm the claim with one memcmp against the pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace perfbench {

class PayloadPool {
 public:
  /// `bodies` random buffers of `range_bytes` each, drawn from `seed`.
  PayloadPool(std::uint64_t seed, std::size_t range_bytes, std::size_t bodies);

  [[nodiscard]] std::size_t range_bytes() const noexcept { return range_bytes_; }

  /// Fill `dst` (an object of dst.size() bytes) with variant `variant` of
  /// object `object`, range by range.
  void fill(bsc::MutableByteView dst, std::uint32_t object, std::uint64_t variant) const;

  /// One range's expected bytes: tag + body, `len` bytes long.
  [[nodiscard]] bool range_matches(bsc::ByteView got, std::uint32_t object,
                                   std::uint32_t range, std::uint64_t variant) const;

 private:
  [[nodiscard]] const std::byte* body(std::uint32_t object, std::uint32_t range,
                                      std::uint64_t variant) const noexcept;

  std::size_t range_bytes_;
  std::vector<bsc::Bytes> bodies_;
};

/// What a content check found. `ok` is false on the first mismatching range,
/// and `detail` says which one and why.
struct CheckResult {
  bool ok = true;
  std::string detail;
};

/// Exact check: `got` must be variant `variant` of `object`, `size` bytes.
[[nodiscard]] CheckResult check_exact(const PayloadPool& pool, bsc::ByteView got,
                                      std::uint32_t object, std::uint64_t variant,
                                      std::size_t size);

/// Torn-tolerant check for objects overwritten concurrently by several
/// writers: every range of `got` must equal the same range of one variant in
/// [0, max_variant] of `object`. Ranges may come from different variants.
[[nodiscard]] CheckResult check_any_variant(const PayloadPool& pool, bsc::ByteView got,
                                            std::uint32_t object, std::uint64_t max_variant,
                                            std::size_t size);

}  // namespace perfbench
