// Hashing primitives used by the blob placement ring, block maps, and
// deterministic payload generation/verification.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace bsc {

/// FNV-1a 64-bit — stable, endian-independent; used for key → ring placement,
/// engine shard selection and page-cache keys. Ring placement decides which
/// servers hold a key, so a different value would strand every stored blob:
/// the output is pinned by golden values in test_common.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;
[[nodiscard]] std::uint64_t fnv1a64(ByteView data) noexcept;

/// 64-bit avalanche mixer (splitmix64 finalizer). Used to derive independent
/// hash streams (e.g., replica ranks on the ring) from one base hash.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two 64-bit hashes (boost-style).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// Content checksum for integrity verification. Word-wide multi-lane FNV
/// folded through mix64; clients compute it once per write payload and every
/// replica stores the shipped value, so throughput still matters.
/// The value is persisted and compared across process runs: WAL record
/// headers, checkpoint runs and checkpoint trailers store it and recovery
/// verifies against it, and the S3 gateway derives ETags from it. The
/// algorithm is therefore a stable on-disk format — changing it orphans
/// every existing WAL and checkpoint. Golden values in test_common pin it.
[[nodiscard]] std::uint64_t content_checksum(ByteView data) noexcept;

}  // namespace bsc
