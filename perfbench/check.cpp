#include "check.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTagBytes = 16;

struct Tag {
  std::uint32_t object;
  std::uint32_t range;
  std::uint64_t variant;
};
static_assert(sizeof(Tag) == kTagBytes);

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t range_bytes, std::size_t bodies)
    : range_bytes_(range_bytes) {
  bsc::Rng rng(seed);
  bodies_.resize(bodies);
  for (auto& b : bodies_) {
    b.resize(range_bytes);
    for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(b.data() + i, &v, 8);
    }
  }
}

const std::byte* PayloadPool::body(std::uint32_t object, std::uint32_t range,
                                   std::uint64_t variant) const noexcept {
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(object) << 32 | range) ^ mix(variant + 1));
  return bodies_[h % bodies_.size()].data();
}

void PayloadPool::fill(bsc::MutableByteView dst, std::uint32_t object,
                       std::uint64_t variant) const {
  for (std::size_t off = 0, r = 0; off < dst.size(); off += range_bytes_, ++r) {
    const std::size_t len = std::min(range_bytes_, dst.size() - off);
    const auto range = static_cast<std::uint32_t>(r);
    const Tag tag{object, range, variant};
    const std::size_t tag_len = std::min(kTagBytes, len);
    std::memcpy(dst.data() + off, &tag, tag_len);
    if (len > tag_len) {
      std::memcpy(dst.data() + off + tag_len, body(object, range, variant) + tag_len,
                  len - tag_len);
    }
  }
}

bool PayloadPool::range_matches(bsc::ByteView got, std::uint32_t object,
                                std::uint32_t range, std::uint64_t variant) const {
  const Tag tag{object, range, variant};
  const std::size_t tag_len = std::min(kTagBytes, got.size());
  if (std::memcmp(got.data(), &tag, tag_len) != 0) return false;
  return got.size() == tag_len ||
         std::memcmp(got.data() + tag_len, body(object, range, variant) + tag_len,
                     got.size() - tag_len) == 0;
}

CheckResult check_exact(const PayloadPool& pool, bsc::ByteView got, std::uint32_t object,
                        std::uint64_t variant, std::size_t size) {
  if (got.size() != size) {
    return {false, "object " + std::to_string(object) + ": read " +
                       std::to_string(got.size()) + " bytes, expected " +
                       std::to_string(size)};
  }
  const std::size_t step = pool.range_bytes();
  for (std::size_t off = 0, r = 0; off < size; off += step, ++r) {
    const auto view = got.subspan(off, std::min(step, size - off));
    if (!pool.range_matches(view, object, static_cast<std::uint32_t>(r), variant)) {
      return {false, "object " + std::to_string(object) + " range " + std::to_string(r) +
                         ": not variant " + std::to_string(variant)};
    }
  }
  return {};
}

CheckResult check_any_variant(const PayloadPool& pool, bsc::ByteView got,
                              std::uint32_t object, std::uint64_t max_variant,
                              std::size_t size) {
  if (got.size() != size) {
    return {false, "object " + std::to_string(object) + ": read " +
                       std::to_string(got.size()) + " bytes, expected " +
                       std::to_string(size)};
  }
  const std::size_t step = pool.range_bytes();
  for (std::size_t off = 0, r = 0; off < size; off += step, ++r) {
    const auto view = got.subspan(off, std::min(step, size - off));
    // The tag names the variant the range claims to be; the body proves it.
    Tag tag{};
    std::memcpy(&tag, view.data(), std::min(kTagBytes, view.size()));
    const auto range = static_cast<std::uint32_t>(r);
    if (tag.variant > max_variant ||
        !pool.range_matches(view, object, range, tag.variant)) {
      return {false, "object " + std::to_string(object) + " range " + std::to_string(r) +
                         ": matches no written variant"};
    }
  }
  return {};
}

}  // namespace perfbench
