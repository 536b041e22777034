#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"

namespace bsc {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 expansion of the seed into the xoshiro state; guarantees a
  // non-zero state for every seed including 0.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    s = mix64(x);
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return next_double() < p; }

double Rng::next_exponential(double mean) noexcept {
  double u = next_double();
  if (u >= 1.0) u = 0.9999999999;
  return -mean * std::log1p(-u);
}

Rng Rng::fork() noexcept { return Rng(mix64(next())); }

Zipf::Zipf(std::uint64_t n, double theta) : n_(n ? n : 1), theta_(theta) {
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = 0.0;
  for (std::uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  rank1_cut_ = 1.0 + std::pow(0.5, theta_);
}

std::uint64_t Zipf::sample(Rng& rng) const noexcept {
  // Gray et al. "Quickly generating billion-record synthetic databases".
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_cut_) return 1;
  auto v = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

namespace {

std::uint64_t payload_word(std::uint64_t seed, std::uint64_t word) noexcept {
  return mix64(hash_combine(seed, word));
}

void store_le(std::byte* dst, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, 8);
  } else {
    for (int k = 0; k < 8; ++k) dst[k] = static_cast<std::byte>(v >> (8 * k));
  }
}

std::uint64_t load_le(const std::byte* src) noexcept {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, src, 8);
  } else {
    for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(src[k]) << (8 * k);
  }
  return v;
}

/// Bytes from `offset` up to the next word boundary, capped at `len`.
std::size_t head_len(std::uint64_t offset, std::size_t len) noexcept {
  return std::min<std::size_t>((8 - (offset & 7)) & 7, len);
}

}  // namespace

std::byte payload_byte(std::uint64_t seed, std::uint64_t off) noexcept {
  // Byte k of word off/8, counted from the least significant end.
  return static_cast<std::byte>((payload_word(seed, off >> 3) >> ((off & 7) * 8)) & 0xff);
}

void fill_payload(std::uint64_t seed, std::uint64_t offset, MutableByteView out) noexcept {
  const std::size_t len = out.size();
  std::size_t i = head_len(offset, len);
  for (std::size_t h = 0; h < i; ++h) out[h] = payload_byte(seed, offset + h);
  for (; i + 8 <= len; i += 8) store_le(out.data() + i, payload_word(seed, (offset + i) >> 3));
  for (; i < len; ++i) out[i] = payload_byte(seed, offset + i);
}

Bytes make_payload(std::uint64_t seed, std::uint64_t offset, std::size_t len) {
  Bytes out(len);
  fill_payload(seed, offset, out);
  return out;
}

bool check_payload(std::uint64_t seed, std::uint64_t offset, ByteView data) noexcept {
  const std::size_t len = data.size();
  std::size_t i = head_len(offset, len);
  for (std::size_t h = 0; h < i; ++h) {
    if (data[h] != payload_byte(seed, offset + h)) return false;
  }
  for (; i + 8 <= len; i += 8) {
    if (load_le(data.data() + i) != payload_word(seed, (offset + i) >> 3)) return false;
  }
  for (; i < len; ++i) {
    if (data[i] != payload_byte(seed, offset + i)) return false;
  }
  return true;
}

}  // namespace bsc
