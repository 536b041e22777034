// Byte-buffer vocabulary types shared by every storage layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bsc {

using Bytes = std::vector<std::byte>;
using ByteView = std::span<const std::byte>;
using MutableByteView = std::span<std::byte>;

inline Bytes to_bytes(std::string_view s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

inline std::string to_string(ByteView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

inline ByteView as_view(const Bytes& b) noexcept { return {b.data(), b.size()}; }

/// An immutable, refcounted payload: `owner` keeps the buffer alive and
/// `view` is its bytes. Nothing writes the buffer after copy_of builds it,
/// so copies share it (one refcount bump, no byte copied) across engines
/// and threads without a lock, and its memory is freed when the last copy
/// lets go.
struct SharedBytes {
  std::shared_ptr<const std::byte[]> owner;
  ByteView view;

  /// A fresh buffer holding a copy of `src`, allocated without zero-filling
  /// first. Empty `src` gives an empty, ownerless value.
  static SharedBytes copy_of(ByteView src) {
    if (src.empty()) return {};
    auto buf = std::make_shared_for_overwrite<std::byte[]>(src.size());
    std::memcpy(buf.get(), src.data(), src.size());
    const ByteView view{buf.get(), src.size()};
    return {std::move(buf), view};
  }

  [[nodiscard]] std::size_t size() const noexcept { return view.size(); }
};

inline ByteView subview(ByteView b, std::size_t offset, std::size_t len) noexcept {
  if (offset >= b.size()) return {};
  return b.subspan(offset, std::min(len, b.size() - offset));
}

inline bool equal(ByteView a, ByteView b) noexcept {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Append `src` to `dst`.
inline void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Write `src` into `dst` at `offset`, growing `dst` (zero-filled) if needed.
/// This is the semantic core of random-access object writes.
inline void write_at(Bytes& dst, std::size_t offset, ByteView src) {
  if (offset + src.size() > dst.size()) dst.resize(offset + src.size());
  if (!src.empty()) std::memcpy(dst.data() + offset, src.data(), src.size());
}

}  // namespace bsc
