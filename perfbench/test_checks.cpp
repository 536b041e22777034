// Checks the content checkers: a correct payload passes, and a payload with
// one corrupted byte, a range from the wrong object, or a variant never
// written is rejected. Exits non-zero on the first failed expectation.
#include <cstdio>

#include "check.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

}  // namespace

int main() {
  using perfbench::PayloadPool;
  const std::size_t range = 64 * 1024;
  const std::size_t size = 4 * range + 100;  // last range is short
  PayloadPool pool(42, range, 16);
  bsc::Bytes buf(size);

  pool.fill(buf, 7, 3);
  expect(perfbench::check_exact(pool, buf, 7, 3, size).ok, "exact: written variant passes");
  expect(!perfbench::check_exact(pool, buf, 7, 2, size).ok,
         "exact: another variant is rejected");
  expect(!perfbench::check_exact(pool, buf, 8, 3, size).ok,
         "exact: another object is rejected");
  expect(perfbench::check_any_variant(pool, buf, 7, 3, size).ok,
         "any-variant: written variant passes");
  expect(!perfbench::check_any_variant(pool, buf, 7, 2, size).ok,
         "any-variant: a variant above the issued maximum is rejected");

  // A torn read: range 1 from variant 1, the rest from variant 3.
  bsc::Bytes older(size);
  pool.fill(older, 7, 1);
  std::copy(older.begin() + range, older.begin() + 2 * range, buf.begin() + range);
  expect(perfbench::check_any_variant(pool, buf, 7, 3, size).ok,
         "any-variant: ranges from different written variants pass");
  expect(!perfbench::check_exact(pool, buf, 7, 3, size).ok,
         "exact: a torn read is rejected");

  for (std::size_t at : {std::size_t{5}, range + 17, 3 * range + 40000, size - 1}) {
    pool.fill(buf, 7, 3);
    buf[at] ^= std::byte{0x01};
    expect(!perfbench::check_exact(pool, buf, 7, 3, size).ok,
           "exact: one flipped byte is rejected");
    expect(!perfbench::check_any_variant(pool, buf, 7, 3, size).ok,
           "any-variant: one flipped byte is rejected");
  }

  pool.fill(buf, 7, 3);
  bsc::Bytes shorter(buf.begin(), buf.end() - 1);
  expect(!perfbench::check_exact(pool, shorter, 7, 3, size).ok,
         "exact: a short read is rejected");

  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
