#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double t = std::clamp(p, 0.0, 1.0) * n;  // target mid-rank
  const auto pos = std::min(v.size() - 1, static_cast<std::size_t>(t));
  // Tie block of v[pos] and its mid-rank.
  auto [a, b] = std::equal_range(v.begin(), v.end(), v[pos]);
  const double mid = static_cast<double>((a - v.begin()) + (b - v.begin())) / 2.0;
  if (t >= mid) {
    if (b == v.end()) return v[pos];
    const auto next_end = std::upper_bound(b, v.end(), *b);
    const double next_mid =
        static_cast<double>((b - v.begin()) + (next_end - v.begin())) / 2.0;
    return v[pos] + (t - mid) / (next_mid - mid) * (*b - v[pos]);
  }
  if (a == v.begin()) return v[pos];
  const double prev = *(a - 1);
  const auto prev_begin = std::lower_bound(v.begin(), a, prev);
  const double prev_mid =
      static_cast<double>((prev_begin - v.begin()) + (a - v.begin())) / 2.0;
  return prev + (t - prev_mid) / (mid - prev_mid) * (v[pos] - prev);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
