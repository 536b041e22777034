// Order statistics for latency samples.
#pragma once

#include <vector>

namespace perfbench {

/// p-quantile (p in [0, 1]) of `v`, which is sorted in place.
///
/// Mid-distribution quantile (Parzen): each distinct value sits at the middle
/// of the rank interval its ties occupy, and the quantile interpolates
/// linearly between neighbouring distinct values. For distinct samples this
/// is the usual interpolated quantile; for integer-valued samples with many
/// ties (simulated microseconds) it moves with the share of samples on each
/// side of a tie instead of sticking to the tied value.
[[nodiscard]] double quantile(std::vector<double>& v, double p);

/// Plain median of a small set of values (copied, not modified).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
