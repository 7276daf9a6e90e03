#pragma once
// Benchmark-specific arithmetic on top of pipetune::util's percentile,
// median and mean. Everything here is a pure function of its inputs so the
// arithmetic is unit-tested on its own (tests/perfbench_test.cpp).

#include <cstdint>
#include <string_view>
#include <vector>

#include "pipetune/util/stats.hpp"

namespace perfbench {

using pipetune::util::mean;
using pipetune::util::median;
using pipetune::util::percentile;

/// Mean of the last tenth of a latency sequence over the mean of its first
/// tenth (at least one sample each): how much slower the late jobs of a pass
/// ran than its early ones.
double late_over_early(const std::vector<double>& latencies);

/// Position by position median of equally long sequences (truncated to the
/// shortest): the typical pass of several passes of the same traffic, robust
/// to a noise burst in any one of them.
std::vector<double> positional_median(const std::vector<std::vector<double>>& sequences);

/// Offered rate at which a tail latency crosses `limit`, interpolated
/// geometrically between fixed rate points (`rates` ascending, `tail[i]` the
/// tail latency measured at rates[i]; values above `cap`, infinities
/// included, count as `cap`). All points within the limit: the highest rate.
/// None: the lowest rate scaled by limit / tail[0]. Never 0 for positive
/// inputs.
double crossing_rate(const std::vector<double>& rates, const std::vector<double>& tail,
                     double limit, double cap);

/// How late an open-loop generator sent each request: sent - due, in ms,
/// clamped at 0 (a request sent early is on time).
std::vector<double> lateness_ms(const std::vector<double>& due_s,
                                const std::vector<double>& sent_s);

/// 64-bit FNV-1a, chainable through `seed`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace perfbench
