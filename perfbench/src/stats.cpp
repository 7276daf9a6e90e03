#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double late_over_early(const std::vector<double>& latencies) {
    if (latencies.empty()) throw std::invalid_argument("late_over_early of an empty sample");
    const std::size_t tenth = std::max<std::size_t>(1, latencies.size() / 10);
    const double early =
        std::accumulate(latencies.begin(), latencies.begin() + static_cast<long>(tenth), 0.0);
    const double late =
        std::accumulate(latencies.end() - static_cast<long>(tenth), latencies.end(), 0.0);
    return late / early;
}

std::vector<double> positional_median(const std::vector<std::vector<double>>& sequences) {
    if (sequences.empty()) return {};
    std::size_t length = sequences.front().size();
    for (const auto& seq : sequences) length = std::min(length, seq.size());
    std::vector<double> out(length);
    for (std::size_t i = 0; i < length; ++i) {
        std::vector<double> column;
        for (const auto& seq : sequences) column.push_back(seq[i]);
        out[i] = median(column);
    }
    return out;
}

double crossing_rate(const std::vector<double>& rates, const std::vector<double>& tail,
                     double limit, double cap) {
    if (rates.empty() || rates.size() != tail.size() || limit <= 0 || cap <= limit)
        throw std::invalid_argument("crossing_rate: need one tail per rate and 0 < limit < cap");
    auto capped = [&](double t) { return std::min(t, cap); };
    if (capped(tail[0]) > limit) return rates[0] * limit / capped(tail[0]);
    for (std::size_t f = 1; f < rates.size(); ++f) {
        if (capped(tail[f]) <= limit) continue;
        const double lo = std::log(tail[f - 1]), hi = std::log(capped(tail[f]));
        const double frac = hi > lo ? (std::log(limit) - lo) / (hi - lo) : 1.0;
        return rates[f - 1] * std::pow(rates[f] / rates[f - 1], frac);
    }
    return rates.back();
}

std::vector<double> lateness_ms(const std::vector<double>& due_s,
                                const std::vector<double>& sent_s) {
    if (due_s.size() != sent_s.size())
        throw std::invalid_argument("lateness_ms: due and sent differ in length");
    std::vector<double> out(due_s.size());
    for (std::size_t i = 0; i < due_s.size(); ++i)
        out[i] = std::max(0.0, sent_s[i] - due_s[i]) * 1e3;
    return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace perfbench
