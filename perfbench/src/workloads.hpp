#pragma once
// The benchmark workloads (README.md explains why each exists) and the
// result every run reports.

#include <cstdint>
#include <string>
#include <vector>

#include "pipetune/util/json.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measuring time; passes repeat until it is used
    bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
    std::string scratch_dir;  ///< state dirs, journals and saved snapshots go here
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    std::vector<std::string> check_failures;  ///< empty = every output check passed
    std::size_t attempted = 0;  ///< requests sent
    std::size_t failed = 0;     ///< requests answered neither 200 nor 429/503
    std::vector<Metric> metrics;
    pipetune::util::Json detail = pipetune::util::Json::object();  ///< per-pass facts

    bool correct() const { return check_failures.empty(); }
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& config);

/// Open-loop rates of serve-open-loop in jobs/s (both submitting tenants
/// together), lowest first; BENCHMARK.json records the same numbers.
const std::vector<double>& open_loop_rates();

}  // namespace perfbench
