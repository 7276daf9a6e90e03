// pt_perfbench: runs one benchmark workload and prints its result.
//
//   pt_perfbench --workload history-memory --seed 3 --seconds 20 --trace 0
//
// Output: a `host {...}` line, then as the last line one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics when
// --trace 0, per-layer metrics when --trace 1). --detail PATH also writes
// every pass's facts there. Exit code 0 once the result is printed, 1 on
// an error (nothing printed), 2 on bad arguments.

#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "pipetune/tensor/simd.hpp"
#include "pipetune/util/build_info.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/util/logging.hpp"
#include "workloads.hpp"

namespace {

namespace pt = pipetune;
using pt::util::Json;

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

int usage() {
    std::cerr << "usage: pt_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                    [--scratch DIR] [--detail PATH] [--source-id ID]\n"
                 "workloads:";
    for (const auto& name : perfbench::workload_names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig config;
    config.scratch_dir = ".bench_build/scratch";
    std::string detail_path, source_id = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") config.workload = value;
            else if (flag == "--seed") config.seed = std::stoull(value);
            else if (flag == "--seconds") config.seconds = std::stod(value);
            else if (flag == "--trace") config.trace = std::stoi(value) != 0;
            else if (flag == "--scratch") config.scratch_dir = value;
            else if (flag == "--detail") detail_path = value;
            else if (flag == "--source-id") source_id = value;
            else return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    if (config.workload.empty() || config.seconds <= 0) return usage();
    pt::util::set_log_level(pt::util::LogLevel::kError);

    Json host = Json::object();
    host["cpu"] = cpu_model();
    host["cores"] = std::thread::hardware_concurrency();
    host["isa"] = pt::tensor::simd::to_string(pt::tensor::simd::active_isa());
    host["compiler"] = pt::util::compiler_string();
    host["source"] = source_id;
    host["seed"] = config.seed;
    host["workload"] = config.workload;
    host["trace"] = config.trace;

    perfbench::RunResult result;
    try {
        result = perfbench::run_workload(config);
    } catch (const std::invalid_argument& error) {
        std::cerr << "error: " << error.what() << "\n";
        return usage();
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    for (const auto& failure : result.check_failures) std::cerr << "check failed: " << failure << "\n";

    Json metrics = Json::object();
    for (const auto& metric : result.metrics) {
        Json entry = Json::object();
        entry["value"] = metric.value;
        entry["unit"] = metric.unit;
        metrics[metric.name] = std::move(entry);
    }
    if (!detail_path.empty()) {
        Json detail = result.detail;
        detail["host"] = host;
        detail["checks_failed"] = Json::array();
        for (const auto& failure : result.check_failures) detail["checks_failed"].push_back(failure);
        detail["metrics"] = metrics;
        std::ofstream(detail_path) << detail.dump(2) << "\n";
    }

    Json out = Json::object();
    out["correct"] = result.correct();
    out["attempted"] = result.attempted;
    out["failed"] = result.failed;
    out["metrics"] = std::move(metrics);
    std::cout << "host " << host.dump() << "\n" << out.dump() << std::endl;
    return 0;
}
