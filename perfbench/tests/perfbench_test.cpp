// The benchmark's own tests: order statistics and lateness arithmetic, the
// TimingBackend decorator's accounting, the rates BENCHMARK.json records,
// and the wire driver's accounting on a tiny run against a live in-process
// daemon.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "daemon.hpp"
#include "pipetune/net/protocol.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "timing_backend.hpp"
#include "wire_driver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pt = pipetune;
using pt::util::Json;

TEST(Stats, PositionalMedianIsTheTypicalPass) {
    const auto typical = positional_median({{1, 10, 100}, {3, 30, 300, 7}, {2, 20, 200}});
    ASSERT_EQ(typical.size(), 3u);  // truncated to the shortest pass
    EXPECT_DOUBLE_EQ(typical[0], 2.0);
    EXPECT_DOUBLE_EQ(typical[1], 20.0);
    EXPECT_DOUBLE_EQ(typical[2], 200.0);
    EXPECT_TRUE(positional_median({}).empty());
}

TEST(Stats, CrossingRateInterpolatesBetweenRates) {
    const std::vector<double> rates = {10, 20, 40, 80};
    // Every point within the limit: the highest rate.
    EXPECT_DOUBLE_EQ(crossing_rate(rates, {0.01, 0.02, 0.05, 0.1}, 0.25, 2.5), 80.0);
    // Crossing between 20 and 40: geometric in rate, logarithmic in latency.
    const double at = crossing_rate(rates, {0.01, 0.025, 2.5, 2.5}, 0.25, 2.5);
    EXPECT_NEAR(at, 20.0 * std::pow(2.0, 0.5), 1e-9);
    // Infinite tails count as the cap, so the answer stays finite.
    EXPECT_NEAR(crossing_rate(rates, {0.01, 0.025, INFINITY, INFINITY}, 0.25, 2.5), at, 1e-9);
    // A tail exactly at the limit passes.
    EXPECT_DOUBLE_EQ(crossing_rate(rates, {0.01, 0.02, 0.25, 2.5}, 0.25, 2.5), 40.0);
    // No point within the limit: below the lowest rate, never 0.
    EXPECT_DOUBLE_EQ(crossing_rate(rates, {0.5, 1, 2, 2.5}, 0.25, 2.5), 5.0);
    EXPECT_THROW(crossing_rate(rates, {0.1}, 0.25, 2.5), std::invalid_argument);
}

TEST(Stats, LateOverEarlyComparesTenths) {
    std::vector<double> latencies(20, 2.0);
    latencies[0] = latencies[1] = 1.0;
    latencies[18] = latencies[19] = 3.0;
    EXPECT_DOUBLE_EQ(late_over_early(latencies), 3.0);
    // Fewer than ten samples: one sample at each end.
    EXPECT_DOUBLE_EQ(late_over_early({2.0, 5.0, 8.0}), 4.0);
    EXPECT_THROW(late_over_early({}), std::invalid_argument);
}

TEST(Stats, LatenessClampsEarlySends) {
    const auto late = lateness_ms({1.0, 2.0, 3.0}, {1.0005, 1.9, 3.25});
    ASSERT_EQ(late.size(), 3u);
    EXPECT_NEAR(late[0], 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(late[1], 0.0);
    EXPECT_NEAR(late[2], 250.0, 1e-9);
    EXPECT_THROW(lateness_ms({1.0}, {}), std::invalid_argument);
}

TEST(Stats, Fnv1aChains) {
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("b", fnv1a("a")), fnv1a("ab"));
}

// A backend whose calls take a known minimum time.
class SleepySession final : public pt::workload::TrialSession {
public:
    SleepySession(const pt::workload::Workload& w, pt::workload::HyperParams h) : w_(w), h_(h) {}
    pt::workload::EpochResult run_epoch(const pt::workload::SystemParams&) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        pt::workload::EpochResult result;
        result.epoch = ++epochs_;
        result.accuracy = 42.0;
        return result;
    }
    std::size_t epochs_done() const override { return epochs_; }
    const pt::workload::Workload& workload() const override { return w_; }
    const pt::workload::HyperParams& hyperparams() const override { return h_; }

private:
    pt::workload::Workload w_;
    pt::workload::HyperParams h_;
    std::size_t epochs_ = 0;
};

class SleepyBackend final : public pt::workload::Backend {
public:
    std::unique_ptr<pt::workload::TrialSession> start_trial(
        const pt::workload::Workload& w, const pt::workload::HyperParams& h) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::make_unique<SleepySession>(w, h);
    }
    std::string name() const override { return "sleepy"; }
};

TEST(TimingBackend, CountsAndTimesEveryCall) {
    SleepyBackend inner;
    TimingBackend timing(inner);
    EXPECT_EQ(timing.name(), "sleepy");
    const auto& workload = pt::workload::find_workload("lenet-mnist");
    for (int t = 0; t < 3; ++t) {
        auto session = timing.start_trial(workload, {});
        EXPECT_EQ(session->workload().name, "lenet-mnist");
        for (int e = 1; e <= 2; ++e) {
            const auto result = session->run_epoch({});
            EXPECT_EQ(result.epoch, static_cast<std::size_t>(e));  // passed through unchanged
            EXPECT_DOUBLE_EQ(result.accuracy, 42.0);
        }
        EXPECT_EQ(session->epochs_done(), 2u);
    }
    const auto samples = timing.samples();
    ASSERT_EQ(samples.start_trial_s.size(), 3u);
    ASSERT_EQ(samples.epoch_s.size(), 6u);
    for (double s : samples.start_trial_s) EXPECT_GE(s, 0.001);
    for (double s : samples.epoch_s) EXPECT_GE(s, 0.002);
    EXPECT_GE(samples.total_s(), 3 * 0.001 + 6 * 0.002);
}

TEST(GemmShapes, FollowTheRealBackendModels) {
    const auto lenet = lenet_batch_gemms(16);
    ASSERT_FALSE(lenet.empty());
    // conv1 on a 20x20 image: 6 filters over 5x5 patches at 16x16 positions, per sample.
    EXPECT_EQ(lenet[0].m, 6u);
    EXPECT_EQ(lenet[0].k, 25u);
    EXPECT_EQ(lenet[0].n, 256u);
    EXPECT_EQ(lenet[0].repeat, 16u);
    const auto lstm = lstm_batch_gemms(16);
    ASSERT_FALSE(lstm.empty());
    EXPECT_EQ(lstm[0].repeat, 16u);  // one input projection per time step
    EXPECT_EQ(lstm[0].n, 128u);      // four gates of 32 hidden units
}

TEST(BenchmarkJson, RecordsTheOpenLoopRates) {
    // The offered rates are fixed numbers written in BENCHMARK.json, so the
    // parent commit and a change are offered the same load.
    const Json bench = Json::load_file(std::string(PERFBENCH_SOURCE_ROOT) + "/BENCHMARK.json");
    std::string rates;
    const auto& values = open_loop_rates();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) rates += i + 1 == values.size() ? " and " : ", ";
        rates += std::to_string(static_cast<int>(values[i]));
    }
    bool found = false;
    for (const Json& workload : bench.at("workloads").as_array()) {
        if (workload.at("name").as_string() != "serve-open-loop") continue;
        found = true;
        EXPECT_NE(workload.at("why").as_string().find(rates + " jobs/s"), std::string::npos)
            << "BENCHMARK.json does not state the rates " << rates;
    }
    EXPECT_TRUE(found);
    for (const Json& workload : bench.at("workloads").as_array()) {
        const auto& names = workload_names();
        EXPECT_NE(std::find(names.begin(), names.end(), workload.at("name").as_string()),
                  names.end());
    }
}

PlannedRequest request(const char* method, std::size_t connection, double due_s,
                       bool closed_loop = false, Json params = Json::object()) {
    PlannedRequest out;
    out.method = method;
    out.params = std::move(params);
    out.connection = connection;
    out.due_s = due_s;
    out.closed_loop = closed_loop;
    return out;
}

Json small_job(const char* workload, int seed) {
    Json params = Json::object();
    params["workload"] = workload;
    params["seed"] = seed;
    params["hyperband_resource"] = 3;
    params["final_epochs"] = 3;
    return params;
}

TEST(WireDriver, AccountsForEveryRequestOfATinyRun) {
    DaemonOptions options;
    options.workers = 1;
    options.trace = true;
    Daemon daemon(options);
    WireDriver driver(daemon.port(), 2);
    ASSERT_EQ(driver.connections(), 2u);

    std::vector<PlannedRequest> plan;
    for (int i = 0; i < 3; ++i)
        plan.push_back(request("submit", 0, 0.0, true, small_job("lenet-mnist", i + 1)));
    plan.push_back(request("submit", 0, 0.0, true, small_job("no-such-workload", 9)));
    plan.push_back(request("stats", 1, 0.0));
    plan.push_back(request("ping", 1, 0.001));
    plan.push_back(request("stats", 1, 3600.0));  // due after the closed loop ends

    const PhaseReport report = driver.run(plan, 30.0);
    ASSERT_EQ(report.outcomes.size(), plan.size());
    EXPECT_EQ(report.stray_frames, 0u);
    for (int i = 0; i < 3; ++i) {
        const RequestOutcome& out = report.outcomes[i];
        EXPECT_TRUE(out.sent);
        EXPECT_EQ(out.status, pt::net::status::kOk);
        EXPECT_DOUBLE_EQ(out.due_s, out.sent_s);  // closed loop: timed from send
        EXPECT_GE(out.latency_s(), 0.0);
        if (i > 0) {
            EXPECT_GE(out.sent_s, report.outcomes[i - 1].done_s);  // one in flight
        }
        EXPECT_TRUE(out.result.at("result").is_object());
    }
    EXPECT_EQ(report.outcomes[3].status, pt::net::status::kNotFound);
    for (int i = 4; i < 6; ++i) {
        EXPECT_TRUE(report.outcomes[i].answered());
        EXPECT_EQ(report.outcomes[i].status, pt::net::status::kOk);
        EXPECT_GE(report.outcomes[i].sent_s, report.outcomes[i].due_s);  // never early
    }
    EXPECT_FALSE(report.outcomes[6].sent);  // due after the closed loop ended
    EXPECT_GE(report.elapsed_s, report.outcomes[3].done_s);

    // The daemon's own accounting agrees with the client's.
    const auto counters = daemon.server().counters();
    EXPECT_EQ(counters.jobs_completed, 3u);
    EXPECT_EQ(counters.requests, 6u);
    // The timing decorator saw the trials the jobs ran.
    EXPECT_GT(daemon.timing()->samples().epoch_s.size(), 0u);
}

TEST(WireDriver, OpenLoopSendsOnScheduleAndTimesFromDue) {
    DaemonOptions options;
    options.workers = 2;
    Daemon daemon(options);
    WireDriver driver(daemon.port(), 1);
    std::vector<PlannedRequest> plan;
    for (int i = 0; i < 5; ++i)
        plan.push_back(request("ping", 0, 0.02 * i));
    const PhaseReport report = driver.run(plan, 10.0);
    for (int i = 0; i < 5; ++i) {
        const RequestOutcome& out = report.outcomes[i];
        EXPECT_TRUE(out.answered());
        EXPECT_DOUBLE_EQ(out.due_s, 0.02 * i);
        EXPECT_GE(out.sent_s, out.due_s);
        EXPECT_GE(out.latency_s(), out.done_s - out.sent_s);
    }
    EXPECT_GE(report.elapsed_s, 0.08);
}

}  // namespace
}  // namespace perfbench
