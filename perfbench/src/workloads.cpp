#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>

#include "daemon.hpp"
#include "pipetune/net/protocol.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "wire_driver.hpp"

namespace perfbench {

namespace pt = pipetune;
using pt::util::Json;
using Clock = std::chrono::steady_clock;

namespace {

// ---- fixed workload parameters (README.md says why) -------------------------

constexpr std::size_t kHistoryJobs = 120;
constexpr std::size_t kHistoryResource = 27;  // paper-default job: R = 27, 4 slots
constexpr double kClosedLoopCtlRate = 50.0;  // operator requests/s beside a closed loop
constexpr double kOpenLoopCtlRate = 100.0;   // operator requests/s beside the open loop
constexpr double kCtlStartS = 0.25;
constexpr std::size_t kPrewarmJobs = 60;     // serve-open-loop history at each point's start
// capacity_jobs_s: the p90 (the highest percentile with at least 10 samples
// beyond it at every rate) of every submit must stay within 250 ms.
constexpr double kLatencyLimitS = 0.25;
constexpr double kTailPercentile = 90.0;
constexpr double kTailCapS = 10 * kLatencyLimitS;  // a refused submit's latency, for the tail
constexpr double kResponseTimeoutS = 120.0;
constexpr std::size_t kSlots = 4;
const std::vector<double> kOpenLoopRates = {10.0, 20.0, 40.0, 80.0};
/// Short points, repeated sweep after sweep, spread each rate's samples over
/// the whole run. The low rate runs twice as long so its percentiles rest on
/// as many jobs as the mid rate's.
double point_seconds(double rate) { return rate == kOpenLoopRates.front() ? 4.0 : 2.0; }
const char* const kTenantSpec = "alpha=tok-alpha:12,beta=tok-beta:12,ops=tok-ops:1";
struct Tenant {
    const char* name;
    const char* token;
};
constexpr Tenant kSubmitters[] = {{"alpha", "tok-alpha"}, {"beta", "tok-beta"}};
constexpr Tenant kOperator = {"ops", "tok-ops"};

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Bytes the allocator has handed out and not taken back, over all arenas.
/// Unlike resident memory, this does not depend on how freed memory is
/// spread over the arenas of threads that came and went.
double heap_mb() {
    const struct mallinfo2 info = ::mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// ---- traffic ----------------------------------------------------------------

struct JobSpec {
    std::string workload;
    std::uint64_t seed = 1;
    std::size_t resource = 0;  ///< 0 = the daemon's default job
    std::string tenant = pt::net::kAnonymousTenant;
};

/// Jobs first .. first + count - 1 of a round-robin over the workload
/// catalogue. The wire protocol names catalogue workloads only, so no unseen
/// workload is served; only the job seeds depend on --seed.
std::vector<std::string> catalogue_round_robin(std::size_t first, std::size_t count) {
    const auto& catalogue = pt::workload::catalogue();
    std::vector<std::string> names;
    for (std::size_t i = first; i < first + count; ++i)
        names.push_back(catalogue[i % catalogue.size()].name);
    return names;
}

pt::hpt::HptJobConfig job_config(const JobSpec& job) {
    pt::hpt::HptJobConfig config;
    config.seed = job.seed;
    config.parallel_slots = kSlots;
    config.hyperband_resource = job.resource == 0 ? 9 : job.resource;
    config.final_epochs = config.hyperband_resource;
    return config;
}

Json submit_params(const JobSpec& job) {
    Json params = Json::object();
    params["workload"] = job.workload;
    params["seed"] = job.seed;
    params["wait"] = true;
    if (job.resource != 0) {
        params["hyperband_resource"] = job.resource;
        params["final_epochs"] = job.resource;
        params["parallel_slots"] = kSlots;
    }
    return params;
}

/// Operator traffic at a fixed rate from kCtlStartS to end_s: service
/// stats, alternating with the status of job 1 when `with_status` (a serial
/// service lists a job only once it has finished, so closed-loop workloads,
/// whose job 1 may still be running, send stats alone).
void add_operator(std::vector<PlannedRequest>& plan, std::vector<JobSpec>& jobs, double rate,
                  double end_s, std::size_t connection, const std::string& token,
                  bool with_status) {
    std::size_t i = 0;
    for (double due = kCtlStartS; due < end_s; due = kCtlStartS + static_cast<double>(++i) / rate) {
        const bool status = with_status && i % 2 == 0;
        PlannedRequest request;
        request.method = status ? pt::net::method::kStatus : pt::net::method::kStats;
        request.token = token;
        if (status) request.params["job_id"] = 1;
        request.connection = connection;
        request.due_s = due;
        plan.push_back(std::move(request));
        jobs.push_back({});  // not a submit
    }
}

// ---- one pass: a fresh daemon, its set-up, one phase of traffic ------------

struct PassSpec {
    DaemonOptions daemon;
    std::vector<JobSpec> prewarm;      ///< run in-process before any traffic
    std::vector<PlannedRequest> plan;  ///< wire traffic
    std::vector<JobSpec> jobs;         ///< per plan entry; empty workload = operator
    std::size_t connections = 2;
    double rate = 0.0;  ///< offered jobs/s of an open-loop point (0 = closed loop)
};

struct Pass {
    bool traced = false;
    double rate = 0.0;
    double setup_s = 0.0;
    double elapsed_s = 0.0;
    std::size_t workers = 1;
    std::size_t sent = 0, ok = 0, refused = 0, failed = 0;
    std::size_t submits_sent = 0;
    std::vector<double> latency_s;       ///< ok submits, plan order; from due (open) or send
    std::vector<double> send_latency_s;  ///< ok submits; from send
    std::vector<double> prewarm_service_s;  ///< pre-warm jobs' start->finish, in order
    std::vector<double> wire_s;          ///< send latency minus the job's submit->finish
    std::vector<double> queue_wait_s;    ///< wire jobs: start - submit
    double busy_s = 0.0;                 ///< wire jobs: sum of finish - start
    std::size_t backlog_end = 0;
    std::vector<Json> results;           ///< job_result_to_json bodies of ok submits
    double train_samples = 0.0;
    std::vector<double> ctl_latency_s;
    std::vector<double> late_ms;  ///< open-loop send lateness
    std::uint64_t digest = fnv1a("");
    std::size_t history_start = 0, history_end = 0;
    double daemon_heap_mb = 0.0;  ///< heap held at the end of the traffic, over before set-up
    std::vector<std::string> failure_samples;  ///< first few failed requests
    // traced passes only
    TimingBackend::Samples backend;
    std::optional<pt::core::GroundTruth> ground_truth;
    std::optional<pt::metricsdb::TimeSeriesDb> metrics;
};

bool valid_result_body(const Json& body, std::string* why) {
    auto fail = [&](const std::string& what) {
        *why = what;
        return false;
    };
    if (!body.is_object() || !body.contains("job_id") || !body.at("job_id").is_number())
        return fail("body has no numeric job_id");
    if (!body.contains("result") || !body.at("result").is_object()) return fail("body has no result");
    const Json& r = body.at("result");
    for (const char* key : {"best_hyper", "final_system"})
        if (!r.contains(key) || !r.at(key).is_string()) return fail(std::string("result.") + key);
    for (const char* key : {"final_accuracy", "training_time_s", "tuning_duration_s",
                            "tuning_energy_j", "trials", "epochs", "ground_truth_hits",
                            "probes_started", "ground_truth_size", "decisions"})
        if (!r.contains(key) || !r.at(key).is_number()) return fail(std::string("result.") + key);
    const double accuracy = r.at("final_accuracy").as_number();
    if (accuracy < 0.0 || accuracy > 100.0) return fail("final_accuracy outside [0, 100]");
    if (r.at("trials").as_number() < 1 || r.at("epochs").as_number() < 1)
        return fail("job ran no trials");
    if (r.at("tuning_duration_s").as_number() <= 0.0 || r.at("tuning_energy_j").as_number() <= 0.0)
        return fail("job reported no tuning cost");
    return true;
}

double samples_per_epoch(const std::string& workload) {
    return static_cast<double>(pt::workload::find_workload(workload).train_files);
}

Pass run_pass(const PassSpec& spec, bool trace, std::vector<std::string>& failures) {
    Pass pass;
    pass.traced = trace;
    pass.rate = spec.rate;
    pass.workers = std::max<std::size_t>(1, spec.daemon.workers);

    const double heap_before_mb = heap_mb();
    const auto setup_start = Clock::now();
    DaemonOptions options = spec.daemon;
    options.trace = trace;
    Daemon daemon(options);
    for (const JobSpec& job : spec.prewarm)
        daemon.service().run(pt::workload::find_workload(job.workload), job_config(job));
    const std::size_t prewarm_trials =
        trace ? daemon.timing()->samples().start_trial_s.size() : 0;
    const std::size_t prewarm_epochs = trace ? daemon.timing()->samples().epoch_s.size() : 0;
    WireDriver driver(daemon.port(), spec.connections);
    pass.setup_s = seconds_since(setup_start);

    const PhaseReport report = driver.run(spec.plan, kResponseTimeoutS);
    pass.daemon_heap_mb = heap_mb() - heap_before_mb;
    pass.elapsed_s = report.elapsed_s;
    if (report.stray_frames != 0) failures.push_back("responses matched no request");

    const auto counters = daemon.server().counters();
    std::map<std::uint64_t, pt::core::JobTiming> timings;
    for (auto& timing : daemon.service().job_timings()) timings[timing.id] = std::move(timing);
    const auto tenant_stats = daemon.tenants().stats();
    daemon.stop();

    std::size_t ok_submits = 0, refused_submits = 0;
    std::vector<double> due, sent;  // open-loop requests
    for (std::size_t i = 0; i < spec.plan.size(); ++i) {
        const RequestOutcome& out = report.outcomes[i];
        if (!out.sent) continue;
        ++pass.sent;
        const JobSpec& job = spec.jobs[i];
        const bool submit = !job.workload.empty();
        if (submit) ++pass.submits_sent;
        if (!spec.plan[i].closed_loop) {
            due.push_back(out.due_s);
            sent.push_back(out.sent_s);
        }
        if (out.status == pt::net::status::kRejected || out.status == pt::net::status::kDraining) {
            ++pass.refused;
            refused_submits += submit ? 1 : 0;
            continue;
        }
        if (out.status != pt::net::status::kOk) {
            ++pass.failed;
            if (pass.failure_samples.size() < 5)
                pass.failure_samples.push_back(spec.plan[i].method + " -> " +
                                               std::to_string(out.status) + " " + out.error);
            continue;
        }
        ++pass.ok;
        if (!submit) {
            if (!out.result.is_object()) failures.push_back("operator reply is not an object");
            pass.ctl_latency_s.push_back(out.latency_s());
            continue;
        }
        ++ok_submits;
        std::string why;
        if (!valid_result_body(out.result, &why)) {
            failures.push_back("submit reply: " + why);
            continue;
        }
        const auto job_id = static_cast<std::uint64_t>(out.result.at("job_id").as_number());
        const auto timing = timings.find(job_id);
        const std::string label = job.tenant + "/" + job.workload;
        if (timing == timings.end() || timing->second.label != label || !timing->second.ok) {
            failures.push_back("job " + std::to_string(job_id) + " is not a completed " + label);
            continue;
        }
        const Json& result = out.result.at("result");
        pass.latency_s.push_back(out.latency_s());
        pass.send_latency_s.push_back(out.done_s - out.sent_s);
        pass.wire_s.push_back(out.done_s - out.sent_s -
                              (timing->second.finish_s - timing->second.submit_s));
        pass.results.push_back(result);
        pass.digest = fnv1a(result.dump(), pass.digest);
        const std::size_t final_epochs = job.resource == 0 ? 9 : job.resource;
        pass.train_samples += (result.at("epochs").as_number() + static_cast<double>(final_epochs)) *
                              samples_per_epoch(job.workload);
    }
    pass.late_ms = lateness_ms(due, sent);
    if (pass.sent != pass.ok + pass.refused + pass.failed)
        failures.push_back("sent != ok + refused + failed");
    if (counters.jobs_completed != ok_submits)
        failures.push_back("server completed " + std::to_string(counters.jobs_completed) +
                           " jobs, client saw " + std::to_string(ok_submits));
    if (counters.rejects != refused_submits)
        failures.push_back("server rejected " + std::to_string(counters.rejects) +
                           ", client saw " + std::to_string(refused_submits));
    std::size_t tenant_completed = 0;
    for (const auto& t : tenant_stats) tenant_completed += t.completed;
    if (tenant_completed != ok_submits) failures.push_back("tenant accounting disagrees");

    // Service-side lifecycle of the jobs that came over the wire.
    double last_submit = -1.0;
    for (const auto& [id, timing] : timings)
        if (id > spec.prewarm.size()) last_submit = std::max(last_submit, timing.submit_s);
    for (const auto& [id, timing] : timings) {
        if (id <= spec.prewarm.size()) {
            pass.prewarm_service_s.push_back(timing.finish_s - timing.start_s);
            continue;
        }
        if (timing.start_s < 0 || timing.finish_s < 0) continue;
        pass.queue_wait_s.push_back(timing.start_s - timing.submit_s);
        pass.busy_s += timing.finish_s - timing.start_s;
        if (timing.submit_s < last_submit && timing.finish_s > last_submit) ++pass.backlog_end;
    }
    pass.history_start = spec.prewarm.size();
    pass.history_end = spec.prewarm.size() + ok_submits;

    if (trace) {
        TimingBackend::Samples all = daemon.timing()->samples();
        pass.backend.start_trial_s.assign(all.start_trial_s.begin() + static_cast<long>(prewarm_trials),
                                          all.start_trial_s.end());
        pass.backend.epoch_s.assign(all.epoch_s.begin() + static_cast<long>(prewarm_epochs),
                                    all.epoch_s.end());
        pass.ground_truth = daemon.service().ground_truth_snapshot();
        pass.metrics = daemon.service().metrics_snapshot();
    }
    return pass;
}

/// Repeats `sweep` (one or more passes of identical work) until `seconds`
/// are used, ending as close to the budget as whole sweeps allow; always at
/// least one sweep. A sweep on a fixed schedule of `schedule_s` seconds (0 =
/// none) runs round(seconds / schedule_s) times instead: its set-up time
/// would otherwise decide between two sweep counts near the budget.
std::vector<Pass> repeat_for(double seconds, double schedule_s,
                             const std::function<std::vector<Pass>()>& sweep) {
    std::vector<Pass> passes;
    if (schedule_s > 0) {
        const long sweeps = std::max(1L, std::lround(seconds / schedule_s));
        for (long i = 0; i < sweeps; ++i)
            for (Pass& p : sweep()) passes.push_back(std::move(p));
        return passes;
    }
    const auto start = Clock::now();
    while (true) {
        const auto sweep_start = Clock::now();
        for (Pass& p : sweep()) passes.push_back(std::move(p));
        const double last = seconds_since(sweep_start);
        if (seconds_since(start) + 0.5 * last > seconds) break;
    }
    return passes;
}

// ---- metrics -----------------------------------------------------------------

std::vector<double> gather(const std::vector<const Pass*>& passes,
                           std::vector<double> Pass::*field) {
    std::vector<double> out;
    for (const Pass* p : passes) out.insert(out.end(), (p->*field).begin(), (p->*field).end());
    return out;
}

double mean_of_results(const std::vector<const Pass*>& passes, const char* key) {
    std::vector<double> values;
    for (const Pass* p : passes)
        for (const Json& r : p->results) values.push_back(r.at(key).as_number());
    return mean(values);
}

double median_of(const std::vector<const Pass*>& passes, double Pass::*field) {
    std::vector<double> values;
    for (const Pass* p : passes) values.push_back(p->*field);
    return median(values);
}

std::vector<const Pass*> select(const std::vector<Pass>& passes, bool traced) {
    std::vector<const Pass*> out;
    for (const Pass& p : passes)
        if (p.traced == traced) out.push_back(&p);
    return out;
}


std::vector<const Pass*> at_rate(const std::vector<const Pass*>& passes, double rate) {
    std::vector<const Pass*> out;
    for (const Pass* p : passes)
        if (p->rate == rate) out.push_back(p);
    return out;
}

/// late_over_early of the typical pass of a group of passes that run the
/// same number of jobs: each position's median over the passes, which a
/// noise burst in one pass does not move.
double typical_late_over_early(const std::vector<const Pass*>& passes,
                               std::vector<double> Pass::*field) {
    std::vector<std::vector<double>> sequences;
    for (const Pass* p : passes) sequences.push_back(p->*field);
    const std::vector<double> typical = positional_median(sequences);
    if (typical.empty()) throw std::runtime_error("no job completed");
    return late_over_early(typical);
}

/// Every end-to-end metric, in BENCHMARK.json order, from untraced passes
/// only (README.md, "End-to-end metrics"). Closed-loop workloads keep one
/// job in flight on a saturated daemon, so their high-load and capacity
/// figures are the closed loop's own.
std::vector<Metric> end_to_end(const std::vector<Pass>& all) {
    const std::vector<const Pass*> passes = select(all, false);
    if (passes.empty()) throw std::logic_error("end_to_end: no untraced pass");
    const bool open_loop = passes.front()->rate > 0.0;

    std::vector<double> throughput, samples_rate;
    double ok = 0.0, elapsed = 0.0, samples = 0.0;
    for (const Pass* p : passes) {
        throughput.push_back(static_cast<double>(p->latency_s.size()) / p->elapsed_s);
        samples_rate.push_back(p->train_samples / p->elapsed_s);
        ok += static_cast<double>(p->latency_s.size());
        elapsed += p->elapsed_s;
        samples += p->train_samples;
    }

    Metric jobs_per_s{"jobs_per_s", median(throughput), "jobs/s"};
    Metric train_rate{"train_samples_per_s", median(samples_rate), "samples/s"};
    std::vector<double> jobs = gather(passes, &Pass::latency_s);
    std::vector<double> high = jobs;
    double late_early = 0.0, goodput = 0.0, capacity = 0.0;
    if (open_loop) {
        // The sweep's load is fixed by its schedule, so throughput is taken
        // over the whole sweep, and the job latency tail at the highest rate,
        // where the queue sets it. History growth is read from the daemon's
        // service times of the pre-warm jobs, which every point runs one at
        // a time in set-up: the served jobs share the cores with each other
        // and with the IO thread, so their growth would mix in contention.
        jobs_per_s.value = ok / elapsed;
        train_rate.value = samples / elapsed;
        late_early = typical_late_over_early(passes, &Pass::prewarm_service_s);
        const auto high_passes = at_rate(passes, kOpenLoopRates.back());
        high = jobs = gather(high_passes, &Pass::latency_s);
        double high_elapsed = 0.0;
        for (const Pass* p : high_passes) high_elapsed += p->elapsed_s;
        goodput = static_cast<double>(high.size()) / high_elapsed;
        // Tail over every submit of a point: a refused or failed one misses
        // the limit, and a point that has not drained within the limit after
        // its last scheduled send has a growing backlog.
        std::vector<double> tails;
        for (const double rate : kOpenLoopRates) {
            std::vector<double> tail;
            bool drained = true;
            for (const Pass* p : at_rate(passes, rate)) {
                tail.insert(tail.end(), p->latency_s.begin(), p->latency_s.end());
                tail.insert(tail.end(), p->submits_sent - p->latency_s.size(), kTailCapS);
                drained = drained && p->elapsed_s <= point_seconds(rate) + kLatencyLimitS;
            }
            tails.push_back(drained ? percentile(tail, kTailPercentile) : kTailCapS);
        }
        capacity = crossing_rate(kOpenLoopRates, tails, kLatencyLimitS, kTailCapS);
    } else {
        late_early = typical_late_over_early(passes, &Pass::latency_s);
        goodput = capacity = jobs_per_s.value;
    }
    if (jobs.empty() || high.empty()) throw std::runtime_error("no job completed");

    return {
        {"setup_s", median_of(passes, &Pass::setup_s), "s"},
        jobs_per_s,
        {"job_p90_ms", percentile(jobs, 90.0) * 1e3, "ms"},
        {"late_over_early", late_early, "ratio"},
        {"virtual_tuning_s", mean_of_results(passes, "tuning_duration_s"), "s"},
        {"virtual_energy_kj", mean_of_results(passes, "tuning_energy_j") / 1e3, "kJ"},
        {"final_accuracy_pct", mean_of_results(passes, "final_accuracy"), "%"},
        train_rate,
        {"p90_ms_high", percentile(high, 90.0) * 1e3, "ms"},
        {"goodput_jobs_s", goodput, "jobs/s"},
        {"capacity_jobs_s", capacity, "jobs/s"},
        {"daemon_heap_mb", median_of(open_loop ? at_rate(passes, kOpenLoopRates.back()) : passes,
                                     &Pass::daemon_heap_mb),
         "MB"},
    };
}

/// Every per-layer metric, from the traced passes plus end-of-run probes.
std::vector<Metric> per_layer(const std::vector<Pass>& all, const std::string& scratch_dir) {
    const std::vector<const Pass*> traced = select(all, true);
    const std::vector<const Pass*> untraced = select(all, false);
    if (traced.empty() || untraced.empty()) throw std::logic_error("per_layer: need both kinds of pass");
    const Pass& last = *traced.back();

    std::vector<double> wire = gather(traced, &Pass::wire_s);
    std::vector<double> waits = gather(traced, &Pass::queue_wait_s);
    std::vector<double> late = gather(traced, &Pass::late_ms);
    std::vector<double> ctl = gather(traced, &Pass::ctl_latency_s);
    double refused = 0, busy = 0, capacity_s = 0, backend = 0, jobs = 0, hits = 0, probes = 0;
    double send_latency = 0;
    std::size_t backlog = 0;
    std::vector<double> epochs, starts;
    for (const Pass* p : traced) {
        refused += static_cast<double>(p->refused);
        busy += p->busy_s;
        capacity_s += static_cast<double>(p->workers) * p->elapsed_s;
        backend += p->backend.total_s();
        jobs += static_cast<double>(p->results.size());
        backlog = std::max(backlog, p->backlog_end);
        epochs.insert(epochs.end(), p->backend.epoch_s.begin(), p->backend.epoch_s.end());
        starts.insert(starts.end(), p->backend.start_trial_s.begin(), p->backend.start_trial_s.end());
        send_latency += std::accumulate(p->send_latency_s.begin(), p->send_latency_s.end(), 0.0);
        for (const Json& r : p->results) {
            hits += r.at("ground_truth_hits").as_number();
            probes += r.at("probes_started").as_number();
        }
    }
    if (jobs == 0) throw std::runtime_error("no traced job completed");
    auto or_zero = [](const std::vector<double>& v, double q) {
        return v.empty() ? 0.0 : percentile(v, q);
    };
    const double mean_traced = mean(gather(traced, &Pass::latency_s));
    const double mean_untraced = mean(gather(untraced, &Pass::latency_s));
    const double wire_total = std::accumulate(wire.begin(), wire.end(), 0.0);
    const double wait_total = std::accumulate(waits.begin(), waits.end(), 0.0);

    std::vector<Metric> out = {
        {"net.wire_ms_p50", or_zero(wire, 50.0) * 1e3, "ms"},
        {"net.rejected", refused, "count"},
        {"net.ctl_ms_p90", or_zero(ctl, 90.0) * 1e3, "ms"},
        {"net.ctl_ms_p99", or_zero(ctl, 99.0) * 1e3, "ms"},
        {"sched.queue_wait_ms_p50", or_zero(waits, 50.0) * 1e3, "ms"},
        {"sched.queue_wait_ms_p99", or_zero(waits, 99.0) * 1e3, "ms"},
        {"sched.busy_share", busy / capacity_s, "share"},
        {"sched.backlog_end", static_cast<double>(backlog), "count"},
        {"hpt.trials_per_job", mean_of_results(traced, "trials"), "count"},
        {"hpt.epochs_per_job", mean_of_results(traced, "epochs"), "count"},
        {"hpt.control_ms_per_job", (busy - backend) / jobs * 1e3, "ms"},
        {"core.hit_share", hits + probes > 0 ? hits / (hits + probes) : 0.0, "share"},
        {"core.store_size", static_cast<double>(last.ground_truth->size()), "count"},
        {"metricsdb.points", static_cast<double>(last.metrics->total_points()), "count"},
        {"sim.epoch_us_p50", or_zero(epochs, 50.0) * 1e6, "us"},
        {"sim.start_trial_ms_p50", or_zero(starts, 50.0) * 1e3, "ms"},
        {"sim.backend_share", busy > 0 ? backend / busy : 0.0, "share"},
        {"trace.overhead_share", mean_traced / mean_untraced - 1.0, "share"},
        {"trace.coverage", (wire_total + wait_total + backend) / send_latency, "share"},
        {"loadgen.late_ms_p99", or_zero(late, 99.0), "ms"},
    };
    for (Metric& m : probe_control_plane(*last.ground_truth, *last.metrics, scratch_dir))
        out.push_back(std::move(m));
    out.push_back(probe_journal_append(scratch_dir));
    for (Metric& m : probe_compute()) out.push_back(std::move(m));
    return out;
}

// ---- workloads ------------------------------------------------------------------

/// One closed-loop client on connection 0, an operator on connection 1.
PassSpec closed_loop_spec(DaemonOptions daemon, const std::vector<JobSpec>& jobs,
                          double expected_s) {
    PassSpec spec;
    spec.daemon = std::move(daemon);
    spec.connections = 2;
    for (const JobSpec& job : jobs) {
        PlannedRequest request;
        request.method = pt::net::method::kSubmit;
        request.params = submit_params(job);
        request.closed_loop = true;
        spec.plan.push_back(std::move(request));
        spec.jobs.push_back(job);
    }
    add_operator(spec.plan, spec.jobs, kClosedLoopCtlRate, expected_s, 1, "", false);
    return spec;
}

std::vector<JobSpec> history_jobs(std::size_t count, std::uint64_t seed) {
    std::vector<JobSpec> jobs;
    const auto names = catalogue_round_robin(0, count);
    for (std::size_t i = 0; i < names.size(); ++i)
        jobs.push_back({names[i], seed + i + 1, kHistoryResource});
    return jobs;
}

/// Runs jobs through an in-process serial TuningService and returns the
/// digest of their job_result_to_json sequence.
std::uint64_t run_in_process(const std::vector<JobSpec>& jobs, std::uint64_t seed) {
    pt::sim::SimBackendConfig config;
    config.seed = seed;
    pt::sim::SimBackend backend(config);
    const auto service = pt::sched::make_tuning_service(backend, {});
    std::uint64_t digest = fnv1a("");
    for (const JobSpec& job : jobs) {
        const auto result = service->run(pt::workload::find_workload(job.workload), job_config(job));
        digest = fnv1a(pt::net::job_result_to_json(result).dump(), digest);
    }
    return digest;
}

/// serve-open-loop: one point per rate, each on a fresh daemon with history
/// pre-warmed to kPrewarmJobs, two submitting tenants on a pre-drawn Poisson
/// schedule and an operator.
std::vector<PassSpec> open_loop_sweep(std::uint64_t seed) {
    std::vector<PassSpec> sweep;
    std::vector<JobSpec> prewarm;
    const auto warm_names = catalogue_round_robin(0, kPrewarmJobs);
    for (std::size_t i = 0; i < warm_names.size(); ++i)
        prewarm.push_back({warm_names[i], seed + i + 1});
    // Every served job of a sweep has its own seed, so the paper outcomes
    // are means over as many distinct jobs as the sweep serves.
    std::uint64_t job_seed = seed + kPrewarmJobs + 1;
    for (std::size_t r = 0; r < kOpenLoopRates.size(); ++r) {
        PassSpec spec;
        spec.daemon.seed = seed;
        spec.daemon.tenants = kTenantSpec;
        spec.prewarm = prewarm;
        spec.connections = 3;
        spec.rate = kOpenLoopRates[r];
        // Poisson arrivals conditioned on their count: rate x duration
        // arrivals at uniform times, so every run offers exactly the rate.
        const double seconds = point_seconds(spec.rate);
        const auto count = static_cast<std::size_t>(spec.rate * seconds);
        pt::util::Rng rng(seed * 1000003 + r);
        std::vector<double> due(count);
        for (double& d : due) d = rng.uniform(0.0, seconds);
        std::sort(due.begin(), due.end());
        const auto names = catalogue_round_robin(kPrewarmJobs, count);
        for (std::size_t i = 0; i < count; ++i) {
            const Tenant& tenant = kSubmitters[i % 2];
            JobSpec job{names[i], job_seed++, 0, tenant.name};
            PlannedRequest request;
            request.method = pt::net::method::kSubmit;
            request.token = tenant.token;
            request.params = submit_params(job);
            request.connection = i % 2;
            request.due_s = due[i];
            spec.plan.push_back(std::move(request));
            spec.jobs.push_back(job);
        }
        add_operator(spec.plan, spec.jobs, kOpenLoopCtlRate, seconds, 2, kOperator.token,
                     true);
        sweep.push_back(std::move(spec));
    }
    return sweep;
}

Json pass_detail(const Pass& p) {
    Json d = Json::object();
    d["traced"] = p.traced;
    if (p.rate > 0) d["rate_jobs_s"] = p.rate;
    d["setup_s"] = p.setup_s;
    d["elapsed_s"] = p.elapsed_s;
    d["sent"] = p.sent;
    d["ok"] = p.ok;
    d["refused"] = p.refused;
    d["failed"] = p.failed;
    d["jobs"] = p.latency_s.size();
    if (!p.failure_samples.empty()) {
        d["failure_samples"] = Json::array();
        for (const auto& f : p.failure_samples) d["failure_samples"].push_back(f);
    }
    d["history_start"] = p.history_start;
    d["history_end"] = p.history_end;
    d["daemon_heap_mb"] = p.daemon_heap_mb;
    if (!p.results.empty())
        d["store_size_end"] = p.results.back().at("ground_truth_size").as_number();
    if (!p.latency_s.empty()) {
        d["late_over_early"] = late_over_early(p.latency_s);
        d["first_job_ms"] = p.latency_s.front() * 1e3;
        d["last_job_ms"] = p.latency_s.back() * 1e3;
    }
    return d;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"history-memory", "serve-open-loop"};
    return names;
}

const std::vector<double>& open_loop_rates() { return kOpenLoopRates; }

RunResult run_workload(const RunConfig& config) {
    const std::string& name = config.workload;
    if (std::find(workload_names().begin(), workload_names().end(), name) == workload_names().end())
        throw std::invalid_argument("unknown workload '" + name + "'");
    std::filesystem::create_directories(config.scratch_dir);

    RunResult result;
    std::vector<std::string>& failures = result.check_failures;

    // Before timing, each workload runs representative jobs in-process, so
    // code, allocator and thread pools are warm when the first pass starts.
    // On history-memory that run is also the reference for the
    // output check: the same jobs through a serial TuningService.
    std::function<std::vector<Pass>(bool)> sweep;
    std::vector<JobSpec> warm_up;
    double schedule_s = 0.0;  ///< a sweep's fixed schedule; 0 = closed loop
    if (name == "serve-open-loop") {
        const auto specs = open_loop_sweep(config.seed);
        warm_up = specs.front().prewarm;
        for (const double rate : kOpenLoopRates) schedule_s += point_seconds(rate);
        sweep = [&, specs](bool trace) {
            std::vector<Pass> out;
            for (const PassSpec& spec : specs) out.push_back(run_pass(spec, trace, failures));
            return out;
        };
    } else {
        const std::vector<JobSpec> jobs = history_jobs(kHistoryJobs, config.seed);
        warm_up = jobs;
        sweep = [&, jobs](bool trace) {
            DaemonOptions daemon;
            daemon.seed = config.seed;
            daemon.workers = 1;
            // The operator runs while the closed loop does; plan it for far
            // longer than any pass takes (requests due after the loop ends
            // are not sent).
            return std::vector<Pass>{run_pass(closed_loop_spec(daemon, jobs, 600.0), trace, failures)};
        };
    }
    const std::uint64_t expected = run_in_process(warm_up, config.seed);

    std::vector<Pass> passes;
    if (config.trace) {
        // Half the budget untraced (the overhead baseline), half traced.
        passes = repeat_for(config.seconds / 2, schedule_s, [&] { return sweep(false); });
        for (Pass& p : repeat_for(config.seconds / 2, schedule_s, [&] { return sweep(true); }))
            passes.push_back(std::move(p));
    } else {
        passes = repeat_for(config.seconds, schedule_s, [&] { return sweep(false); });
    }

    // The served decisions equal the in-process serial run, pass by pass.
    if (name == "history-memory") {
        result.detail["reference_digest"] = std::to_string(expected);
        for (const Pass& p : passes)
            if (p.digest != expected)
                failures.push_back("served results differ from the in-process serial run");
    }

    for (const Pass& p : passes) {
        result.attempted += p.sent;
        result.failed += p.failed;
    }
    Json details = Json::array();
    for (const Pass& p : passes) details.push_back(pass_detail(p));
    result.detail["passes"] = std::move(details);

    result.metrics = config.trace ? per_layer(passes, config.scratch_dir) : end_to_end(passes);
    return result;
}

}  // namespace perfbench
