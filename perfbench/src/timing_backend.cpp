#include "timing_backend.hpp"

#include <chrono>
#include <numeric>

namespace perfbench {

using pipetune::workload::EpochResult;
using pipetune::workload::HyperParams;
using pipetune::workload::SystemParams;
using pipetune::workload::TrialSession;
using pipetune::workload::Workload;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

class TimingSession final : public TrialSession {
public:
    TimingSession(std::unique_ptr<TrialSession> inner, TimingBackend& owner)
        : inner_(std::move(inner)), owner_(owner) {}

    EpochResult run_epoch(const SystemParams& system) override {
        const auto start = Clock::now();
        EpochResult result = inner_->run_epoch(system);
        owner_.record_epoch(seconds_since(start));
        return result;
    }
    std::size_t epochs_done() const override { return inner_->epochs_done(); }
    const Workload& workload() const override { return inner_->workload(); }
    const HyperParams& hyperparams() const override { return inner_->hyperparams(); }

private:
    std::unique_ptr<TrialSession> inner_;
    TimingBackend& owner_;
};

}  // namespace

std::unique_ptr<TrialSession> TimingBackend::start_trial(const Workload& workload,
                                                         const HyperParams& hyper) {
    const auto start = Clock::now();
    auto session = inner_.start_trial(workload, hyper);
    const double seconds = seconds_since(start);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.start_trial_s.push_back(seconds);
    }
    return std::make_unique<TimingSession>(std::move(session), *this);
}

void TimingBackend::record_epoch(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.epoch_s.push_back(seconds);
}

TimingBackend::Samples TimingBackend::samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

double TimingBackend::Samples::total_s() const {
    return std::accumulate(start_trial_s.begin(), start_trial_s.end(), 0.0) +
           std::accumulate(epoch_s.begin(), epoch_s.end(), 0.0);
}

}  // namespace perfbench
