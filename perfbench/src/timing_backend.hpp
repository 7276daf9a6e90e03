#pragma once
// TimingBackend: a workload::Backend decorator that times every call the
// tuning stack makes into the backend — start_trial (dataset and model
// set-up) and each session's run_epoch — without touching the program. The
// traced run wraps the daemon's backend with it; untraced runs never do.

#include <memory>
#include <mutex>
#include <vector>

#include "pipetune/workload/types.hpp"

namespace perfbench {

class TimingBackend final : public pipetune::workload::Backend {
public:
    explicit TimingBackend(pipetune::workload::Backend& inner) : inner_(inner) {}

    std::unique_ptr<pipetune::workload::TrialSession> start_trial(
        const pipetune::workload::Workload& workload,
        const pipetune::workload::HyperParams& hyper) override;
    std::string name() const override { return inner_.name(); }

    /// Wall seconds of every call so far, in completion order.
    struct Samples {
        std::vector<double> start_trial_s;
        std::vector<double> epoch_s;
        double total_s() const;
    };
    Samples samples() const;

    /// Called by the session wrapper; thread-safe (workers run trials
    /// concurrently).
    void record_epoch(double seconds);

private:
    pipetune::workload::Backend& inner_;
    mutable std::mutex mutex_;
    Samples samples_;
};

}  // namespace perfbench
