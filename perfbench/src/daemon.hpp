#pragma once
// Daemon: the in-process twin of `pipetune serve`. It wires the same parts in
// the same way cmd_serve does with in-memory state — a live obs::ObsContext,
// the sim backend, sched::make_tuning_service with reject_when_full, a
// TenantRegistry and a net::TuningServer on a kernel-assigned loopback port —
// so the benchmark measures the served surface without spawning a process.

#include <cstdint>
#include <memory>
#include <string>

#include "pipetune/core/tuning_service.hpp"
#include "pipetune/net/auth.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "timing_backend.hpp"

namespace perfbench {

struct DaemonOptions {
    std::uint64_t seed = 1;   ///< `--seed`
    std::size_t workers = 2;  ///< `--workers` (serve's default)
    std::string tenants;      ///< `--tenants` spec; empty = open mode
    bool trace = false;       ///< wrap the backend in a TimingBackend
};

class Daemon {
public:
    /// Builds every part and starts the server. Throws std::runtime_error
    /// when the server cannot start.
    explicit Daemon(const DaemonOptions& options);
    /// Stops the server (full drain) if still running.
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const { return server_->port(); }
    pipetune::core::TuningService& service() { return *service_; }
    pipetune::net::TuningServer& server() { return *server_; }
    const pipetune::net::TenantRegistry& tenants() const { return tenants_; }
    /// Null unless DaemonOptions::trace.
    const TimingBackend* timing() const { return timing_.get(); }

    /// Full drain: run everything admitted, join the server, drain the service.
    void stop();

private:
    pipetune::obs::ObsContext obs_;
    std::unique_ptr<pipetune::workload::Backend> backend_;
    std::unique_ptr<TimingBackend> timing_;
    std::unique_ptr<pipetune::core::TuningService> service_;
    pipetune::net::TenantRegistry tenants_;
    std::unique_ptr<pipetune::net::TuningServer> server_;
    bool stopped_ = false;
};

}  // namespace perfbench
