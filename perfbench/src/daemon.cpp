#include "daemon.hpp"

#include <stdexcept>

#include "pipetune/obs/build_info.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace perfbench {

namespace pt = pipetune;

namespace {

pt::net::TenantRegistry make_tenants(const std::string& spec) {
    auto tenants = pt::net::TenantRegistry::from_spec(spec, 0);
    if (!tenants) throw std::invalid_argument("tenants: " + tenants.error());
    return std::move(tenants.value());
}

}  // namespace

Daemon::Daemon(const DaemonOptions& options) : tenants_(make_tenants(options.tenants)) {
    obs_.mirror_logs();
    pt::obs::register_build_info(obs_.metrics());

    pt::sim::SimBackendConfig config;
    config.seed = options.seed;
    backend_ = std::make_unique<pt::sim::SimBackend>(config);
    pt::workload::Backend* active = backend_.get();
    if (options.trace) {
        timing_ = std::make_unique<TimingBackend>(*backend_);
        active = timing_.get();
    }

    pt::core::ServiceOptions service_options;
    service_options.concurrency = std::max<std::size_t>(1, options.workers);
    service_options.queue_capacity = 16;  // serve's --queue-capacity default
    service_options.reject_when_full = true;
    service_options.obs = &obs_;
    service_ = pt::sched::make_tuning_service(*active, service_options);

    pt::net::ServerConfig server_config;
    server_config.service = service_.get();
    server_config.tenants = &tenants_;
    server_config.obs = &obs_;
    // serve's default job: 4 slots, resource 9 unless --resource is given.
    server_config.default_job.seed = options.seed;
    server_config.default_job.parallel_slots = 4;
    server_config.default_job.hyperband_resource = 9;
    server_config.default_job.final_epochs = 9;
    server_ = std::make_unique<pt::net::TuningServer>(server_config);
    auto started = server_->start();
    if (!started) throw std::runtime_error("server start: " + started.error());
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
    if (stopped_) return;
    stopped_ = true;
    server_->stop(pt::net::DrainMode::kFull);
    service_->drain();
}

}  // namespace perfbench
