#pragma once
// End-of-run layer probes for the traced run: timed calls into each layer's
// public functions, made from the benchmark's own code on the state the run
// left behind (or, for the compute layers, on the real backend's two models
// at its configured sizes). Nothing here runs in an untraced run.

#include <string>
#include <vector>

#include "pipetune/core/ground_truth.hpp"
#include "pipetune/metricsdb/tsdb.hpp"
#include "workloads.hpp"

namespace perfbench {

/// core.lookup_us, mlcore.kmeans_fit_ms, metricsdb.count_us,
/// metricsdb.save_ms and metricsdb.state_mb on an end-of-run snapshot.
std::vector<Metric> probe_control_plane(const pipetune::core::GroundTruth& ground_truth,
                                        const pipetune::metricsdb::TimeSeriesDb& metrics,
                                        const std::string& scratch_dir);

/// ft.journal_append_us: one fsync'd ft::Journal::append on a scratch journal.
Metric probe_journal_append(const std::string& scratch_dir);

/// nn.{lenet,lstm}.{forward,backward,optimizer}_ms, tensor.{lenet,lstm}.gemm_ms
/// and data.split_ms at the real backend's sizes.
std::vector<Metric> probe_compute();

/// One GEMM a model's training batch performs, as the tensor layer names it.
struct GemmCall {
    enum class Kind { kGemm, kGemmBt, kGemmAt } kind;
    std::size_t m, k, n;
    std::size_t repeat;  ///< calls per batch
};
/// The GEMMs of one training batch (forward + backward) of the real
/// backend's LeNet-5 and LSTM classifier at batch size `batch`.
std::vector<GemmCall> lenet_batch_gemms(std::size_t batch);
std::vector<GemmCall> lstm_batch_gemms(std::size_t batch);

}  // namespace perfbench
