#include "probes.hpp"

#include <chrono>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "pipetune/data/synthetic.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/mlcore/kmeans.hpp"
#include "pipetune/nn/models.hpp"
#include "pipetune/nn/optimizer.hpp"
#include "pipetune/sim/real_backend.hpp"
#include "pipetune/tensor/ops.hpp"
#include "pipetune/tensor/simd.hpp"
#include "pipetune/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

namespace pt = pipetune;
using Clock = std::chrono::steady_clock;

namespace {

/// Median wall seconds of `reps` calls.
double median_seconds(std::size_t reps, const std::function<void()>& fn) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn();
        samples.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    }
    return median(samples);
}

// The real backend trains with batch = max(4, hyper.batch_size / 8); the
// probes use hyper.batch_size 128, the middle of the paper's range.
constexpr std::size_t kProbeBatch = 16;
constexpr std::size_t kProbeReps = 41;

/// Times forward, backward and the SGD step of one model over a fixed batch.
std::vector<Metric> probe_model(const std::string& prefix, pt::nn::Sequential model,
                                const pt::tensor::Tensor& input,
                                const std::vector<std::size_t>& labels) {
    pt::nn::SgdOptimizer optimizer(model, {.learning_rate = 0.01, .momentum = 0.9});
    pt::tensor::Tensor logits;
    pt::tensor::Tensor grad;
    const double forward = median_seconds(kProbeReps, [&] {
        logits = model.forward(input, /*training=*/true);
    });
    grad = pt::tensor::softmax_cross_entropy_grad(pt::tensor::softmax_rows(logits), labels);
    // backward needs the caches of a forward pass, so only the backward call
    // itself is timed.
    std::vector<double> backward_samples;
    for (std::size_t i = 0; i < kProbeReps; ++i) {
        model.zero_grad();
        model.forward(input, /*training=*/true);
        const auto start = Clock::now();
        model.backward(grad);
        backward_samples.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    }
    const double backward = median(backward_samples);
    const double step = median_seconds(kProbeReps, [&] { optimizer.step(); });
    return {{prefix + ".forward_ms", forward * 1e3, "ms"},
            {prefix + ".backward_ms", backward * 1e3, "ms"},
            {prefix + ".optimizer_ms", step * 1e3, "ms"}};
}

double gemm_batch_seconds(const std::vector<GemmCall>& calls) {
    std::size_t largest = 0;
    for (const GemmCall& c : calls) largest = std::max({largest, c.m * c.k, c.k * c.n, c.m * c.n});
    std::vector<float> a(largest, 0.5f), b(largest, 0.25f), out(largest, 0.0f);
    return median_seconds(kProbeReps, [&] {
        for (const GemmCall& c : calls) {
            for (std::size_t r = 0; r < c.repeat; ++r) {
                switch (c.kind) {
                    case GemmCall::Kind::kGemm:
                        pt::tensor::simd::gemm(c.m, c.k, c.n, a.data(), b.data(), out.data());
                        break;
                    case GemmCall::Kind::kGemmBt:
                        pt::tensor::simd::gemm_bt(c.m, c.k, c.n, a.data(), b.data(), out.data());
                        break;
                    case GemmCall::Kind::kGemmAt:
                        pt::tensor::simd::gemm_at(c.m, c.k, c.n, a.data(), b.data(), out.data());
                        break;
                }
            }
        }
    });
}

/// Dense layer y = x W^T: forward gemm_bt, backward dW = g^T x and dx = g W.
void add_dense(std::vector<GemmCall>& calls, std::size_t batch, std::size_t in, std::size_t out,
               std::size_t repeat = 1) {
    using K = GemmCall::Kind;
    calls.push_back({K::kGemmBt, batch, in, out, repeat});
    calls.push_back({K::kGemmAt, out, batch, in, repeat});
    calls.push_back({K::kGemm, batch, out, in, repeat});
}

/// Convolution as the tensor layer lowers it, per sample: forward
/// gemm(f, patch_len, patches), dK gemm_bt(f, patches, patch_len), dcol
/// gemm_at(patches, f, patch_len).
void add_conv(std::vector<GemmCall>& calls, std::size_t batch, std::size_t filters,
              std::size_t patch_len, std::size_t patches) {
    using K = GemmCall::Kind;
    calls.push_back({K::kGemm, filters, patch_len, patches, batch});
    calls.push_back({K::kGemmBt, filters, patches, patch_len, batch});
    calls.push_back({K::kGemmAt, patches, filters, patch_len, batch});
}

pt::sim::RealBackendConfig real_sizes() { return pt::sim::RealBackendConfig{}; }

std::size_t lstm_embedding_dim() {
    // RealDnnSession: embedding_dim = max(8, hyper.embedding_dim / 10).
    return std::max<std::size_t>(8, pt::workload::HyperParams{}.embedding_dim / 10);
}

}  // namespace

std::vector<GemmCall> lenet_batch_gemms(std::size_t batch) {
    const std::size_t image = real_sizes().image_size;
    const std::size_t conv1 = image - 4, pooled1 = conv1 / 2;
    const std::size_t conv2 = pooled1 - 4, pooled2 = conv2 / 2;
    std::vector<GemmCall> calls;
    add_conv(calls, batch, 6, 1 * 5 * 5, conv1 * conv1);
    add_conv(calls, batch, 16, 6 * 5 * 5, conv2 * conv2);
    add_dense(calls, batch, 16 * pooled2 * pooled2, 120);
    add_dense(calls, batch, 120, 84);
    add_dense(calls, batch, 84, real_sizes().image_classes);
    return calls;
}

std::vector<GemmCall> lstm_batch_gemms(std::size_t batch) {
    const std::size_t steps = real_sizes().text_seq_len;
    const std::size_t embed = lstm_embedding_dim();
    const std::size_t hidden = pt::nn::TextModelConfig{}.lstm_hidden;
    std::vector<GemmCall> calls;
    add_dense(calls, batch, embed, 4 * hidden, steps);   // input projection per step
    add_dense(calls, batch, hidden, 4 * hidden, steps);  // recurrent projection per step
    add_dense(calls, batch, hidden, real_sizes().text_classes);
    return calls;
}

std::vector<Metric> probe_control_plane(const pt::core::GroundTruth& ground_truth,
                                        const pt::metricsdb::TimeSeriesDb& metrics,
                                        const std::string& scratch_dir) {
    std::vector<Metric> out;
    std::vector<std::vector<double>> rows;
    for (const auto& entry : ground_truth.entries()) rows.push_back(entry.features);

    // A lookup per stored profile (or one on an empty store): the query
    // PipeTunePolicy makes once per trial after its profiling epochs.
    const std::vector<std::vector<double>> queries =
        rows.empty() ? std::vector<std::vector<double>>{std::vector<double>(58, 0.0)} : rows;
    const double lookup = median_seconds(5, [&] {
        double score = 0.0;
        for (const auto& q : queries) (void)ground_truth.lookup(q, &score);
    });
    out.push_back({"core.lookup_us", lookup / static_cast<double>(queries.size()) * 1e6, "us"});

    double fit_ms = 0.0;
    if (rows.size() >= pt::core::GroundTruthConfig{}.k) {
        fit_ms = median_seconds(3, [&] {
                     pt::mlcore::KMeans kmeans({.k = pt::core::GroundTruthConfig{}.k});
                     (void)kmeans.fit(rows);
                 }) * 1e3;
    }
    out.push_back({"mlcore.kmeans_fit_ms", fit_ms, "ms"});

    const pt::metricsdb::Query query{.series = "epoch_duration"};
    const double count = median_seconds(5, [&] { (void)metrics.count(query); });
    out.push_back({"metricsdb.count_us", count * 1e6, "us"});

    const std::string path = scratch_dir + "/probe_metrics.json";
    const double save = median_seconds(1, [&] { metrics.save(path); });
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    std::filesystem::remove(path, ec);
    out.push_back({"metricsdb.save_ms", save * 1e3, "ms"});
    out.push_back({"metricsdb.state_mb", static_cast<double>(bytes) / 1e6, "MB"});
    return out;
}

Metric probe_journal_append(const std::string& scratch_dir) {
    const std::string path = scratch_dir + "/probe_journal.jsonl";
    std::error_code ec;
    std::filesystem::remove(path, ec);
    double seconds = 0.0;
    {
        pt::ft::Journal journal(path);
        pt::util::Json payload = pt::util::Json::object();
        payload["job_id"] = 1;
        payload["label"] = "perfbench/lenet-mnist";
        payload["workload"] = "lenet-mnist";
        std::size_t i = 0;
        seconds = median_seconds(21, [&] {
            payload["seq_hint"] = ++i;
            if (!journal.append("perfbench_probe", payload))
                throw std::runtime_error("journal append failed");
        });
    }
    std::filesystem::remove(path, ec);
    return {"ft.journal_append_us", seconds * 1e6, "us"};
}

std::vector<Metric> probe_compute() {
    const pt::sim::RealBackendConfig sizes = real_sizes();
    std::vector<Metric> out;
    pt::util::Rng rng(7);
    std::vector<std::size_t> labels(kProbeBatch);
    for (std::size_t i = 0; i < kProbeBatch; ++i) labels[i] = i % sizes.image_classes;

    pt::nn::ImageModelConfig image_model;
    image_model.image_size = sizes.image_size;
    image_model.classes = sizes.image_classes;
    const auto image_input = pt::tensor::Tensor::uniform(
        {kProbeBatch, 1, sizes.image_size, sizes.image_size}, rng, 0.0f, 1.0f);
    for (Metric& m : probe_model("nn.lenet", pt::nn::build_lenet5(image_model), image_input, labels))
        out.push_back(std::move(m));

    pt::nn::TextModelConfig text_model;
    text_model.vocab_size = sizes.text_vocab;
    text_model.seq_len = sizes.text_seq_len;
    text_model.classes = sizes.text_classes;
    text_model.embedding_dim = lstm_embedding_dim();
    pt::tensor::Tensor tokens({kProbeBatch, sizes.text_seq_len});
    for (std::size_t i = 0; i < tokens.numel(); ++i)
        tokens[i] = static_cast<float>(rng.uniform_int(0, static_cast<long>(sizes.text_vocab) - 1));
    for (Metric& m : probe_model("nn.lstm", pt::nn::build_lstm_classifier(text_model), tokens, labels))
        out.push_back(std::move(m));

    out.push_back({"tensor.lenet.gemm_ms", gemm_batch_seconds(lenet_batch_gemms(kProbeBatch)) * 1e3, "ms"});
    out.push_back({"tensor.lstm.gemm_ms", gemm_batch_seconds(lstm_batch_gemms(kProbeBatch)) * 1e3, "ms"});

    // What every real start_trial pays before its first epoch.
    const double split = median_seconds(5, [&] {
        pt::data::ImageDatasetConfig image;
        image.classes = sizes.image_classes;
        image.samples = sizes.train_samples;
        image.image_size = sizes.image_size;
        (void)pt::data::make_image_split(image, "mnist", sizes.test_samples);
        pt::data::TextDatasetConfig text;
        text.classes = sizes.text_classes;
        text.samples = sizes.train_samples;
        text.vocab_size = sizes.text_vocab;
        text.seq_len = sizes.text_seq_len;
        (void)pt::data::make_text_split(text, "news20", sizes.test_samples);
    });
    out.push_back({"data.split_ms", split * 1e3, "ms"});
    return out;
}

}  // namespace perfbench
