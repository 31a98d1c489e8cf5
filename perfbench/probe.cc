// Layer probe: each layer's public Forward/Backward and MatmulInto at the
// exact shapes the served LSTM and the trained Hybrid run at, with the
// trained weights copied in. FLOP counts and bytes moved are computed from
// tensor sizes (2*m*k*n multiply-adds; 4 bytes per float of A, B and C),
// not measured with hardware counters.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/cnn_predictor.h"
#include "core/inference_runtime.h"
#include "core/lstm_predictor.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace perfbench {

namespace {

using apots::nn::Parameter;
using apots::tensor::Tensor;

constexpr size_t kBatch = 64;
constexpr int kReps = 25;
constexpr int kWarmReps = 3;
/// The layer times must add up to the whole predictor's within this share.
constexpr double kLayerSumTolerance = 0.15;

void CopyWeights(const std::vector<Parameter*>& from,
                 const std::vector<Parameter*>& to) {
  if (from.size() != to.size()) Fail("probe: parameter count mismatch");
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i]->value.size() != to[i]->value.size()) {
      Fail("probe: parameter shape mismatch at " + from[i]->name);
    }
    std::copy(from[i]->value.data(), from[i]->value.data() + from[i]->value.size(),
              to[i]->value.data());
  }
}

std::vector<long> FirstBatch(const std::vector<long>& anchors) {
  if (anchors.size() < kBatch) Fail("probe: fewer anchors than one batch");
  return std::vector<long>(anchors.begin(), anchors.begin() + kBatch);
}

double MedianUs(const std::vector<int64_t>& ns) {
  std::vector<double> us;
  for (int64_t v : ns) us.push_back(static_cast<double>(v) / 1e3);
  return Median(us);
}

struct Gemm {
  size_t m, k, n;
  size_t calls;  ///< per forward of one batch
  bool served;   ///< issued by the served LSTM (else by the Hybrid)
  std::string name() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }
  double flops() const { return 2.0 * static_cast<double>(m * k * n); }
};

// Median seconds of one MatmulInto call at [m,k] x [k,n].
double TimeMatmul(size_t m, size_t k, size_t n, BenchTrace* trace) {
  Tensor a({m, k});
  Tensor b({k, n});
  Tensor out({m, n});
  for (size_t i = 0; i < a.size(); ++i) a[i] = 0.01f * static_cast<float>(i % 97);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 0.02f * static_cast<float>(i % 89);
  // Enough calls per timing to stay well above the clock's resolution.
  const int inner = static_cast<int>(std::max<double>(
      1.0, std::min(200.0, 4e5 / (2.0 * static_cast<double>(m * k * n)))));
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps + kWarmReps; ++rep) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < inner; ++i) apots::tensor::MatmulInto(a, b, &out);
    const int64_t t1 = NowNs();
    trace->Add("probe.matmul", m * 1000000 + k * 1000 + n, t0, t1);
    if (rep >= kWarmReps) {
      per_call.push_back(static_cast<double>(t1 - t0) / 1e9 / inner);
    }
  }
  return Median(per_call);
}

}  // namespace

void RunLayerProbe(apots::core::ApotsModel* lstm,
                   const std::vector<long>& lstm_anchors,
                   apots::core::ApotsModel* hybrid,
                   const std::vector<long>& hybrid_anchors, MetricSet* m,
                   Report* report, BenchTrace* trace) {
  // ---- served LSTM: workspace inference forward, layer by layer.
  const auto& lstm_hp = lstm->config().predictor;
  const size_t rows = static_cast<size_t>(lstm->assembler().NumRows());
  const size_t alpha = static_cast<size_t>(lstm->assembler().alpha());
  apots::Rng rng(1);
  apots::nn::Sequential lstm_net;
  apots::core::BuildLstmHead(lstm_hp, rows, &lstm_net, &rng);
  CopyWeights(lstm->predictor().Parameters(), lstm_net.Parameters());
  lstm_net.PrepareQuantized(apots::core::InferenceConfig().quantize);
  const Tensor lstm_input =
      lstm->assembler().BatchMatrix(FirstBatch(lstm_anchors));
  const Tensor sequence = apots::tensor::Transpose12(lstm_input);
  apots::tensor::Workspace ws;
  std::vector<std::vector<int64_t>> lstm_ns(lstm_net.NumLayers());
  std::vector<int64_t> lstm_whole_ns;
  for (int rep = 0; rep < kReps + kWarmReps; ++rep) {
    ws.Reset();
    const Tensor* x = &sequence;
    for (size_t i = 0; i < lstm_net.NumLayers(); ++i) {
      const int64_t t0 = NowNs();
      x = lstm_net.layer(i)->Forward(*x, /*training=*/false, &ws);
      const int64_t t1 = NowNs();
      trace->Add("probe.layer_forward", i, t0, t1);
      if (rep >= kWarmReps) lstm_ns[i].push_back(t1 - t0);
    }
    ws.Reset();
    const int64_t t0 = NowNs();
    lstm->predictor().Forward(lstm_input, /*training=*/false, &ws);
    const int64_t t1 = NowNs();
    trace->Add("probe.predictor_forward", 0, t0, t1);
    if (rep >= kWarmReps) lstm_whole_ns.push_back(t1 - t0);
  }
  const char* lstm_names[] = {"nn.L.lstm0", "nn.L.lstm1", "nn.L.dense"};
  if (lstm_net.NumLayers() != 3) Fail("probe: unexpected LSTM layer count");
  double lstm_sum_us = 0.0;
  std::vector<double> lstm_flops;
  for (size_t i = 0; i < lstm_hp.lstm_hidden.size(); ++i) {
    const double in = static_cast<double>(i == 0 ? rows : lstm_hp.lstm_hidden[i - 1]);
    const double h = static_cast<double>(lstm_hp.lstm_hidden[i]);
    lstm_flops.push_back(static_cast<double>(alpha) * 2.0 * kBatch * 4.0 * h *
                         (in + h));
  }
  lstm_flops.push_back(2.0 * kBatch *
                       static_cast<double>(lstm_hp.lstm_hidden.back()));
  for (size_t i = 0; i < 3; ++i) {
    const double us = MedianUs(lstm_ns[i]);
    lstm_sum_us += us;
    const std::string name = lstm_names[i];
    m->Set(name + ".fwd_us_per_anchor", us / kBatch, lstm_ns[i].size(),
           "(" + lstm_net.layer(i)->Name() + ", batch 64, workspace forward)");
    m->Set(name + ".gflops", lstm_flops[i] / (us * 1e3), lstm_ns[i].size());
  }
  const double lstm_whole_us = MedianUs(lstm_whole_ns);
  const double lstm_gap = std::fabs(lstm_sum_us - lstm_whole_us) / lstm_whole_us;
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "served LSTM layers sum to %.1f us vs Predictor::Forward %.1f us "
                "(%.1f%% apart, allowed %.0f%%)",
                lstm_sum_us, lstm_whole_us, 100.0 * lstm_gap,
                100.0 * kLayerSumTolerance);
  report->Check("layer_sum_lstm", lstm_gap <= kLayerSumTolerance, detail);

  // ---- Hybrid: allocating training forward + backward, layer by layer.
  const auto& hy_hp = hybrid->config().predictor;
  apots::nn::Sequential conv;
  apots::nn::Sequential head;
  const size_t channels = apots::core::BuildConvTrunk(hy_hp, &conv, &rng);
  apots::core::BuildLstmHead(hy_hp, channels * rows, &head, &rng);
  std::vector<Parameter*> probe_params = conv.Parameters();
  for (Parameter* p : head.Parameters()) probe_params.push_back(p);
  CopyWeights(hybrid->predictor().Parameters(), probe_params);
  const std::vector<long> hy_batch = FirstBatch(hybrid_anchors);
  const Tensor hy_input = hybrid->assembler().BatchMatrix(hy_batch);
  const Tensor hy_targets = hybrid->assembler().BatchTargets(hy_batch);
  std::vector<apots::nn::Layer*> layers;
  for (size_t i = 0; i < conv.NumLayers(); ++i) layers.push_back(conv.layer(i));
  for (size_t i = 0; i < head.NumLayers(); ++i) layers.push_back(head.layer(i));
  const size_t n_conv = conv.NumLayers();
  std::vector<std::vector<int64_t>> fwd_ns(layers.size()), bwd_ns(layers.size());
  std::vector<int64_t> whole_ns;
  for (int rep = 0; rep < kReps + kWarmReps; ++rep) {
    Tensor x = hy_input.Reshape({kBatch, 1, rows, alpha});
    for (size_t i = 0; i < layers.size(); ++i) {
      if (i == n_conv) {
        x = apots::tensor::Transpose12(
            x.Reshape({kBatch, channels * rows, alpha}));
      }
      const int64_t t0 = NowNs();
      x = layers[i]->Forward(x, /*training=*/true);
      const int64_t t1 = NowNs();
      trace->Add("probe.layer_forward", 100 + i, t0, t1);
      if (rep >= kWarmReps) fwd_ns[i].push_back(t1 - t0);
    }
    Tensor g = apots::nn::MseLoss(x, hy_targets).grad;
    for (size_t i = layers.size(); i-- > 0;) {
      const int64_t t0 = NowNs();
      g = layers[i]->Backward(g);
      const int64_t t1 = NowNs();
      trace->Add("probe.layer_backward", 100 + i, t0, t1);
      if (rep >= kWarmReps) bwd_ns[i].push_back(t1 - t0);
      if (i == n_conv) {
        g = apots::tensor::Transpose12(g).Reshape(
            {kBatch, channels, rows, alpha});
      }
    }
    apots::nn::ZeroAllGrads(probe_params);

    const int64_t t0 = NowNs();
    const Tensor out = hybrid->predictor().Forward(hy_input, /*training=*/true);
    const Tensor grad = apots::nn::MseLoss(out, hy_targets).grad;
    hybrid->predictor().Backward(grad);
    const int64_t t1 = NowNs();
    trace->Add("probe.predictor_train_step", 0, t0, t1);
    if (rep >= kWarmReps) whole_ns.push_back(t1 - t0);
    apots::nn::ZeroAllGrads(hybrid->predictor().Parameters());
  }
  const char* hy_names[] = {"nn.H.conv0", "nn.H.relu0", "nn.H.conv1",
                            "nn.H.relu1", "nn.H.conv2", "nn.H.relu2",
                            "nn.H.lstm0", "nn.H.lstm1", "nn.H.dense"};
  if (layers.size() != 9) Fail("probe: unexpected Hybrid layer count");
  double hy_sum_us = 0.0;
  for (size_t i = 0; i < layers.size(); ++i) {
    const double f = MedianUs(fwd_ns[i]);
    const double b = MedianUs(bwd_ns[i]);
    hy_sum_us += f + b;
    const std::string name = hy_names[i];
    m->Set(name + ".fwd_us_per_sample", f / kBatch, fwd_ns[i].size(),
           "(" + layers[i]->Name() + ", batch 64, training forward)");
    m->Set(name + ".bwd_us_per_sample", b / kBatch, bwd_ns[i].size());
  }
  const double hy_whole_us = MedianUs(whole_ns);
  const double hy_gap = std::fabs(hy_sum_us - hy_whole_us) / hy_whole_us;
  std::snprintf(detail, sizeof(detail),
                "Hybrid layers (forward + backward) sum to %.1f us vs "
                "Predictor::Forward+Backward %.1f us (%.1f%% apart, allowed "
                "%.0f%%)",
                hy_sum_us, hy_whole_us, 100.0 * hy_gap,
                100.0 * kLayerSumTolerance);
  report->Check("layer_sum_hybrid", hy_gap <= kLayerSumTolerance, detail);

  // ---- GEMM shapes the forwards issue, next to a ceiling shape.
  std::vector<Gemm> gemms;
  for (size_t i = 0; i < lstm_hp.lstm_hidden.size(); ++i) {
    const size_t h = lstm_hp.lstm_hidden[i];
    const size_t in = i == 0 ? rows : lstm_hp.lstm_hidden[i - 1];
    gemms.push_back({kBatch, in, 4 * h, alpha, true});
    gemms.push_back({kBatch, h, 4 * h, alpha, true});
  }
  gemms.push_back({kBatch, lstm_hp.lstm_hidden.back(), 1, 1, true});
  size_t in_channels = 1;
  for (size_t i = 0; i < hy_hp.cnn_channels.size(); ++i) {
    const size_t k = hy_hp.cnn_kernels[i];
    gemms.push_back({hy_hp.cnn_channels[i], in_channels * k * k, rows * alpha,
                     kBatch, false});
    in_channels = hy_hp.cnn_channels[i];
  }
  for (size_t i = 0; i < hy_hp.lstm_hidden.size(); ++i) {
    const size_t h = hy_hp.lstm_hidden[i];
    const size_t in = i == 0 ? channels * rows : hy_hp.lstm_hidden[i - 1];
    gemms.push_back({kBatch, in, 4 * h, alpha, false});
    gemms.push_back({kBatch, h, 4 * h, alpha, false});
  }
  gemms.push_back({kBatch, hy_hp.lstm_hidden.back(), 1, 1, false});
  // Merge repeated shapes, keeping the served model's call counts apart
  // for the GEMM share of its forward.
  std::vector<Gemm> shapes;
  double served_gemm_s = 0.0;
  std::vector<std::pair<std::string, double>> seconds;
  for (const Gemm& g : gemms) {
    auto same = [&g](const Gemm& o) {
      return o.m == g.m && o.k == g.k && o.n == g.n;
    };
    auto it = std::find_if(shapes.begin(), shapes.end(), same);
    double t = 0.0;
    if (it == shapes.end()) {
      t = TimeMatmul(g.m, g.k, g.n, trace);
      shapes.push_back(g);
      seconds.emplace_back(g.name(), t);
    } else {
      t = std::find_if(seconds.begin(), seconds.end(),
                       [&g](const auto& s) { return s.first == g.name(); })
              ->second;
      if (it->served == g.served) it->calls += g.calls;
    }
    if (g.served) served_gemm_s += t * static_cast<double>(g.calls);
  }
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Gemm& g = shapes[i];
    const double t = seconds[i].second;
    const std::string base = "tensor.gemm." + g.name();
    m->Set(base + ".gflops", g.flops() / t / 1e9, kReps,
           "(MatmulInto, " + std::string(g.served ? "served LSTM" : "Hybrid") +
               ")");
    m->Set(base + ".mbytes",
           static_cast<double>(g.calls) * 4.0 *
               static_cast<double>(g.m * g.k + g.k * g.n + g.m * g.n) / 1e6,
           g.calls, "(per batch forward, computed from tensor sizes)");
  }
  const double ceiling = TimeMatmul(256, 256, 256, trace);
  m->Set("tensor.gemm_ceiling_gflops", 2.0 * 256 * 256 * 256 / ceiling / 1e9,
         kReps, "(MatmulInto 256x256x256 in the same run)");
  const double whole_s = lstm_whole_us / 1e6;
  m->Set("tensor.gemm_share", served_gemm_s / whole_s, kReps,
         "(of the served LSTM forward)");
  m->Set("tensor.elementwise_share",
         std::max(0.0, lstm_sum_us / 1e6 - served_gemm_s) / whole_s, kReps,
         "(layer time outside GEMM, of the served LSTM forward)");
}

}  // namespace perfbench
