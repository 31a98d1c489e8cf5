// apots_perfbench: the repository benchmark's measuring program.
//
//   apots_perfbench prepare --models DIR [--model lstm|hybrid|all]
//   apots_perfbench run --workload serve_live|serve_scan|train_adv
//       --seed N --seconds S --trace 0|1 --models DIR --out DIR
//
// perfbench/run.py builds this binary, runs the prepare step once per
// checkout, and then forwards its own arguments to `run`. The last
// line of standard output is the JSON result.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/inference_runtime.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

apots::serve::HarnessConfig ServedHarnessConfig(bool faulty_feed,
                                                int train_epochs) {
  apots::serve::HarnessConfig config;
  config.spec = apots::traffic::DatasetSpec();
  config.predictor = apots::core::PredictorType::kLstm;
  config.width_divisor = kWidthDivisor;
  config.train_epochs = train_epochs;
  config.alpha = kAlpha;
  config.beta = kBeta;
  config.feed = faulty_feed ? apots::serve::FeedFaultSpec()
                            : apots::serve::FeedFaultSpec::Clean();
  return config;
}

apots::core::ApotsConfig LstmConfig() {
  // Mirrors SimulationHarness::BuildStack for the served LSTM.
  apots::core::ApotsConfig config;
  config.predictor = apots::core::PredictorHparams::Scaled(
      apots::core::PredictorType::kLstm, kWidthDivisor);
  config.features = apots::data::FeatureConfig::Both(kAlpha, kBeta);
  config.features.num_adjacent = (apots::traffic::DatasetSpec().num_roads - 1) / 2;
  config.training.adversarial = false;
  config.training.verbose = false;
  config.fallback.enabled = false;
  return config;
}

apots::core::ApotsConfig HybridConfig() {
  apots::core::ApotsConfig config = LstmConfig();
  config.predictor = apots::core::PredictorHparams::Scaled(
      apots::core::PredictorType::kHybrid, kWidthDivisor);
  config.discriminator = apots::core::DiscriminatorHparams::Scaled(kWidthDivisor);
  config.training.adversarial = true;
  config.training.epochs = 1;
  return config;
}

std::string LstmCheckpoint(const std::string& models_dir) {
  return models_dir + "/served_lstm.apot";
}
std::string HybridCheckpoint(const std::string& models_dir) {
  return models_dir + "/apots_hybrid.apot";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(int64_t deadline_ns) {
  // The generator sleeps (with 1 us timer slack, see EnterGenerator) and
  // spins only the last few microseconds, so it leaves its processor free
  // for the serving threads between sends.
  constexpr int64_t kSpinNs = 20'000;
  int64_t remaining = deadline_ns - NowNs();
  if (remaining > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

void EnterGenerator() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void Report::Header(const std::string& key, const std::string& value) {
  std::cout << "# " << key << ": " << value << "\n";
}

void Report::Phase(const std::string& name, size_t attempted,
                   size_t succeeded, size_t failed, const std::string& note) {
  std::cout << "phase " << name << ": attempted=" << attempted
            << " succeeded=" << succeeded << " failed=" << failed;
  if (!note.empty()) std::cout << " (" << note << ")";
  std::cout << "\n";
}

void Report::Check(const std::string& name, bool pass,
                   const std::string& detail) {
  if (!pass) all_pass_ = false;
  std::cout << "check " << name << ": " << (pass ? "PASS" : "FAIL") << " ("
            << detail << ")\n";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples, bool json,
                    const std::string& note) {
  std::cout << (json ? "metric " : "info ") << name << " = "
            << FormatValue(value) << " " << unit << " [n=" << samples << "]";
  if (!note.empty()) std::cout << " " << note;
  std::cout << "\n";
  if (json) json_metrics_.push_back({name, value, unit});
}

void Report::Line(const std::string& text) { std::cout << text << "\n"; }

std::string Report::JsonLine(uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (all_pass_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < json_metrics_.size(); ++i) {
    const Entry& e = json_metrics_[i];
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
        << FormatValue(value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool WriteBenchSpans(const BenchTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t epoch = trace.spans.empty() ? 0 : trace.spans.front().start;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const BenchSpan& s = trace.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 2, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}",
                  i == 0 ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.start - epoch) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3,
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

void Fail(const std::string& message) {
  std::cout.flush();
  std::cerr << "apots_perfbench: " << message << std::endl;
  std::_Exit(1);
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"latency_mean_ms", "ms"},  {"latency_tail_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"answered_share", "ratio"},
      {"mae_kmh", "km/h"},        {"mae_abrupt_kmh", "km/h"},
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"frontend.queue_wait_p50_ms", "ms"},
        {"frontend.cycle_self_ms_p50", "ms"},
        {"frontend.admit_us_p50", "us"},
        {"frontend.coalesce_rate", "ratio"},
        {"frontend.keys_per_batch", "count"},
        {"frontend.shed_share", "ratio"},
        {"supervisor.predict_self_ms_p50", "ms"},
        {"supervisor.tier_full_share", "ratio"},
        {"supervisor.tier_imputed_share", "ratio"},
        {"supervisor.tier_historical_share", "ratio"},
        {"supervisor.tier_lkg_share", "ratio"},
        {"supervisor.mae_full_kmh", "km/h"},
        {"supervisor.mae_degraded_kmh", "km/h"},
        {"ingest.tick_ms_p50", "ms"},
        {"ingest.tick_ms_max", "ms"},
        {"ingest.records_per_tick", "count"},
        {"ingest.invalidations_per_tick", "count"},
        {"data.cache_hit_rate", "ratio"},
        {"data.assemble_us_per_anchor", "us"},
        {"runtime.predict_ms_p50", "ms"},
        {"runtime.batch_us_per_anchor", "us"},
    };
    for (const char* layer : {"nn.L.lstm0", "nn.L.lstm1", "nn.L.dense"}) {
      s.push_back({std::string(layer) + ".fwd_us_per_anchor",
                   "us"});
      s.push_back({std::string(layer) + ".gflops",
                   "GFLOP/s"});
    }
    for (const char* layer :
         {"nn.H.conv0", "nn.H.relu0", "nn.H.conv1", "nn.H.relu1",
          "nn.H.conv2", "nn.H.relu2", "nn.H.lstm0", "nn.H.lstm1",
          "nn.H.dense"}) {
      s.push_back({std::string(layer) + ".fwd_us_per_sample",
                   "us"});
      s.push_back({std::string(layer) + ".bwd_us_per_sample",
                   "us"});
    }
    for (const char* shape : {"64x13x256", "64x64x256", "64x64x1",
                              "64x104x256", "16x9x156", "4x16x156",
                              "8x36x156"}) {
      s.push_back({std::string("tensor.gemm.") + shape + ".gflops",
                   "GFLOP/s"});
      s.push_back({std::string("tensor.gemm.") + shape + ".mbytes", "MB"});
    }
    const std::vector<MetricSpec> tail = {
        {"tensor.gemm_ceiling_gflops", "GFLOP/s"},
        {"tensor.gemm_share", "ratio"},
        {"tensor.elementwise_share", "ratio"},
        {"pool.regions_per_anchor", "count"},
        {"pool.inline_share", "ratio"},
        {"pool.chunks_per_region", "count"},
        {"pool.parallel_for_share", "ratio"},
        {"pool.regions_per_sample", "count"},
        {"train.mse_step_ms_p50", "ms"},
        {"train.adv_round_ms_p50", "ms"},
        {"train.adv_time_share", "ratio"},
        {"train.generator_rounds", "count"},
        {"trace.overhead_share", "ratio"},
        {"trace.dropped_events", "count"},
        {"trace.unattributed_share", "ratio"},
    };
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return specs;
}

void MetricSet::Set(const std::string& name, double value, size_t samples,
                    const std::string& note) {
  values_[name] = {value, samples, note};
}

void MetricSet::Emit(const std::vector<MetricSpec>& specs,
                     Report* report) const {
  for (const MetricSpec& spec : specs) {
    auto it = values_.find(spec.name);
    if (it == values_.end()) {
      report->Metric(spec.name, 0.0, spec.unit, 0, true,
                     "(not exercised by this workload)");
    } else {
      report->Metric(spec.name, it->second.value, spec.unit,
                     it->second.samples, true, it->second.note);
    }
  }
}

namespace {

int Usage() {
  std::cerr << "usage: apots_perfbench prepare --models DIR [--model "
               "lstm|hybrid|all]\n"
               "       apots_perfbench run --workload "
               "serve_live|serve_scan|train_adv --seed N --seconds S "
               "--trace 0|1 --models DIR --out DIR\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

int RunCommand(const Options& options) {
  const bool serve = options.workload != "train_adv";
  const size_t nproc = Nproc();
  // Thread budget: never more runnable threads than processors. The serve
  // workloads run the load generator and the Frontend consumer with a
  // serial pool: with nproc - 2 pool workers every GEMM of a batch is a
  // parallel region, and on a 4-core host that made serving both slower
  // and far noisier (README, "Thread budget"). train_adv runs the full
  // pool on the training thread.
  const size_t pool = serve ? 1 : nproc;
  apots::ResetGlobalPool(pool);

  Report report;
  report.Header("workload", options.workload);
  report.Header("seed", std::to_string(options.seed));
  report.Header("seconds", std::to_string(options.seconds));
  report.Header("mode", options.trace ? "traced (per-layer metrics)"
                                      : "untraced (end-to-end metrics)");
  report.Header("host.cpu", CpuModel());
  report.Header("host.isa", apots::tensor::ActiveIsaLabel());
  report.Header("host.nproc", std::to_string(nproc));
  report.Header("host.compiler", PERFBENCH_COMPILER);
  report.Header("host.build_type", PERFBENCH_BUILD_TYPE);
  report.Header("threads",
                serve ? "generator 1 + frontend consumer as pool caller 1 + "
                        "pool workers 0 (serial pool)"
                      : "trainer as pool caller 1 + pool workers " +
                            std::to_string(pool - 1));
  report.Header("kernel_mode", apots::tensor::KernelModeName(
                                   apots::tensor::GetKernelMode()));
  report.Header("quantize", apots::tensor::QuantModeName(
                                apots::core::InferenceConfig().quantize));
  report.Header("models",
                "served LSTM and trained Hybrid at Table-I ratios, "
                "PredictorHparams::Scaled(divisor " +
                    std::to_string(kWidthDivisor) + ")");

  RunTotals totals;
  if (options.workload == "serve_live") {
    totals = RunServeLive(options, &report);
  } else if (options.workload == "serve_scan") {
    totals = RunServeScan(options, &report);
  } else if (options.workload == "train_adv") {
    totals = RunTrainAdv(options, &report);
  } else {
    return Usage();
  }
  std::cout << report.JsonLine(std::max<uint64_t>(1, totals.attempted),
                               totals.failed)
            << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  if (argc < 2) return perfbench::Usage();
  const std::string command = argv[1];
  if (command == "list-metrics") {
    for (const auto& spec : perfbench::EndToEndSpecs()) {
      std::cout << "end_to_end " << spec.name << " " << spec.unit << "\n";
    }
    for (const auto& spec : perfbench::PerLayerSpecs()) {
      std::cout << "per_layer " << spec.name << " " << spec.unit << "\n";
    }
    return 0;
  }
  Options options;
  std::string which = "all";
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && perfbench::ParseUint(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && perfbench::ParseUint(value, &number) &&
               number >= 1 && number <= 3600) {
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--models") {
      options.models_dir = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--model") {
      which = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (options.models_dir.empty()) return perfbench::Usage();
  if (command == "prepare") return perfbench::Prepare(options.models_dir, which);
  if (command != "run" || options.out_dir.empty()) return perfbench::Usage();
  return perfbench::RunCommand(options);
}
