#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark: model shapes, the report
// printer, the benchmark's own span store and the workload entry points.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/apots_model.h"
#include "logic.h"
#include "serve/harness.h"

namespace perfbench {

// ------------------------------------------------------------ model shapes

/// Table-I widths divided by this (PredictorHparams::Scaled): LSTM
/// hidden 64/64, CNN channels 16/4/8, discriminator 32/16/8/4.
constexpr size_t kWidthDivisor = 8;
constexpr int kAlpha = 12;
constexpr int kBeta = 3;
/// Epochs the prepare step trains each model for.
constexpr int kLstmEpochs = 8;
constexpr int kHybridEpochs = 4;

/// The serving stack every serve workload stands up: the default 122-day
/// DatasetSpec, the LSTM at kWidthDivisor, and either the default seeded
/// FeedFaultSpec (`faulty_feed`) or a clean feed.
apots::serve::HarnessConfig ServedHarnessConfig(bool faulty_feed,
                                                int train_epochs);
/// The APOTS Hybrid (CNN + LSTM) with its discriminator, as train_adv
/// trains it.
apots::core::ApotsConfig HybridConfig();
/// The served LSTM's model config outside a harness (same architecture and
/// parameter order as the harness builds).
apots::core::ApotsConfig LstmConfig();

std::string LstmCheckpoint(const std::string& models_dir);
std::string HybridCheckpoint(const std::string& models_dir);

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string models_dir;
  std::string out_dir;
};

// ------------------------------------------------------------------ helpers

/// steady_clock nanoseconds (the clock the Frontend and the trace recorder
/// use).
int64_t NowNs();
/// Sleeps, then spins, until steady_clock reaches `deadline_ns`.
void SleepUntil(int64_t deadline_ns);
/// Sets the calling thread's timer slack to 1 us so SleepUntil's sleeps end
/// close to their deadline. Threads inherit the slack, so the generator
/// calls it only once the serving threads exist: their own sleeps keep the
/// default slack.
void EnterGenerator();
/// Processors this process may run on (sched_getaffinity).
size_t Nproc();
double PeakRssMb();
double Median(std::vector<double> values);

// ------------------------------------------------------------------- report

/// Prints the human-readable report line by line and collects the metrics
/// for the closing JSON line.
class Report {
 public:
  void Header(const std::string& key, const std::string& value);
  void Phase(const std::string& name, size_t attempted, size_t succeeded,
             size_t failed, const std::string& note = "");
  void Check(const std::string& name, bool pass, const std::string& detail);
  /// A metric printed in the report. Only `json` metrics go into the
  /// closing JSON line; the others are report-only (context for a reader).
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples, bool json, const std::string& note = "");
  void Line(const std::string& text);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string JsonLine(uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> json_metrics_;
  bool all_pass_ = true;
};

// --------------------------------------------------------- benchmark spans

/// The benchmark's own spans around the public calls it makes, kept in
/// memory and written out at exit next to the program's trace. `id` is the
/// benchmark-assigned request (or trial) id; 0 for spans with no request.
struct BenchSpan {
  const char* name = nullptr;
  uint64_t id = 0;
  /// 0: the benchmark's driving thread; 1: request lifetimes (submit to
  /// ready), which overlap each other and the driving thread's spans.
  uint32_t lane = 0;
  int64_t start = 0;  ///< steady_clock ns
  int64_t end = 0;
};

struct BenchTrace {
  bool enabled = false;
  std::vector<BenchSpan> spans;
  void Add(const char* name, uint64_t id, int64_t start, int64_t end,
           uint32_t lane = 0) {
    if (enabled) spans.push_back({name, id, lane, start, end});
  }
};

/// Writes the benchmark spans as Chrome trace_event JSON.
bool WriteBenchSpans(const BenchTrace& trace, const std::string& path);

/// Prints `message` to stderr and ends the process with exit code 1
/// without printing a result (threads may still be running, so no static
/// destructors run).
[[noreturn]] void Fail(const std::string& message);

// ------------------------------------------------------------------ metrics

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// "end_to_end" lists the same names and units).
const std::vector<MetricSpec>& EndToEndSpecs();
/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// "per_layer").
const std::vector<MetricSpec>& PerLayerSpecs();

/// Collects metric values by name and emits exactly the names of a spec
/// list, in its order. A name the workload did not measure is emitted as 0
/// and marked "not exercised by this workload" in the report.
class MetricSet {
 public:
  void Set(const std::string& name, double value, size_t samples,
           const std::string& note = "");
  void Emit(const std::vector<MetricSpec>& specs, Report* report) const;

 private:
  struct Value {
    double value;
    size_t samples;
    std::string note;
  };
  std::map<std::string, Value> values_;
};

// ---------------------------------------------------------------- workloads

/// What a workload run hands back for the closing JSON line.
struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

RunTotals RunServeLive(const Options& options, Report* report);
RunTotals RunServeScan(const Options& options, Report* report);
RunTotals RunTrainAdv(const Options& options, Report* report);

/// Trains and saves both models (the prepare step).
int Prepare(const std::string& models_dir, const std::string& which);

// -------------------------------------------------------------- layer probe

/// Times each layer of the served LSTM (workspace inference forward) and
/// of the Hybrid (training forward and backward) at the workloads' batch
/// shape, and MatmulInto at every GEMM shape those layers issue. Sets the
/// nn.* and tensor.* per-layer metrics and checks that the layer times
/// add up to the whole predictor's.
void RunLayerProbe(apots::core::ApotsModel* lstm,
                   const std::vector<long>& lstm_anchors,
                   apots::core::ApotsModel* hybrid,
                   const std::vector<long>& hybrid_anchors, MetricSet* metrics,
                   Report* report, BenchTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
