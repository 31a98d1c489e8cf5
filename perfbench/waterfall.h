#ifndef PERFBENCH_WATERFALL_H_
#define PERFBENCH_WATERFALL_H_

// Trace analysis of a traced run: collects the program's spans (the obs
// TraceRecorder) and the benchmark's own spans onto one clock, computes
// per-span self time, and splits the median request (or training trial)
// into the stages its time went to.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "logic.h"

namespace perfbench {

/// Thread id given to the benchmark's own spans (the load generator or the
/// training loop) so they never nest with program spans.
constexpr uint32_t kBenchTid = 1u << 30;

struct TraceData {
  std::vector<std::string> names;  ///< stage id -> span name
  std::vector<Span> spans;         ///< absolute steady_clock ns
  std::vector<int64_t> self_ns;    ///< per span, see SelfTimes
  uint64_t dropped_events = 0;

  int Id(const std::string& name);
  /// Recorder thread on which spans called `name` occur most often
  /// (e.g. the Frontend consumer for "frontend.cycle"); kBenchTid if none.
  uint32_t ThreadOf(const std::string& name) const;
  /// Durations (or self times) in ms of every span called `name`,
  /// optionally restricted to one thread.
  std::vector<double> DurationsMs(const std::string& name, bool self,
                                  uint32_t tid = UINT32_MAX) const;
  double SumMs(const std::string& name, bool self,
               uint32_t tid = UINT32_MAX) const;
  size_t Count(const std::string& name) const;
};

/// Snapshots the global TraceRecorder (which must already be disabled),
/// merges the benchmark spans and computes self times. `recorder_epoch_ns`
/// is the steady_clock time of the recorder's Enable().
TraceData CollectTrace(const BenchTrace& bench, int64_t recorder_epoch_ns);

/// One request's timeline, in steady_clock ns.
struct RequestTimes {
  int64_t due = 0;         ///< when the open-loop schedule wanted it sent
  int64_t submit = 0;      ///< SubmitAsync called
  int64_t submit_end = 0;  ///< SubmitAsync returned
  int64_t drained = 0;     ///< taken off the queue by the consumer
  int64_t ready = 0;       ///< response ready
};

struct Waterfall {
  /// Stage -> mean ms over the median band, in a stable order.
  std::vector<std::pair<std::string, double>> stages;
  double total_ms = 0.0;        ///< mean latency (or trial time) of the band
  double unattributed_ms = 0.0;
  size_t band = 0;              ///< items averaged (those around the median)
  double unattributed_share() const {
    return total_ms > 0.0 ? unattributed_ms / total_ms : 0.0;
  }
};

/// Splits the requests around the median latency into stages: generator
/// lateness and blocking (benchmark spans on the generator thread), admission,
/// queue wait, and the deepest program span on the consumer thread while the
/// request was in service. Time in service covered by no span is
/// unattributed.
Waterfall RequestWaterfall(const TraceData& trace, uint32_t consumer_tid,
                           const std::vector<RequestTimes>& requests);

/// Splits the training trials around the median trial time into the
/// deepest program span on the training thread; uncovered time is
/// unattributed.
Waterfall TrialWaterfall(const TraceData& trace, uint32_t trainer_tid,
                         const std::vector<std::pair<int64_t, int64_t>>& trials);

void PrintWaterfall(const std::string& title, const Waterfall& waterfall,
                    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WATERFALL_H_
