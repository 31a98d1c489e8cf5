#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

// Pure logic of the repository benchmark: percentile selection, the
// max-rate ladder, span self-time accounting and the seeded input
// generators. Apart from the library's seeded apots::Rng, nothing here
// touches the APOTS libraries, so every rule the report depends on is
// unit-tested in isolation (logic_test.cc).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

// ---------------------------------------------------------------- percentiles

/// Samples a percentile must leave beyond it before it is reported.
constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples. q in [0, 1]; an empty input yields 0.
double Percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank position of q: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// True when `n` samples leave at least `min_beyond` beyond percentile q.
bool PercentileSupported(size_t n, double q, size_t min_beyond = kMinBeyond);

// --------------------------------------------------------------------- ladder

/// Fixed geometric rate ladder: lo, lo*ratio, ... up to and including the
/// last rung <= hi (rates in requests per second).
std::vector<double> MakeLadder(double lo, double hi, double ratio);

/// What one ladder step measured.
struct StepResult {
  size_t attempted = 0;
  size_t failed = 0;           ///< shed, refused or unanswered
  size_t samples = 0;          ///< latencies recorded (answered requests)
  double p99_ms = 0.0;         ///< from due time
  double generator_late_p99_ms = 0.0;
  long backlog_start = 0;      ///< queue depth when the step began
  long backlog_end = 0;        ///< queue depth when the schedule ended
};

struct LadderLimits {
  double p99_limit_ms = 0.0;
  double max_failed_share = 0.01;
  /// Queue growth over a step above this many requests is a backlog.
  long max_backlog_growth = 0;
  /// Generator lateness p99 above this marks the step invalid.
  double max_generator_late_ms = 0.0;
};

enum class Verdict {
  kSustainable,
  kTooFewSamples,   ///< p99 not supported by the sample count
  kGeneratorLate,   ///< invalid: the load generator itself fell behind
  kLatency,         ///< p99 over the limit
  kFailed,          ///< failed share over the limit
  kBacklog,         ///< queue grew over the step
};
const char* VerdictName(Verdict verdict);

/// Judges one step. The generator check comes first: a step whose
/// schedule was not kept says nothing about the system.
Verdict Judge(const StepResult& step, const LadderLimits& limits);

/// Highest sustainable rung of a monotone ladder by bisection over rung
/// indices: `probe(i)` runs rung i and returns whether it was sustainable.
/// Returns -1 when not even rung 0 is. `probed` (optional) receives the
/// rung indices in the order they were run.
int SearchLadder(size_t rungs, const std::function<bool(size_t)>& probe,
                 std::vector<size_t>* probed = nullptr);

// ---------------------------------------------------------------------- spans

/// One closed interval of work on one thread, in nanoseconds.
struct Span {
  int name = 0;       ///< caller-assigned stage id
  uint32_t tid = 0;   ///< recording thread
  int depth = 0;      ///< nesting depth on that thread (0 = outermost)
  int64_t start = 0;
  int64_t end = 0;
  int64_t dur() const { return end - start; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

/// Self time of every span: its duration minus the part of it covered by
/// its children, where a child is a span on the SAME thread one level
/// deeper that lies inside the parent. Overlapping children count once
/// (union), and spans on other threads — e.g. pool workers running chunks
/// of a parallel region the parent waits on — never reduce the parent's
/// self time. Returns one value per input span, in input order.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Attributes every nanosecond of [lo, hi] to the deepest span active on
/// thread `tid` at that instant (by stage id); time covered by no span is
/// returned under id -1. The result sums to hi - lo.
std::map<int, int64_t> AttributeWindow(const std::vector<Span>& spans,
                                       uint32_t tid, int64_t lo, int64_t hi);

// ----------------------------------------------------------------- generators

// All generators draw from apots::Rng (xoshiro256**, SplitMix64-seeded):
// the same seed gives the same inputs on every platform and standard
// library.

/// Zipf over ranks 0..k-1 with P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t k, double s);
  size_t Sample(apots::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// A seeded uniform permutation of [lo, hi] (inclusive): distinct anchors
/// drawn uniformly without replacement.
std::vector<long> UniformPermutation(long lo, long hi, uint64_t seed);

/// Open-loop arrival offsets (ns from the phase start, ascending) of
/// `count` requests over `span_ns`: a Poisson process conditioned on its
/// count, so a phase always sends exactly rate x duration requests.
std::vector<int64_t> UniformArrivals(size_t count, int64_t span_ns,
                                     apots::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
