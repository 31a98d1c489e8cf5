#include "logic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile q among n samples, in [1, n].
size_t NearestRank(size_t n, double q) {
  const double clamped = std::min(1.0, std::max(0.0, q));
  // The epsilon keeps exact products such as 0.99 * 1000 from rounding up
  // to the next rank.
  const double raw = std::ceil(clamped * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(raw)));
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool PercentileSupported(size_t n, double q, size_t min_beyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

std::vector<double> MakeLadder(double lo, double hi, double ratio) {
  std::vector<double> rungs;
  if (lo <= 0.0 || ratio <= 1.0) return rungs;
  for (double rate = lo; rate <= hi * (1.0 + 1e-12); rate *= ratio) {
    rungs.push_back(rate);
  }
  return rungs;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSustainable:
      return "sustainable";
    case Verdict::kTooFewSamples:
      return "too_few_samples";
    case Verdict::kGeneratorLate:
      return "invalid_generator_late";
    case Verdict::kLatency:
      return "p99_over_limit";
    case Verdict::kFailed:
      return "failed_share_over_limit";
    case Verdict::kBacklog:
      return "backlog_growth";
  }
  return "unknown";
}

Verdict Judge(const StepResult& step, const LadderLimits& limits) {
  if (step.generator_late_p99_ms > limits.max_generator_late_ms) {
    return Verdict::kGeneratorLate;
  }
  const double failed_share =
      step.attempted == 0 ? 1.0
                          : static_cast<double>(step.failed) /
                                static_cast<double>(step.attempted);
  if (failed_share > limits.max_failed_share) return Verdict::kFailed;
  if (step.backlog_end - step.backlog_start > limits.max_backlog_growth) {
    return Verdict::kBacklog;
  }
  if (!PercentileSupported(step.samples, 0.99)) return Verdict::kTooFewSamples;
  if (step.p99_ms > limits.p99_limit_ms) return Verdict::kLatency;
  return Verdict::kSustainable;
}

int SearchLadder(size_t rungs, const std::function<bool(size_t)>& probe,
                 std::vector<size_t>* probed) {
  int best = -1;
  size_t lo = 0;
  size_t hi = rungs;  // search [lo, hi)
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (probed != nullptr) probed->push_back(mid);
    if (probe(mid)) {
      best = static_cast<int>(mid);
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return best;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  if (hi <= lo) return 0;
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t a = std::max(start, cursor);
    const int64_t b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
    if (cursor >= hi) break;
  }
  return covered;
}

namespace {

// Span indices sorted so that every parent precedes its children: by
// thread, then start, then longer first, then shallower first.
std::vector<size_t> NestingOrder(const std::vector<Span>& spans) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start != y.start) return x.start < y.start;
    if (x.end != y.end) return x.end > y.end;
    return x.depth < y.depth;
  });
  return order;
}

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  std::vector<size_t> stack;
  uint32_t tid = std::numeric_limits<uint32_t>::max();
  for (const size_t i : NestingOrder(spans)) {
    const Span& span = spans[i];
    if (span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    // The innermost open span on this thread that contains `span` is its
    // parent; spans that ended (or end before it does) are closed.
    while (!stack.empty() && spans[stack.back()].end < span.end) {
      stack.pop_back();
    }
    if (!stack.empty()) children[stack.back()].emplace_back(span.start,
                                                            span.end);
    stack.push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur() -
              CoveredNs(std::move(children[i]), spans[i].start, spans[i].end);
  }
  return self;
}

std::map<int, int64_t> AttributeWindow(const std::vector<Span>& spans,
                                       uint32_t tid, int64_t lo, int64_t hi) {
  std::map<int, int64_t> out;
  if (hi <= lo) return out;
  std::vector<const Span*> active;
  std::vector<int64_t> cuts = {lo, hi};
  for (const Span& span : spans) {
    if (span.tid != tid || span.end <= lo || span.start >= hi) continue;
    active.push_back(&span);
    if (span.start > lo) cuts.push_back(span.start);
    if (span.end < hi) cuts.push_back(span.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int64_t a = cuts[c];
    const int64_t b = cuts[c + 1];
    const Span* deepest = nullptr;
    for (const Span* span : active) {
      if (span->start > a || span->end < b) continue;
      if (deepest == nullptr || span->depth > deepest->depth ||
          (span->depth == deepest->depth && span->start > deepest->start)) {
        deepest = span;
      }
    }
    out[deepest == nullptr ? -1 : deepest->name] += b - a;
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t k, double s) : cdf_(std::max<size_t>(1, k)) {
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Sample(apots::Rng* rng) const {
  const double u = rng->Uniform();
  return static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::vector<long> UniformPermutation(long lo, long hi, uint64_t seed) {
  if (hi < lo) return {};
  std::vector<size_t> order(static_cast<size_t>(hi - lo + 1));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  apots::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<long> out;
  out.reserve(order.size());
  for (const size_t i : order) out.push_back(lo + static_cast<long>(i));
  return out;
}

std::vector<int64_t> UniformArrivals(size_t count, int64_t span_ns,
                                     apots::Rng* rng) {
  std::vector<int64_t> offsets(count);
  for (int64_t& off : offsets) {
    off = static_cast<int64_t>(rng->Uniform() * static_cast<double>(span_ns));
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

}  // namespace perfbench
