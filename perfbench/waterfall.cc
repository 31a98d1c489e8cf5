#include "waterfall.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"

namespace perfbench {

int TraceData::Id(const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  names.push_back(name);
  return static_cast<int>(names.size() - 1);
}

uint32_t TraceData::ThreadOf(const std::string& name) const {
  std::map<uint32_t, size_t> counts;
  for (const Span& s : spans) {
    if (names[static_cast<size_t>(s.name)] == name) ++counts[s.tid];
  }
  uint32_t best = kBenchTid;
  size_t best_count = 0;
  for (const auto& [tid, count] : counts) {
    if (count > best_count) {
      best = tid;
      best_count = count;
    }
  }
  return best;
}

std::vector<double> TraceData::DurationsMs(const std::string& name, bool self,
                                           uint32_t tid) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (names[static_cast<size_t>(s.name)] != name) continue;
    if (tid != UINT32_MAX && s.tid != tid) continue;
    out.push_back(static_cast<double>(self ? self_ns[i] : s.dur()) / 1e6);
  }
  return out;
}

double TraceData::SumMs(const std::string& name, bool self,
                        uint32_t tid) const {
  double total = 0.0;
  for (double v : DurationsMs(name, self, tid)) total += v;
  return total;
}

size_t TraceData::Count(const std::string& name) const {
  return DurationsMs(name, false).size();
}

TraceData CollectTrace(const BenchTrace& bench, int64_t recorder_epoch_ns) {
  TraceData data;
  auto& recorder = apots::obs::TraceRecorder::Default();
  data.dropped_events = recorder.DroppedEvents();
  std::map<const char*, int> ids;
  for (const auto& event : recorder.Snapshot()) {
    auto it = ids.find(event.name);
    if (it == ids.end()) it = ids.emplace(event.name, data.Id(event.name)).first;
    Span span;
    span.name = it->second;
    span.tid = event.tid;
    span.depth = event.depth;
    span.start = recorder_epoch_ns + event.start_ns;
    span.end = span.start + event.dur_ns;
    data.spans.push_back(span);
  }
  for (const BenchSpan& b : bench.spans) {
    Span span;
    span.name = data.Id(b.name);
    span.tid = kBenchTid + b.lane;
    span.start = b.start;
    span.end = b.end;
    data.spans.push_back(span);
  }
  data.self_ns = SelfTimes(data.spans);
  return data;
}

namespace {

// Spans of one thread sorted by start, with the longest duration, so the
// spans overlapping a window can be found by binary search.
struct ThreadIndex {
  std::vector<Span> spans;
  int64_t max_dur = 0;

  ThreadIndex(const TraceData& trace, uint32_t tid) {
    for (const Span& s : trace.spans) {
      if (s.tid == tid) {
        spans.push_back(s);
        max_dur = std::max(max_dur, s.dur());
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
  }

  std::map<int, int64_t> Attribute(uint32_t tid, int64_t lo,
                                   int64_t hi) const {
    auto first = std::lower_bound(
        spans.begin(), spans.end(), lo - max_dur,
        [](const Span& s, int64_t t) { return s.start < t; });
    std::vector<Span> window;
    for (auto it = first; it != spans.end() && it->start < hi; ++it) {
      if (it->end > lo) window.push_back(*it);
    }
    return AttributeWindow(window, tid, lo, hi);
  }
};

// Indices of the items whose total lies in the middle fifth of the
// distribution (at least one item): the "median" band.
std::vector<size_t> MedianBand(const std::vector<int64_t>& totals) {
  std::vector<size_t> order(totals.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&totals](size_t a, size_t b) { return totals[a] < totals[b]; });
  if (order.empty()) return order;
  const size_t n = order.size();
  size_t lo = n * 2 / 5;
  size_t hi = std::max(lo + 1, n * 3 / 5);
  return std::vector<size_t>(order.begin() + static_cast<long>(lo),
                             order.begin() + static_cast<long>(hi));
}

Waterfall Average(const std::vector<std::map<std::string, int64_t>>& parts,
                  const std::vector<int64_t>& totals,
                  const std::vector<size_t>& band,
                  const std::vector<std::string>& order) {
  Waterfall w;
  w.band = band.size();
  if (band.empty()) return w;
  std::map<std::string, double> sums;
  double total = 0.0;
  for (size_t i : band) {
    total += static_cast<double>(totals[i]);
    for (const auto& [stage, ns] : parts[i]) {
      sums[stage] += static_cast<double>(ns);
    }
  }
  const double n = static_cast<double>(band.size());
  w.total_ms = total / n / 1e6;
  for (const std::string& stage : order) {
    auto it = sums.find(stage);
    if (it == sums.end()) continue;
    w.stages.emplace_back(stage, it->second / n / 1e6);
    sums.erase(it);
  }
  for (const auto& [stage, ns] : sums) {
    if (stage == "unattributed") continue;
    w.stages.emplace_back(stage, ns / n / 1e6);
  }
  auto un = sums.find("unattributed");
  w.unattributed_ms = un == sums.end() ? 0.0 : un->second / n / 1e6;
  return w;
}

}  // namespace

Waterfall RequestWaterfall(const TraceData& trace, uint32_t consumer_tid,
                           const std::vector<RequestTimes>& requests) {
  const ThreadIndex generator(trace, kBenchTid);
  const ThreadIndex consumer(trace, consumer_tid);
  std::vector<std::map<std::string, int64_t>> parts(requests.size());
  std::vector<int64_t> totals(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestTimes& r = requests[i];
    auto& part = parts[i];
    totals[i] = std::max<int64_t>(0, r.ready - r.due);
    // Before the send: whatever held the generator thread — the tick's
    // ingest, the barrier waiting for the previous tick, submitting other
    // requests — and its own lateness.
    for (const auto& [id, ns] : generator.Attribute(kBenchTid, r.due,
                                                    r.submit)) {
      if (id < 0) {
        part["generator.lateness"] += ns;
      } else {
        const std::string& name = trace.names[static_cast<size_t>(id)];
        part[name == "bench.submit" ? "generator.busy" : name] += ns;
      }
    }
    part["frontend.admit"] += std::max<int64_t>(0, r.submit_end - r.submit);
    const int64_t drained = std::max(r.drained, r.submit_end);
    part["frontend.queue_wait"] += std::max<int64_t>(0, drained - r.submit_end);
    const int64_t ready = std::max(r.ready, drained);
    for (const auto& [id, ns] :
         consumer.Attribute(consumer_tid, drained, ready)) {
      part[id < 0 ? "unattributed" : trace.names[static_cast<size_t>(id)]] +=
          ns;
    }
  }
  return Average(parts, totals, MedianBand(totals),
                 {"generator.lateness", "generator.busy", "bench.barrier",
                  "bench.ingest_tick", "frontend.admit", "frontend.queue_wait",
                  "frontend.cycle", "serve.predict", "infer.predict",
                  "infer.batch", "pool.parallel_for", "pool.worker"});
}

Waterfall TrialWaterfall(
    const TraceData& trace, uint32_t trainer_tid,
    const std::vector<std::pair<int64_t, int64_t>>& trials) {
  const ThreadIndex trainer(trace, trainer_tid);
  std::vector<std::map<std::string, int64_t>> parts(trials.size());
  std::vector<int64_t> totals(trials.size());
  for (size_t i = 0; i < trials.size(); ++i) {
    const auto [lo, hi] = trials[i];
    totals[i] = hi - lo;
    for (const auto& [id, ns] : trainer.Attribute(trainer_tid, lo, hi)) {
      parts[i][id < 0 ? "unattributed"
                      : trace.names[static_cast<size_t>(id)]] += ns;
    }
  }
  return Average(parts, totals, MedianBand(totals),
                 {"train.epoch", "train.mse_step", "train.adv_round",
                  "pool.parallel_for", "pool.worker"});
}

void PrintWaterfall(const std::string& title, const Waterfall& w,
                    Report* report) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "waterfall %s: %.4f ms over the %zu items around the median "
                "(self time of the deepest span, per stage)",
                title.c_str(), w.total_ms, w.band);
  report->Line(line);
  for (const auto& [stage, ms] : w.stages) {
    std::snprintf(line, sizeof(line), "  %-24s %10.4f ms  %6.2f%%",
                  stage.c_str(), ms,
                  w.total_ms > 0 ? 100.0 * ms / w.total_ms : 0.0);
    report->Line(line);
  }
  std::snprintf(line, sizeof(line), "  %-24s %10.4f ms  %6.2f%%",
                "unattributed", w.unattributed_ms,
                100.0 * w.unattributed_share());
  report->Line(line);
}

}  // namespace perfbench
