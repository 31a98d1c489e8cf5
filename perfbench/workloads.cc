// The three workloads of the repository benchmark (see README.md for why
// each exists and which layer metrics should move which end-to-end metric):
//
//   serve_live  tick-paced replay through the default seeded FeedFaultSpec,
//               Zipf-skewed requests over the newest anchors (coalescing,
//               the staleness ladder and ingest invalidations do the work);
//   serve_scan  distinct anchors drawn uniformly over the fully ingested
//               clean stream, sent in pages of 64 (GEMM, feature assembly
//               and cache misses do the work);
//   train_adv   APOTS adversarial training of the Hybrid with its
//               discriminator for a fixed step budget at the alpha:1
//               MSE:adversarial ratio.
//
// Every load is open-loop and comes from one generator thread. Latency is
// timed from the request's due time on the schedule, not from admission.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/inference_runtime.h"
#include "data/feature_cache.h"
#include "metrics/segmentation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "traffic/dataset_generator.h"
#include "util/thread_pool.h"
#include "waterfall.h"

namespace perfbench {

namespace {

using apots::serve::FrontendConfig;
using apots::serve::FrontendRequest;
using apots::serve::FrontendResponse;
using apots::serve::FrontendStats;
using apots::serve::RequestOutcome;
using apots::serve::ServeTier;
using apots::serve::SimulationHarness;

// --------------------------------------------------------------- constants
// All rates, limits and durations are fixed here; none is derived at run
// time, so two commits are always measured under the same load.

/// setup_s is the median of many set-ups spread over the run: a few before
/// the warm-up (the last one is the stack that gets measured), then more
/// between the reference parts (serve) or after every trial
/// (train_adv). One set-up takes 25-75 ms, and on a shared host the speed
/// of a processor changes for seconds at a time, so set-ups taken in one
/// burst all see the same host.
constexpr int kInitialSetups = 3;
constexpr int kSetupsPerRound = 3;
/// Requests per scan page (the Frontend's default max_batch).
constexpr size_t kPage = 64;

/// serve_live: one stream tick every 20 ms; requests pick one of the 8
/// newest anchors with Zipf(1.1) weights ("now" is the hottest key). The
/// repository has no request trace, so all three are assumptions; README.md
/// ("serve_live's traffic parameters") gives the reasons and shows what
/// changes when each one is halved or doubled.
constexpr double kLiveTickMs = 20.0;
constexpr size_t kLiveNewest = 8;
constexpr double kLiveZipf = 1.1;
/// The reference rate keeps the consumer busy enough that it rarely falls
/// into its idle sleep: at 8000/s it mostly slept between cycles, and the
/// p50 then followed how fast the host woke the idle processor (1.8 to
/// 3.1 ms between runs whose throughput agreed within 5%).
constexpr double kLiveRefRate = 16000.0;
constexpr double kLiveP99LimitMs = 50.0;
constexpr double kLiveLadderLo = 4000.0;
constexpr double kLiveLadderHi = 128000.0;

/// serve_scan: pages of 64 distinct anchors at a fixed page interval.
constexpr double kScanRefRate = 2048.0;
constexpr double kScanP99LimitMs = 150.0;
constexpr double kScanLadderLo = 512.0;
constexpr double kScanLadderHi = 16384.0;

/// Ladder rungs are 4% apart; a step is sustainable when its p99 (from due
/// time) is within the limit, at most 1% of requests failed, the queue grew
/// by at most one batch, and the generator's own lateness p99 stayed under
/// a tenth of the latency limit — a later generator could flip the verdict
/// by itself, so the step is invalid and is retried once. The limits sit
/// well above the p99 a stall adds at low load, so a step fails when its
/// queue builds up, not when the host hiccups.
constexpr double kLadderRatio = 1.04;
constexpr double kMaxFailedShare = 0.01;
constexpr double kMaxGeneratorLateShare = 0.1;
/// A ladder step sends at least this many requests: p99 needs 1000 samples
/// to leave 10 beyond it.
constexpr size_t kMinStepRequests = 1100;

/// Reference-phase latencies are summarized per window of this length
/// (>= 2000 answers at either reference rate, so each window supports p99).
constexpr double kRefWindowS = 1.0;
/// The tail percentile per window. Requests are not independent samples:
/// a host stall of 10 ms delays every request due during it, 1% of a
/// serve_live window, so its p99 only said whether the window held a stall
/// (it moved 56% between runs of the same code); p95 needs five. serve_scan's
/// requests arrive in pages of 64 that share one batch, so its 32 pages a
/// second are the samples: its p99 is a window's slowest page, and p90 (the
/// 3rd-4th slowest) is the highest tail that repeats.
constexpr double kLiveTailQ = 0.95;
constexpr double kScanTailQ = 0.9;

/// The reference phase runs as this many parts with set-ups between them,
/// so both sample the host across the whole run rather than one stretch of
/// it: on a shared host the speed of a processor changes for seconds at a
/// time.
constexpr int kRounds = 6;
/// Share of --seconds given to each serve phase (serve_scan's reference
/// phase makes the whole passes over the stream closest to its share).
constexpr double kWarmupShare = 0.04;
constexpr double kRefShare = 0.5;
constexpr double kStepShare = 0.05;

/// train_adv: one trial is one alpha:1 cycle — adv_period (= alpha = 12)
/// MSE minibatches of 64, the adversarial round that follows them, and one
/// more MSE minibatch. The round only accumulates the generator's gradient;
/// the next minibatch's optimizer step is what applies it, so without the
/// 13th minibatch no generator update would reach the weights.
constexpr size_t kTrainBatch = 64;
/// Trials in the fixed budget per second of --seconds.
constexpr double kTrialsPerSecond = 0.6;
/// Tail percentile of the per-step latency on train_adv: the budget's
/// MSE steps (12 per trial) leave at least 10 samples beyond p90.
constexpr double kTrainTailQ = 0.9;
/// Seed of the quality trial's minibatches (fixed: see RunTrainAdv).
constexpr uint64_t kQualityTrialSeed = 20220501;

/// peak_rss_mb is the process high-water mark once set-up and warm-up are
/// done: the serving (or training) stack, not the benchmark's own records
/// of the requests it sends later.
constexpr const char* kRssNote = "(high-water mark after set-up and warm-up)";

/// Trace ring per recording thread; sized so no event is dropped.
constexpr size_t kTraceEventsPerThread = size_t{1} << 20;

// ------------------------------------------------------------- utilities

std::string Fmt(const char* format, double a) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

// The set-up times, in the order they ran, for the report.
std::string SetupLine(const std::vector<double>& seconds) {
  std::string line = "set-up times (ms):";
  for (const double s : seconds) line += Fmt(" %.1f", s * 1e3);
  return line;
}

uint64_t CounterValue(const char* name) {
  return apots::obs::MetricsRegistry::Default().GetCounter(name).value();
}

struct Counters {
  uint64_t regions = 0, inline_runs = 0, chunks = 0, anchors = 0, hits = 0,
           misses = 0, keys = 0;
  double predict_ms = 0.0;  ///< time inside ServingSupervisor::Predict
  static Counters Read() {
    Counters c;
    c.keys = CounterValue("serve.requests");
    c.predict_ms = apots::obs::MetricsRegistry::Default()
                       .GetHistogram("serve.predict_ms")
                       .sum();
    c.regions = CounterValue("pool.regions");
    c.inline_runs = CounterValue("pool.inline_runs");
    c.chunks = CounterValue("pool.chunks");
    c.anchors = CounterValue("infer.anchors");
    c.hits = CounterValue("data.feature_cache.hits");
    c.misses = CounterValue("data.feature_cache.misses");
    return c;
  }
  Counters Minus(const Counters& o) const {
    Counters d;
    d.regions = regions - o.regions;
    d.inline_runs = inline_runs - o.inline_runs;
    d.chunks = chunks - o.chunks;
    d.anchors = anchors - o.anchors;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.keys = keys - o.keys;
    d.predict_ms = predict_ms - o.predict_ms;
    return d;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool IsAbrupt(const apots::traffic::TrafficDataset& truth, int road,
              long target) {
  return apots::metrics::ClassifyInstant(truth, road, target) !=
         apots::metrics::Segment::kNormal;
}

// Starts the global trace recorder; returns its epoch on steady_clock.
int64_t EnableTracing(uint64_t seed) {
  apots::obs::TraceOptions options;
  options.seed = seed;
  options.events_per_thread = kTraceEventsPerThread;
  auto& recorder = apots::obs::TraceRecorder::Default();
  recorder.Enable(options);
  return NowNs() - recorder.NowNs();
}

void WriteTraces(const Options& options, const BenchTrace& bench,
                 Report* report) {
  const std::string stem =
      options.out_dir + "/" + options.workload + "-seed" +
      std::to_string(options.seed);
  const bool ok =
      apots::obs::TraceRecorder::Default().WriteJson(stem + ".program.json") &&
      WriteBenchSpans(bench, stem + ".bench.json");
  report->Line(std::string("trace files: ") + stem +
               ".{program,bench}.json" + (ok ? "" : " (write failed)"));
}

// ------------------------------------------------------------ serve phases

struct Request {
  long anchor = 0;
  int64_t due = 0;         ///< schedule time
  int64_t free_at = 0;     ///< generator free to send (after tick barrier)
  int64_t submit = 0;
  int64_t submit_end = 0;
  std::shared_ptr<apots::serve::PendingResponse> handle;
  FrontendResponse response;
  double latency_ms = 0.0;  ///< due -> ready
};

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<Request> requests;
  long backlog_start = 0;
  long backlog_end = 0;
  int64_t first_due = 0;
  FrontendStats before, after;
  // serve_live only.
  std::vector<double> ingest_ms;
  apots::serve::StreamIngestor::Stats ingest_before, ingest_after;
  // Filled by Finish.
  std::vector<double> latency_ms;  ///< answered requests only
  std::vector<double> late_ms;
  size_t failed = 0;
  int64_t last_ready = 0;

  size_t attempted() const { return requests.size(); }
  double achieved_rate() const {
    const double span = static_cast<double>(last_ready - first_due) / 1e9;
    return span > 0.0 ? static_cast<double>(attempted() - failed) / span : 0.0;
  }
};

bool Failed(RequestOutcome outcome) {
  return outcome == RequestOutcome::kShedDeadline ||
         outcome == RequestOutcome::kShedOverload;
}

void Submit(apots::serve::Frontend* frontend, Request* r, BenchTrace* trace) {
  SleepUntil(r->due);
  r->submit = NowNs();
  FrontendRequest request;
  request.anchor = r->anchor;
  r->handle = frontend->SubmitAsync(request);
  r->submit_end = NowNs();
  trace->Add("bench.submit", 0, r->submit, r->submit_end);
}

// Waits for every response and derives latency (from the due time),
// generator lateness (from when the generator was free to send) and
// failures. Each request gets a benchmark span from submit to ready.
void Finish(apots::serve::Frontend* frontend, Phase* p, BenchTrace* trace,
            uint64_t* next_id) {
  for (Request& r : p->requests) {
    r.response = r.handle->Wait();
    r.handle.reset();
    const int64_t ready =
        r.submit + static_cast<int64_t>(r.response.total_ms * 1e6);
    r.latency_ms = static_cast<double>(ready - r.due) / 1e6;
    p->last_ready = std::max(p->last_ready, ready);
    p->late_ms.push_back(
        static_cast<double>(r.submit - std::max(r.due, r.free_at)) / 1e6);
    if (Failed(r.response.outcome)) {
      ++p->failed;
    } else {
      p->latency_ms.push_back(r.latency_ms);
    }
    trace->Add("bench.request", ++*next_id, r.submit, ready, /*lane=*/1);
  }
  p->after = frontend->stats();
}

StepResult ToStep(const Phase& p) {
  StepResult s;
  s.attempted = p.attempted();
  s.failed = p.failed;
  s.samples = p.latency_ms.size();
  s.p99_ms = Percentile(p.latency_ms, 0.99);
  s.generator_late_p99_ms = Percentile(p.late_ms, 0.99);
  s.backlog_start = p.backlog_start;
  s.backlog_end = p.backlog_end;
  return s;
}

void ReportPhase(const Phase& p, Report* report, const std::string& extra) {
  char note[256];
  std::snprintf(note, sizeof(note),
                "offered %.1f/s, achieved %.1f/s, p50 %.3f ms, p99 %.3f ms "
                "from due, generator late p99 %.3f ms, backlog %ld -> %ld%s",
                p.rate, p.achieved_rate(), Percentile(p.latency_ms, 0.5),
                Percentile(p.latency_ms, 0.99), Percentile(p.late_ms, 0.99),
                p.backlog_start, p.backlog_end, extra.c_str());
  report->Phase(p.name, p.attempted(), p.attempted() - p.failed, p.failed,
                note);
}

// Stands the serving stack up `count` times, each one from nothing
// (dataset, profiles, model, checkpoint load, optional full-stream ingest,
// Frontend), appends each set-up's time in seconds to `seconds` and keeps
// the last stack in `out`.
void SetUpServing(const Options& options, bool faulty_feed, bool ingest_all,
                  int count, std::unique_ptr<SimulationHarness>* out,
                  std::vector<double>* ingest_ms,
                  std::vector<double>* seconds) {
  for (int i = 0; i < count; ++i) {
    out->reset();  // tear the previous stack down first
    ingest_ms->clear();
    const int64_t t0 = NowNs();
    auto harness = std::make_unique<SimulationHarness>(
        ServedHarnessConfig(faulty_feed, /*train_epochs=*/0));
    const apots::Status loaded =
        harness->model().Load(LstmCheckpoint(options.models_dir));
    if (!loaded.ok()) {
      Fail("cannot load the served model (run the prepare step): " +
           loaded.ToString());
    }
    if (ingest_all) {
      bool more = true;
      while (more) {
        const int64_t a = NowNs();
        more = harness->IngestTick();
        ingest_ms->push_back(static_cast<double>(NowNs() - a) / 1e6);
      }
    }
    harness->EnableFrontend(FrontendConfig());
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    *out = std::move(harness);
  }
}

// serve_live: one phase of the tick-paced replay. Each tick first waits for
// the previous tick's requests (the ingestor mutates the live dataset the
// model reads, so ingest never overlaps inference), ingests the tick with
// IngestTick, then sends the requests due in the tick (UniformArrivals:
// exactly rate x duration of them).
void RunLivePhase(SimulationHarness* h, Phase* p, long ticks, apots::Rng* rng,
                  BenchTrace* trace) {
  static const ZipfSampler zipf(kLiveNewest, kLiveZipf);
  EnterGenerator();
  apots::serve::Frontend* frontend = h->frontend();
  p->before = frontend->stats();
  p->ingest_before = h->ingestor().stats();
  p->backlog_start = static_cast<long>(frontend->queue_depth());
  const int64_t tick_ns = static_cast<int64_t>(kLiveTickMs * 1e6);
  const size_t count = static_cast<size_t>(
      std::llround(p->rate * static_cast<double>(ticks) * kLiveTickMs / 1e3));
  const std::vector<int64_t> offsets =
      UniformArrivals(count, ticks * tick_ns, rng);
  p->requests.reserve(count);

  const int64_t start = NowNs() + 1'000'000;
  p->first_due = start;
  size_t next = 0;
  size_t pending = 0;
  for (long k = 0; k < ticks; ++k) {
    const int64_t tick_due = start + k * tick_ns;
    SleepUntil(tick_due);
    // Requests of earlier ticks still queued when this tick is due.
    p->backlog_end = static_cast<long>(frontend->queue_depth());
    const int64_t b0 = NowNs();
    for (; pending < p->requests.size(); ++pending) {
      p->requests[pending].handle->Wait();
    }
    const int64_t b1 = NowNs();
    trace->Add("bench.barrier", 0, b0, b1);
    if (!h->IngestTick()) Fail("serve_live ran out of stream ticks");
    const int64_t b2 = NowNs();
    trace->Add("bench.ingest_tick", 0, b1, b2);
    p->ingest_ms.push_back(static_cast<double>(b2 - b1) / 1e6);
    const long tick = h->next_tick() - 1;
    while (next < count && start + offsets[next] < tick_due + tick_ns) {
      Request r;
      r.due = start + offsets[next++];
      r.free_at = b2;
      r.anchor = tick - static_cast<long>(zipf.Sample(rng));
      Submit(frontend, &r, trace);
      p->requests.push_back(std::move(r));
    }
  }
  p->ingest_after = h->ingestor().stats();
}

// serve_scan: one phase of pages of kPage distinct anchors taken in order
// from a seeded permutation of the stream, one page every kPage / rate s.
void RunScanPhase(SimulationHarness* h, Phase* p, size_t count,
                  const std::vector<long>& order, size_t* cursor,
                  BenchTrace* trace) {
  EnterGenerator();
  apots::serve::Frontend* frontend = h->frontend();
  p->before = frontend->stats();
  p->backlog_start = static_cast<long>(frontend->queue_depth());
  const int64_t page_ns =
      static_cast<int64_t>(static_cast<double>(kPage) / p->rate * 1e9);
  p->requests.reserve(count);
  const int64_t start = NowNs() + 1'000'000;
  p->first_due = start;
  const size_t last_page = (count - 1) / kPage;
  for (size_t i = 0; i < count; ++i) {
    Request r;
    r.due = start + static_cast<int64_t>(i / kPage) * page_ns;
    r.free_at = r.due;
    r.anchor = order[(*cursor)++ % order.size()];
    if (i == last_page * kPage) {
      // What is still queued when the last page is due: the backlog the
      // schedule left, not the page about to be sent.
      SleepUntil(r.due);
      p->backlog_end = static_cast<long>(frontend->queue_depth());
    }
    Submit(frontend, &r, trace);
    p->requests.push_back(std::move(r));
  }
}

// Error of every answer (every tier) against ground truth at anchor+beta.
struct Accuracy {
  double mae = 0.0;
  double mae_abrupt = 0.0;
  size_t n = 0;
  size_t n_abrupt = 0;
};

Accuracy ScoreAnswers(const SimulationHarness& h,
                      const std::vector<Request>& requests) {
  Accuracy a;
  double sum = 0.0, sum_abrupt = 0.0;
  for (const Request& r : requests) {
    const long target = r.anchor + kBeta;
    const double err = std::fabs(
        r.response.serve.kmh - h.truth().Speed(h.target_road(), target));
    sum += err;
    ++a.n;
    if (IsAbrupt(h.truth(), h.target_road(), target)) {
      sum_abrupt += err;
      ++a.n_abrupt;
    }
  }
  a.mae = Ratio(sum, static_cast<double>(a.n));
  a.mae_abrupt = Ratio(sum_abrupt, static_cast<double>(a.n_abrupt));
  return a;
}

// The max-rate ladder: bisection over fixed rungs. `run_step` runs one
// step at a rate and returns its phase. An invalid step (the generator
// fell behind) is retried once.
template <typename RunStep>
double SearchMaxRate(const std::vector<double>& rungs,
                     const LadderLimits& limits, RunStep run_step,
                     Report* report, double* best_rung) {
  double best_achieved = 0.0;
  *best_rung = 0.0;
  auto probe = [&](size_t i) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      Phase step = run_step(rungs[i]);
      const Verdict verdict = Judge(ToStep(step), limits);
      ReportPhase(step, report, std::string(", ") + VerdictName(verdict));
      if (verdict == Verdict::kGeneratorLate) continue;
      if (verdict == Verdict::kSustainable && rungs[i] > *best_rung) {
        *best_rung = rungs[i];
        best_achieved = step.achieved_rate();
      }
      return verdict == Verdict::kSustainable;
    }
    return false;
  };
  SearchLadder(rungs.size(), probe);
  return best_achieved;
}

// Per-layer metrics of a traced serve phase.
void ServeLayerMetrics(const Phase& p, const TraceData& trace,
                       const Counters& delta, const SimulationHarness& h,
                       MetricSet* m) {
  std::vector<double> queue_ms;
  size_t tiers[apots::serve::kNumServeTiers] = {0, 0, 0, 0};
  double full_err = 0.0, degraded_err = 0.0;
  size_t full_n = 0, degraded_n = 0;
  for (const Request& r : p.requests) {
    queue_ms.push_back(r.response.queue_ms);
    const ServeTier tier = r.response.serve.tier;
    ++tiers[static_cast<int>(tier)];
    const double err =
        std::fabs(r.response.serve.kmh -
                  h.truth().Speed(h.target_road(), r.anchor + kBeta));
    if (tier == ServeTier::kFull) {
      full_err += err;
      ++full_n;
    } else {
      degraded_err += err;
      ++degraded_n;
    }
  }
  const size_t n = p.requests.size();
  const double dn = static_cast<double>(n);
  m->Set("frontend.queue_wait_p50_ms", Percentile(queue_ms, 0.5), n);
  const auto cycle_self = trace.DurationsMs("frontend.cycle", true);
  m->Set("frontend.cycle_self_ms_p50", Percentile(cycle_self, 0.5),
         cycle_self.size());
  std::vector<double> admit_us;
  for (const Request& r : p.requests) {
    admit_us.push_back(static_cast<double>(r.submit_end - r.submit) / 1e3);
  }
  m->Set("frontend.admit_us_p50", Percentile(admit_us, 0.5), n);
  const FrontendStats& a = p.after;
  const FrontendStats& b = p.before;
  const double answered = static_cast<double>(a.answered() - b.answered());
  m->Set("frontend.coalesce_rate",
         Ratio(static_cast<double>(a.coalesce_hits - b.coalesce_hits),
               answered),
         n);
  m->Set("frontend.keys_per_batch",
         Ratio(static_cast<double>(a.inferred_keys - b.inferred_keys),
               static_cast<double>(a.inference_calls - b.inference_calls)),
         a.inference_calls - b.inference_calls);
  m->Set("frontend.shed_share",
         Ratio(static_cast<double>(a.sheds() - b.sheds()),
               static_cast<double>(a.submitted - b.submitted)),
         n);
  const auto predict_self = trace.DurationsMs("serve.predict", true);
  m->Set("supervisor.predict_self_ms_p50", Percentile(predict_self, 0.5),
         predict_self.size(), "(ladder, staleness and fan-in)");
  m->Set("supervisor.tier_full_share", Ratio(tiers[0], dn), n);
  m->Set("supervisor.tier_imputed_share", Ratio(tiers[1], dn), n);
  m->Set("supervisor.tier_historical_share", Ratio(tiers[2], dn), n);
  m->Set("supervisor.tier_lkg_share", Ratio(tiers[3], dn), n);
  m->Set("supervisor.mae_full_kmh", Ratio(full_err, full_n), full_n);
  m->Set("supervisor.mae_degraded_kmh", Ratio(degraded_err, degraded_n),
         degraded_n);
  m->Set("data.cache_hit_rate",
         Ratio(static_cast<double>(delta.hits),
               static_cast<double>(delta.hits + delta.misses)),
         delta.hits + delta.misses);
  const auto predict = trace.DurationsMs("infer.predict", false);
  m->Set("runtime.predict_ms_p50", Percentile(predict, 0.5), predict.size());
  m->Set("runtime.batch_us_per_anchor",
         Ratio(trace.SumMs("infer.batch", false) * 1e3,
               static_cast<double>(delta.anchors)),
         delta.anchors);
  const double regions =
      static_cast<double>(delta.regions + delta.inline_runs);
  m->Set("pool.regions_per_anchor",
         Ratio(regions, static_cast<double>(delta.anchors)), delta.anchors);
  m->Set("pool.inline_share",
         Ratio(static_cast<double>(delta.inline_runs), regions),
         delta.regions + delta.inline_runs);
  m->Set("pool.chunks_per_region",
         Ratio(static_cast<double>(delta.chunks),
               static_cast<double>(delta.regions)),
         delta.regions);
  const uint32_t consumer = trace.ThreadOf("frontend.cycle");
  m->Set("pool.parallel_for_share",
         Ratio(trace.SumMs("pool.parallel_for", false, consumer),
               trace.SumMs("frontend.cycle", false, consumer)),
         trace.Count("pool.parallel_for"),
         "(of the consumer's cycle time)");
}

void IngestLayerMetrics(const std::vector<double>& tick_ms,
                        const apots::serve::StreamIngestor::Stats& before,
                        const apots::serve::StreamIngestor::Stats& after,
                        MetricSet* m) {
  const size_t ticks = tick_ms.size();
  const double dt = static_cast<double>(ticks);
  m->Set("ingest.tick_ms_p50", Percentile(tick_ms, 0.5), ticks);
  m->Set("ingest.tick_ms_max", Percentile(tick_ms, 1.0), ticks);
  const uint64_t records = (after.applied + after.duplicates + after.rejected) -
                           (before.applied + before.duplicates +
                            before.rejected);
  m->Set("ingest.records_per_tick", Ratio(static_cast<double>(records), dt),
         ticks);
  m->Set("ingest.invalidations_per_tick",
         Ratio(static_cast<double>(after.cache_invalidations -
                                   before.cache_invalidations),
               dt),
         ticks);
}

// data.assemble_us_per_anchor: AssembleBatchInto over the phase's anchors
// in their served order, in pages of kPage, with a private cache of the
// default capacity (so the hit pattern is the workload's).
void AssemblyProbe(const apots::core::ApotsModel& model,
                   const std::vector<Request>& requests, MetricSet* m,
                   BenchTrace* trace) {
  const auto& assembler = model.assembler();
  apots::data::FeatureCache cache(apots::core::InferenceConfig().cache_capacity);
  apots::tensor::Tensor out({kPage, static_cast<size_t>(assembler.NumRows()),
                             static_cast<size_t>(assembler.alpha())});
  std::vector<long> anchors;
  for (const Request& r : requests) anchors.push_back(r.anchor);
  int64_t total = 0;
  size_t assembled = 0;
  for (size_t lo = 0; lo + kPage <= anchors.size(); lo += kPage) {
    const int64_t t0 = NowNs();
    assembler.AssembleBatchInto(anchors.data() + lo, kPage, &cache, &out);
    const int64_t t1 = NowNs();
    trace->Add("probe.assemble_batch", 0, t0, t1);
    total += t1 - t0;
    assembled += kPage;
  }
  m->Set("data.assemble_us_per_anchor",
         Ratio(static_cast<double>(total) / 1e3,
               static_cast<double>(assembled)),
         assembled);
}

// Accounting checks shared by both serve workloads.
void ServeAccountingChecks(SimulationHarness* h, Report* report) {
  const FrontendStats stats = h->frontend()->stats();
  report->Check("frontend_accounting", stats.submitted == stats.answered(),
                "submitted " + std::to_string(stats.submitted) +
                    " == answered " + std::to_string(stats.answered()));
  const apots::serve::ServeReport serve = h->report();
  uint64_t tiers = 0;
  for (uint64_t c : serve.tier_counts) tiers += c;
  report->Check("tier_counts_sum", tiers == serve.requests,
                "tier counts " + std::to_string(tiers) +
                    " == ServeReport::requests " +
                    std::to_string(serve.requests));
}

// The reference phase, run as kRounds parts, merged into one phase for
// scoring. `windows` receives the answered
// latencies of each whole kRefWindowS window of each part's schedule (by
// due time); a part's trailing partial window is dropped.
Phase MergeReference(std::vector<Phase>* parts,
                     std::vector<std::vector<double>>* windows) {
  const int64_t width = static_cast<int64_t>(kRefWindowS * 1e9);
  Phase ref;
  ref.name = "reference";
  ref.rate = parts->front().rate;
  ref.first_due = parts->front().first_due;
  for (Phase& p : *parts) {
    const int64_t span = p.requests.back().due - p.first_due;
    const size_t first = windows->size();
    windows->resize(first + static_cast<size_t>(span / width));
    for (Request& r : p.requests) {
      const size_t w =
          first + static_cast<size_t>((r.due - p.first_due) / width);
      if (w < windows->size() && !Failed(r.response.outcome)) {
        (*windows)[w].push_back(r.latency_ms);
      }
      ref.requests.push_back(std::move(r));
    }
    ref.latency_ms.insert(ref.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    ref.late_ms.insert(ref.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    ref.failed += p.failed;
    ref.last_ready = std::max(ref.last_ready, p.last_ready);
    p.requests.clear();
  }
  return ref;
}

void ReportServeE2E(const Phase& ref,
                    const std::vector<std::vector<double>>& windows,
                    double tail_q, const Accuracy& acc,
                    const Counters& ref_delta, double max_rate,
                    double best_rung,
                    const std::vector<double>& setup_s, double rss_mb,
                    Report* report) {
  MetricSet m;
  const size_t n = ref.latency_ms.size();
  double sum = 0.0;
  for (const double v : ref.latency_ms) sum += v;
  m.Set("latency_mean_ms", Ratio(sum, static_cast<double>(n)), n,
        Fmt("(from due time at %.0f/s, every answered request)", ref.rate));
  report->Metric("latency_p50_ms", Percentile(ref.latency_ms, 0.5), "ms", n,
                 false, "(whole reference phase)");
  // The tail is taken per window and the median over windows reported: a
  // stall that hits one window moves that window's value, not the run's.
  std::vector<double> tails;
  for (const std::vector<double>& window : windows) {
    if (PercentileSupported(window.size(), tail_q)) {
      tails.push_back(Percentile(window, tail_q));
    }
  }
  m.Set("latency_tail_ms", Median(tails), n,
        Fmt("(p%.0f from due time per 1-s window, each window leaving >= 10 "
            "samples beyond it; median over windows)",
            100.0 * tail_q));
  std::string line = "reference windows (tail ms):";
  for (const double t : tails) line += Fmt(" %.3f", t);
  report->Line(line);
  report->Check("tail_windows", tails.size() >= 3,
                std::to_string(tails.size()) +
                    " reference windows support their tail percentile");
  report->Metric("latency_p99_ms", Percentile(ref.latency_ms, 0.99), "ms", n,
                 false,
                 Fmt("(whole reference phase; %.0f samples beyond it)",
                     static_cast<double>(SamplesBeyond(n, 0.99))));
  m.Set("throughput_per_s",
        Ratio(static_cast<double>(ref_delta.keys), ref_delta.predict_ms / 1e3),
        ref_delta.keys,
        "(keys answered per second inside ServingSupervisor::Predict at the "
        "reference rate)");
  report->Metric("max_rate_qps", max_rate, "1/s", 1, false,
                 Fmt("(achieved rate at the highest sustainable ladder rung, "
                     "%.1f/s offered)",
                     best_rung));
  m.Set("answered_share",
        Ratio(static_cast<double>(ref.attempted() - ref.failed),
              static_cast<double>(ref.attempted())),
        ref.attempted(), "(1 - failed_share at the reference rate)");
  m.Set("mae_kmh", acc.mae, acc.n, "(all answers, every tier)");
  m.Set("mae_abrupt_kmh", acc.mae_abrupt, acc.n_abrupt,
        "(answers whose target instant is abrupt)");
  m.Set("setup_s", Median(setup_s), setup_s.size(),
        "(median of set-ups; includes the checkpoint load)");
  report->Line(SetupLine(setup_s));
  m.Set("peak_rss_mb", rss_mb, 1, kRssNote);
  report->Metric("failed_share",
                 Ratio(static_cast<double>(ref.failed),
                       static_cast<double>(ref.attempted())),
                 "ratio", ref.attempted(), false);
  m.Emit(EndToEndSpecs(), report);
}

// The traced serve run at the reference rate: `run_half` runs half the
// reference phase, once untraced (the overhead baseline) and once with the
// TraceRecorder on. Then the per-layer metrics, the request waterfall and
// the layer probe.
RunTotals TracedServe(const Options& options, SimulationHarness* h,
                      BenchTrace* bench,
                      const std::function<Phase(const char*)>& run_half,
                      const std::vector<double>& setup_ingest_ms,
                      Report* report) {
  Phase base = run_half("reference_untraced");
  ReportPhase(base, report, "");
  bench->spans.clear();
  bench->enabled = true;
  const Counters c0 = Counters::Read();
  const int64_t epoch = EnableTracing(options.seed);
  Phase traced = run_half("reference_traced");
  apots::obs::TraceRecorder::Default().Disable();
  const Counters delta = Counters::Read().Minus(c0);
  ReportPhase(traced, report, "");
  const TraceData trace = CollectTrace(*bench, epoch);

  MetricSet m;
  ServeLayerMetrics(traced, trace, delta, *h, &m);
  if (traced.ingest_ms.empty()) {
    // serve_scan ingested its stream in set-up: report that ingest.
    IngestLayerMetrics(setup_ingest_ms, {}, h->ingestor().stats(), &m);
  } else {
    IngestLayerMetrics(traced.ingest_ms, traced.ingest_before,
                       traced.ingest_after, &m);
  }
  AssemblyProbe(h->model(), traced.requests, &m, bench);
  std::vector<RequestTimes> times;
  for (const Request& r : traced.requests) {
    times.push_back({r.due, r.submit, r.submit_end,
                     r.submit + static_cast<int64_t>(r.response.queue_ms * 1e6),
                     r.submit + static_cast<int64_t>(r.response.total_ms * 1e6)});
  }
  const Waterfall w =
      RequestWaterfall(trace, trace.ThreadOf("frontend.cycle"), times);
  PrintWaterfall("median request", w, report);
  const double base_p50 = Percentile(base.latency_ms, 0.5);
  m.Set("trace.overhead_share",
        Ratio(Percentile(traced.latency_ms, 0.5) - base_p50, base_p50),
        traced.latency_ms.size(), "(traced vs untraced p50 latency)");
  m.Set("trace.dropped_events", static_cast<double>(trace.dropped_events), 1);
  m.Set("trace.unattributed_share", w.unattributed_share(), w.band);

  apots::core::ApotsModel hybrid(&h->truth(), HybridConfig());
  if (!hybrid.Load(HybridCheckpoint(options.models_dir)).ok()) {
    Fail("cannot load the Hybrid checkpoint");
  }
  std::vector<long> lstm_anchors, hybrid_anchors;
  for (const Request& r : traced.requests) lstm_anchors.push_back(r.anchor);
  for (long a = kAlpha; hybrid_anchors.size() < kPage; a += 97) {
    hybrid_anchors.push_back(a);
  }
  RunLayerProbe(&h->model(), lstm_anchors, &hybrid, hybrid_anchors, &m,
                report, bench);

  report->Check("trace_dropped_events", trace.dropped_events == 0,
                std::to_string(trace.dropped_events) + " dropped");
  report->Check("waterfall_accounts_90pct", w.unattributed_share() <= 0.10,
                Fmt("stage self-times cover %.2f%% of the median request",
                    100.0 * (1.0 - w.unattributed_share())));
  ServeAccountingChecks(h, report);
  WriteTraces(options, *bench, report);
  m.Emit(PerLayerSpecs(), report);
  RunTotals totals;
  totals.attempted = traced.attempted();
  totals.failed = traced.failed;
  return totals;
}

}  // namespace

// =============================================================== serve_live

RunTotals RunServeLive(const Options& options, Report* report) {
  std::unique_ptr<SimulationHarness> h;
  std::vector<double> unused_ingest, setup_s;
  SetUpServing(options, /*faulty_feed=*/true, /*ingest_all=*/false,
               kInitialSetups, &h, &unused_ingest, &setup_s);
  // More set-ups, of stacks that are torn down again, between the rounds.
  auto spare_setups = [&] {
    std::unique_ptr<SimulationHarness> spare;
    SetUpServing(options, /*faulty_feed=*/true, /*ingest_all=*/false,
                 kSetupsPerRound, &spare, &unused_ingest, &setup_s);
  };
  report->Header("load", Fmt("open loop, one stream tick every %.0f ms, "
                             "Zipf(1.1) over the 8 newest anchors",
                             kLiveTickMs));
  report->Header("reference_rate", Fmt("%.0f requests/s", kLiveRefRate));
  report->Header("latency_limit", Fmt("p99 <= %.0f ms from due time",
                                      kLiveP99LimitMs));
  apots::Rng rng(options.seed);
  BenchTrace bench;
  uint64_t next_id = 0;
  const double ticks_per_s = 1e3 / kLiveTickMs;
  auto ticks_for = [&](double share) {
    return std::max<long>(
        10, std::lround(share * options.seconds * ticks_per_s));
  };
  auto live_phase = [&](const std::string& name, double rate, long ticks) {
    Phase p;
    p.name = name;
    p.rate = rate;
    RunLivePhase(h.get(), &p, ticks, &rng, &bench);
    Finish(h->frontend(), &p, &bench, &next_id);
    return p;
  };

  RunTotals totals;
  Phase warm = live_phase("warmup", kLiveRefRate, ticks_for(kWarmupShare));
  ReportPhase(warm, report, "");
  const double rss_mb = PeakRssMb();

  if (!options.trace) {
    std::vector<Phase> ref_parts;
    const Counters c0 = Counters::Read();
    for (int r = 1; r <= kRounds; ++r) {
      ref_parts.push_back(live_phase("reference_" + std::to_string(r),
                                     kLiveRefRate,
                                     ticks_for(kRefShare / kRounds)));
      ReportPhase(ref_parts.back(), report, "");
      spare_setups();
    }
    const Counters ref_delta = Counters::Read().Minus(c0);
    std::vector<std::vector<double>> windows;
    const Phase ref = MergeReference(&ref_parts, &windows);
    const std::vector<double> rungs =
        MakeLadder(kLiveLadderLo, kLiveLadderHi, kLadderRatio);
    LadderLimits limits;
    limits.p99_limit_ms = kLiveP99LimitMs;
    limits.max_failed_share = kMaxFailedShare;
    limits.max_backlog_growth = static_cast<long>(FrontendConfig().max_batch);
    limits.max_generator_late_ms = kMaxGeneratorLateShare * limits.p99_limit_ms;
    double best_rung = 0.0;
    const double max_rate = SearchMaxRate(
        rungs, limits,
        [&](double rate) {
          const long ticks = std::max<long>(
              ticks_for(kStepShare),
              std::lround(static_cast<double>(kMinStepRequests) / rate *
                          ticks_per_s) + 1);
          return live_phase("ladder_step", rate, ticks);
        },
        report, &best_rung);
    const Accuracy acc = ScoreAnswers(*h, ref.requests);
    report->Check("p99_supported",
                  PercentileSupported(ref.latency_ms.size(), 0.99),
                  std::to_string(SamplesBeyond(ref.latency_ms.size(), 0.99)) +
                      " samples beyond p99 (need 10)");
    report->Check("max_rate_found", best_rung > 0.0,
                  Fmt("highest sustainable rung %.1f/s", best_rung));
    report->Check("abrupt_instants_served", acc.n_abrupt > 0,
                  std::to_string(acc.n_abrupt) +
                      " answers for abrupt target instants");
    ServeAccountingChecks(h.get(), report);
    ReportServeE2E(ref, windows, kLiveTailQ, acc, ref_delta, max_rate,
                   best_rung, setup_s, rss_mb, report);
    totals.attempted = ref.attempted();
    totals.failed = ref.failed;
    return totals;
  }

  return TracedServe(
      options, h.get(), &bench,
      [&](const char* name) {
        return live_phase(name, kLiveRefRate, ticks_for(kRefShare / 2));
      },
      {}, report);
}

// =============================================================== serve_scan

RunTotals RunServeScan(const Options& options, Report* report) {
  std::unique_ptr<SimulationHarness> h;
  std::vector<double> ingest_ms, setup_s;
  SetUpServing(options, /*faulty_feed=*/false, /*ingest_all=*/true,
               kInitialSetups, &h, &ingest_ms, &setup_s);
  // More set-ups, of stacks that are torn down again, between the rounds.
  auto spare_setups = [&] {
    std::unique_ptr<SimulationHarness> spare;
    std::vector<double> unused_ingest;
    SetUpServing(options, /*faulty_feed=*/false, /*ingest_all=*/true,
                 kSetupsPerRound, &spare, &unused_ingest, &setup_s);
  };
  const long first = h->warmup_end();
  const long last = h->last_servable_tick();
  report->Header("load",
                 Fmt("open loop, pages of 64 distinct anchors drawn uniformly "
                     "over the %.0f ingested stream anchors",
                     static_cast<double>(last - first + 1)));
  report->Header("reference_rate", Fmt("%.0f requests/s", kScanRefRate));
  report->Header("latency_limit", Fmt("p99 <= %.0f ms from due time",
                                      kScanP99LimitMs));
  // The reference phase answers every stream anchor the same number of
  // times, each pass in its own seeded order: its error metrics are those
  // of one fixed evaluation set, and the seed changes the order, hence the
  // batches and the cache's hit pattern. The pass count fills about
  // kRefShare of --seconds. Warm-up and ladder steps draw from other seeded
  // permutations.
  const long passes = std::max(
      1L, std::lround(kRefShare * options.seconds * kScanRefRate /
                      static_cast<double>(last - first + 1)));
  std::vector<long> ref_order;
  for (long pass = 0; pass < passes; ++pass) {
    const std::vector<long> o = UniformPermutation(
        first, last, options.seed + static_cast<uint64_t>(pass) * 7919);
    ref_order.insert(ref_order.end(), o.begin(), o.end());
  }
  const std::vector<long> order =
      UniformPermutation(first, last, options.seed ^ 0x9e3779b97f4a7c15ULL);
  const std::vector<long> warm_order =
      UniformPermutation(first, last, options.seed ^ 0x5ca9f00dULL);
  BenchTrace bench;
  uint64_t next_id = 0;
  size_t cursor = 0;
  size_t ref_cursor = 0;
  size_t warm_cursor = 0;
  auto scan_phase = [&](const std::string& name, double rate, size_t count,
                        const std::vector<long>& from, size_t* at) {
    Phase p;
    p.name = name;
    p.rate = rate;
    RunScanPhase(h.get(), &p, count, from, at, &bench);
    Finish(h->frontend(), &p, &bench, &next_id);
    return p;
  };
  auto count_for = [&](double share, double rate) {
    return std::max<size_t>(
        kPage, static_cast<size_t>(share * options.seconds * rate));
  };

  RunTotals totals;
  Phase warm = scan_phase("warmup", kScanRefRate,
                          count_for(kWarmupShare, kScanRefRate), warm_order,
                          &warm_cursor);
  ReportPhase(warm, report, "");
  const double rss_mb = PeakRssMb();

  if (!options.trace) {
    std::vector<Phase> ref_parts;
    size_t ref_start = 0;
    const Counters c0 = Counters::Read();
    for (int r = 1; r <= kRounds; ++r) {
      // Parts are whole pages; the last one takes the remainder.
      const size_t ref_end =
          r == kRounds ? ref_order.size()
                       : ref_order.size() * r / kRounds / kPage * kPage;
      ref_parts.push_back(scan_phase("reference_" + std::to_string(r),
                                     kScanRefRate, ref_end - ref_start,
                                     ref_order, &ref_cursor));
      ref_start = ref_end;
      ReportPhase(ref_parts.back(), report, "");
      spare_setups();
    }
    const Counters ref_delta = Counters::Read().Minus(c0);
    std::vector<std::vector<double>> windows;
    const Phase ref = MergeReference(&ref_parts, &windows);
    const std::vector<double> rungs =
        MakeLadder(kScanLadderLo, kScanLadderHi, kLadderRatio);
    LadderLimits limits;
    limits.p99_limit_ms = kScanP99LimitMs;
    limits.max_failed_share = kMaxFailedShare;
    limits.max_backlog_growth = static_cast<long>(FrontendConfig().max_batch);
    limits.max_generator_late_ms = kMaxGeneratorLateShare * limits.p99_limit_ms;
    double best_rung = 0.0;
    const double max_rate = SearchMaxRate(
        rungs, limits,
        [&](double rate) {
          return scan_phase(
              "ladder_step", rate,
              std::max(kMinStepRequests, count_for(kStepShare, rate)), order,
              &cursor);
        },
        report, &best_rung);
    const Accuracy acc = ScoreAnswers(*h, ref.requests);

    // Bitwise: the first pass's full-tier answers (one per stream anchor)
    // equal the model's direct prediction.
    const size_t stream = static_cast<size_t>(last - first + 1);
    std::vector<long> full_anchors;
    std::vector<double> full_kmh;
    for (size_t i = 0; i < stream; ++i) {
      const Request& r = ref.requests[i];
      if (r.response.serve.tier == ServeTier::kFull) {
        full_anchors.push_back(r.anchor);
        full_kmh.push_back(r.response.serve.kmh);
      }
    }
    const std::vector<double> direct = h->DirectPredictKmh(full_anchors);
    size_t mismatches = 0;
    for (size_t i = 0; i < direct.size(); ++i) {
      if (std::memcmp(&direct[i], &full_kmh[i], sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    report->Check("bitwise_full_tier_vs_direct",
                  mismatches == 0 && !full_anchors.empty(),
                  std::to_string(full_anchors.size()) +
                      " full-tier answers, " + std::to_string(mismatches) +
                      " differ from DirectPredictKmh");

    // The served model has learned something: held-out error below half
    // an untrained model's of the same shape and below the profile's.
    apots::core::ApotsModel untrained(&h->truth(), LstmConfig());
    std::vector<long> held_out;
    std::vector<double> served;
    for (size_t i = 0; i < full_anchors.size(); i += 4) {
      held_out.push_back(full_anchors[i]);
      served.push_back(direct[i]);
    }
    const std::vector<double> raw = untrained.PredictKmh(held_out);
    double e_served = 0.0, e_raw = 0.0, e_profile = 0.0;
    for (size_t i = 0; i < held_out.size(); ++i) {
      const long target = held_out[i] + kBeta;
      const double truth = h->truth().Speed(h->target_road(), target);
      e_served += std::fabs(served[i] - truth);
      e_raw += std::fabs(raw[i] - truth);
      e_profile += std::fabs(
          h->supervisor().fallback().Predict(h->truth(), target) - truth);
    }
    const double hn = static_cast<double>(held_out.size());
    char detail[200];
    std::snprintf(detail, sizeof(detail),
                  "held-out MAE %.3f km/h vs untrained %.3f and historical "
                  "profile %.3f over %zu anchors",
                  e_served / hn, e_raw / hn, e_profile / hn, held_out.size());
    report->Check("served_model_trained",
                  e_served < 0.5 * e_raw && e_served < e_profile, detail);

    report->Check("p99_supported",
                  PercentileSupported(ref.latency_ms.size(), 0.99),
                  std::to_string(SamplesBeyond(ref.latency_ms.size(), 0.99)) +
                      " samples beyond p99 (need 10)");
    report->Check("max_rate_found", best_rung > 0.0,
                  Fmt("highest sustainable rung %.1f/s", best_rung));
    report->Check("abrupt_instants_served", acc.n_abrupt > 0,
                  std::to_string(acc.n_abrupt) +
                      " answers for abrupt target instants");
    ServeAccountingChecks(h.get(), report);
    ReportServeE2E(ref, windows, kScanTailQ, acc, ref_delta, max_rate,
                   best_rung, setup_s, rss_mb, report);
    totals.attempted = ref.attempted();
    totals.failed = ref.failed;
    return totals;
  }

  const size_t half = ref_order.size() / 2;
  return TracedServe(
      options, h.get(), &bench,
      [&](const char* name) {
        return scan_phase(name, kScanRefRate, half, ref_order, &ref_cursor);
      },
      ingest_ms, report);
}

// ================================================================ train_adv

namespace {

struct TrainStack {
  apots::traffic::TrafficDataset dataset;
  std::unique_ptr<apots::core::ApotsModel> model;
};

apots::core::ApotsConfig TrainAdvConfig() {
  apots::core::ApotsConfig config = HybridConfig();
  // The checkpoint's discriminator was trained by the prepare step, so it
  // is not the fresh D the warm-up rounds exist for: every adversarial
  // round of the budget takes its generator step.
  config.training.adv_warmup_rounds = 0;
  return config;
}

// Training anchors of a trial: `n` distinct anchors drawn uniformly from
// the warm-up half (the prepare step's training range).
std::vector<long> TrialAnchors(size_t n, long lo, long hi, apots::Rng* rng) {
  std::vector<long> out;
  out.reserve(n);
  std::vector<bool> taken(static_cast<size_t>(hi - lo), false);
  while (out.size() < n) {
    const long a = lo + static_cast<long>(rng->UniformInt(
                            static_cast<uint64_t>(hi - lo)));
    if (taken[static_cast<size_t>(a - lo)]) continue;
    taken[static_cast<size_t>(a - lo)] = true;
    out.push_back(a);
  }
  return out;
}

struct Trial {
  int64_t start = 0;
  int64_t end = 0;
  apots::core::EpochStats stats;
  double ms() const { return static_cast<double>(end - start) / 1e6; }
  bool finite() const {
    return std::isfinite(stats.mse_loss) && std::isfinite(stats.adv_loss_p) &&
           std::isfinite(stats.loss_d);
  }
};

Trial RunTrial(apots::core::ApotsModel* model, const std::vector<long>& anchors,
               uint64_t id, BenchTrace* trace) {
  Trial t;
  t.start = NowNs();
  t.stats = model->Train(anchors);
  t.end = NowNs();
  trace->Add("bench.trial", id, t.start, t.end);
  return t;
}

// Predictor weights (of `count` compared) that differ between two models of
// the same architecture.
size_t DifferingWeights(apots::core::ApotsModel* a, apots::core::ApotsModel* b,
                        size_t* count) {
  const auto pa = a->predictor().Parameters();
  const auto pb = b->predictor().Parameters();
  size_t differ = 0;
  *count = 0;
  for (size_t i = 0; i < pa.size() && i < pb.size(); ++i) {
    for (size_t j = 0; j < pa[i]->value.size(); ++j) {
      ++*count;
      if (pa[i]->value[j] != pb[i]->value[j]) ++differ;
    }
  }
  return differ;
}

}  // namespace

RunTotals RunTrainAdv(const Options& options, Report* report) {
  std::vector<double> setup_s;
  TrainStack stack;
  auto load_model = [&](const apots::traffic::TrafficDataset* dataset) {
    auto model =
        std::make_unique<apots::core::ApotsModel>(dataset, TrainAdvConfig());
    const apots::Status loaded =
        model->Load(HybridCheckpoint(options.models_dir));
    if (!loaded.ok()) {
      Fail("cannot load the Hybrid checkpoint (run the prepare step): " +
           loaded.ToString());
    }
    return model;
  };
  for (int i = 0; i < kInitialSetups; ++i) {
    stack.model.reset();
    const int64_t t0 = NowNs();
    stack.dataset =
        apots::traffic::GenerateDataset(apots::traffic::DatasetSpec());
    stack.model = load_model(&stack.dataset);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  // One more set-up, of a stack that is torn down again, after every
  // timed trial.
  auto spare_setup = [&] {
    TrainStack spare;
    const int64_t t0 = NowNs();
    spare.dataset =
        apots::traffic::GenerateDataset(apots::traffic::DatasetSpec());
    spare.model = load_model(&spare.dataset);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };
  // Every trial starts from the prepared checkpoint with a fresh trainer
  // and optimizer, so trials are independent and identically sized, and
  // the error after the last one does not drift with the number of trials.
  auto fresh = [&] {
    stack.model = load_model(&stack.dataset);
    return stack.model.get();
  };
  apots::core::ApotsModel* model = stack.model.get();
  const long intervals = stack.dataset.num_intervals();
  const long warm_end = intervals / 2;  // the harness's warm-up split
  const long train_lo = kAlpha;
  const long train_hi = warm_end - kBeta;
  const int road = model->assembler().target_road();
  const int trials = std::max(3, static_cast<int>(std::lround(
                                     kTrialsPerSecond * options.seconds)));
  const size_t adv_period =
      static_cast<size_t>(model->config().training.adv_period);
  const size_t trial_batches = adv_period + 1;
  const size_t trial_samples = trial_batches * kTrainBatch;
  report->Header("budget",
                 std::to_string(trials) + " trials of " +
                     std::to_string(adv_period) + " MSE minibatches of " +
                     std::to_string(kTrainBatch) +
                     " + 1 adversarial round (adv_period " +
                     std::to_string(adv_period) +
                     ", alpha:1) + 1 MSE minibatch whose step applies the "
                     "round's generator gradient, each from the prepared "
                     "checkpoint");

  apots::Rng rng(options.seed);
  BenchTrace bench;
  // Warm-up trial: allocator, pool threads and caches settle. It is also
  // the quality trial: its minibatches do not depend on the seed, and the
  // model it leaves is the one scored on the held-out half. One trial of
  // fresh Adam steps moves the held-out error by up to 15% depending on
  // which minibatches it saw, so scoring a seeded trial would measure the
  // seed; scoring fixed inputs measures the code.
  apots::Rng quality_rng(kQualityTrialSeed);
  const std::vector<long> quality_anchors =
      TrialAnchors(trial_samples, train_lo, train_hi, &quality_rng);
  const Trial warm = RunTrial(fresh(), quality_anchors, 0, &bench);
  const std::unique_ptr<apots::core::ApotsModel> quality =
      std::move(stack.model);
  report->Phase("warmup", 1, warm.finite() ? 1 : 0, warm.finite() ? 0 : 1,
                Fmt("%.3f ms (the quality trial)", warm.ms()));
  const double rss_mb = PeakRssMb();

  // The generator step reaches the weights: the quality trial repeated with
  // adv_weight = 0 (same seed, minibatches and discriminator steps, so only
  // the adversarial term of J_P differs) must end with other predictor
  // weights. A trial whose generator gradient is never applied would end
  // with the same ones.
  apots::core::ApotsConfig control_config = TrainAdvConfig();
  control_config.training.adv_weight = 0.0f;
  apots::core::ApotsModel control(&stack.dataset, control_config);
  if (!control.Load(HybridCheckpoint(options.models_dir)).ok()) {
    Fail("cannot load the Hybrid checkpoint");
  }
  control.Train(quality_anchors);
  size_t weights = 0;
  const size_t differ = DifferingWeights(quality.get(), &control, &weights);
  report->Check("generator_step_applied", differ > 0,
                std::to_string(differ) + " of " + std::to_string(weights) +
                    " predictor weights differ from the same trial with "
                    "adv_weight 0");

  auto& step_hist =
      apots::obs::MetricsRegistry::Default().GetHistogram("train.mse_step_ms");
  std::vector<Trial> untraced;
  int64_t epoch = 0;
  Counters c0;
  if (options.trace) {
    // Untraced trials for the tracing-overhead baseline.
    for (int i = 0; i < 3; ++i) {
      untraced.push_back(RunTrial(
          fresh(), TrialAnchors(trial_samples, train_lo, train_hi, &rng), 0,
          &bench));
    }
    bench.enabled = true;
    c0 = Counters::Read();
    epoch = EnableTracing(options.seed);
  }
  step_hist.Reset();
  std::vector<Trial> budget;
  for (int i = 0; i < trials; ++i) {
    const std::vector<long> anchors =
        TrialAnchors(trial_samples, train_lo, train_hi, &rng);
    budget.push_back(
        RunTrial(fresh(), anchors, static_cast<uint64_t>(i + 1), &bench));
    if (!options.trace) spare_setup();
  }
  model = stack.model.get();
  if (options.trace) apots::obs::TraceRecorder::Default().Disable();
  const Counters delta = Counters::Read().Minus(c0);

  size_t failed = 0, generator_rounds = 0;
  std::vector<double> trial_ms;
  for (const Trial& t : budget) {
    if (!t.finite()) ++failed;
    if (t.stats.adv_loss_p != 0.0) ++generator_rounds;
    trial_ms.push_back(t.ms());
  }
  const size_t samples = static_cast<size_t>(trials) * trial_samples;
  report->Phase("budget", static_cast<size_t>(trials),
                static_cast<size_t>(trials) - failed, failed,
                Fmt("median trial %.3f ms", Median(trial_ms)));
  report->Check("losses_finite", failed == 0,
                std::to_string(failed) + " trials with a non-finite loss");
  report->Check("generator_rounds",
                generator_rounds == static_cast<size_t>(trials),
                std::to_string(generator_rounds) + " of " +
                    std::to_string(trials) +
                    " timed trials computed a generator loss");

  RunTotals totals;
  totals.attempted = static_cast<uint64_t>(trials);
  totals.failed = failed;

  if (!options.trace) {
    // Held-out error after the quality trial's budget: the second half of
    // the dataset (never trained on), every 4th anchor.
    std::vector<long> held_out;
    for (long a = warm_end; a + kBeta < intervals; a += 4) held_out.push_back(a);
    auto score = [&](apots::core::ApotsModel* scored) {
      const std::vector<double> pred = scored->PredictKmh(held_out);
      const std::vector<double> truth = scored->TrueKmh(held_out);
      Accuracy a;
      double sum = 0.0, sum_abrupt = 0.0;
      for (size_t i = 0; i < held_out.size(); ++i) {
        const double err = std::fabs(pred[i] - truth[i]);
        sum += err;
        ++a.n;
        if (IsAbrupt(stack.dataset, road, held_out[i] + kBeta)) {
          sum_abrupt += err;
          ++a.n_abrupt;
        }
      }
      a.mae = Ratio(sum, static_cast<double>(a.n));
      a.mae_abrupt = Ratio(sum_abrupt, static_cast<double>(a.n_abrupt));
      return a;
    };
    const Accuracy acc = score(quality.get());
    const Accuracy without = score(&control);
    report->Metric("mae_kmh_without_generator_step", without.mae, "km/h",
                   without.n, false,
                   "(the quality trial with adv_weight 0)");
    report->Metric("mae_abrupt_kmh_without_generator_step",
                   without.mae_abrupt, "km/h", without.n_abrupt, false);
    MetricSet m;
    m.Set("latency_mean_ms",
          Ratio(step_hist.sum(), static_cast<double>(step_hist.count())),
          step_hist.count(), "(per MSE step, obs train.mse_step_ms)");
    report->Metric("latency_p50_ms", step_hist.Percentile(0.5), "ms",
                   step_hist.count(), false, "(per MSE step)");
    m.Set("latency_tail_ms", step_hist.Percentile(kTrainTailQ),
          step_hist.count(),
          Fmt("(p90 per MSE step; %.0f samples beyond it)",
              static_cast<double>(SamplesBeyond(step_hist.count(),
                                                kTrainTailQ))));
    m.Set("throughput_per_s",
          static_cast<double>(trial_samples) /
              (Median(trial_ms) / 1e3),
          budget.size(), "(samples_per_s: MSE samples / median trial time)");
    m.Set("answered_share",
          Ratio(static_cast<double>(trials - static_cast<int>(failed)),
                static_cast<double>(trials)),
          budget.size(), "(1 - failed_share: trials with finite losses)");
    m.Set("mae_kmh", acc.mae, acc.n,
          "(held-out anchors, after the quality trial's fixed minibatches)");
    m.Set("mae_abrupt_kmh", acc.mae_abrupt, acc.n_abrupt);
    m.Set("setup_s", Median(setup_s), setup_s.size(),
          "(median of set-ups; includes the checkpoint load)");
    report->Line(SetupLine(setup_s));
    m.Set("peak_rss_mb", rss_mb, 1, kRssNote);
    report->Check("tail_percentile_supported",
                  PercentileSupported(step_hist.count(), kTrainTailQ),
                  std::to_string(SamplesBeyond(step_hist.count(),
                                               kTrainTailQ)) +
                      " samples beyond p90 (need 10)");
    double budget_ms = 0.0;
    for (double v : trial_ms) budget_ms += v;
    report->Metric("samples_per_s", static_cast<double>(samples) /
                                        (budget_ms / 1e3),
                   "1/s", budget.size(), false,
                   "(MSE samples / whole budget time)");
    m.Emit(EndToEndSpecs(), report);
    return totals;
  }

  const TraceData trace = CollectTrace(bench, epoch);
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (const Trial& t : budget) windows.emplace_back(t.start, t.end);
  const Waterfall w =
      TrialWaterfall(trace, trace.ThreadOf("train.epoch"), windows);
  PrintWaterfall("median trial", w, report);
  std::vector<double> base_ms;
  for (const Trial& t : untraced) base_ms.push_back(t.ms());

  MetricSet m;
  const auto mse = trace.DurationsMs("train.mse_step", false);
  const auto adv = trace.DurationsMs("train.adv_round", false);
  m.Set("train.mse_step_ms_p50", Percentile(mse, 0.5), mse.size());
  m.Set("train.adv_round_ms_p50", Percentile(adv, 0.5), adv.size());
  double trial_total = 0.0;
  for (double v : trial_ms) trial_total += v;
  m.Set("train.adv_time_share",
        Ratio(trace.SumMs("train.adv_round", false), trial_total),
        adv.size());
  m.Set("train.generator_rounds", static_cast<double>(generator_rounds),
        budget.size());
  m.Set("pool.regions_per_sample",
        Ratio(static_cast<double>(delta.regions + delta.inline_runs),
              static_cast<double>(samples)),
        samples);
  m.Set("trace.overhead_share",
        Ratio(Median(trial_ms) - Median(base_ms), Median(base_ms)),
        budget.size(), "(traced vs untraced median trial time)");
  m.Set("trace.dropped_events", static_cast<double>(trace.dropped_events), 1);
  m.Set("trace.unattributed_share", w.unattributed_share(), w.band);

  apots::core::ApotsModel lstm(&stack.dataset, LstmConfig());
  if (!lstm.Load(LstmCheckpoint(options.models_dir)).ok()) {
    Fail("cannot load the served LSTM checkpoint");
  }
  std::vector<long> lstm_anchors;
  for (long a = warm_end; lstm_anchors.size() < 16 * kPage; a += 3) {
    lstm_anchors.push_back(a);
  }
  const std::vector<long> hybrid_anchors =
      TrialAnchors(kPage, train_lo, train_hi, &rng);
  RunLayerProbe(&lstm, lstm_anchors, model,
                hybrid_anchors,
                &m, report, &bench);
  report->Check("trace_dropped_events", trace.dropped_events == 0,
                std::to_string(trace.dropped_events) + " dropped");
  report->Check("waterfall_accounts_90pct", w.unattributed_share() <= 0.10,
                Fmt("stage self-times cover %.2f%% of the median trial",
                    100.0 * (1.0 - w.unattributed_share())));
  WriteTraces(options, bench, report);
  m.Emit(PerLayerSpecs(), report);
  return totals;
}

// ================================================================== prepare

int Prepare(const std::string& models_dir, const std::string& which) {
  // Training is not measured: one thread is the fastest configuration for
  // these small GEMMs, and the result is bit-identical at any pool size.
  apots::ResetGlobalPool(1);
  if (which == "lstm" || which == "all") {
    const int64_t t0 = NowNs();
    SimulationHarness harness(
        ServedHarnessConfig(/*faulty_feed=*/false, kLstmEpochs));
    const apots::Status saved = harness.model().Save(LstmCheckpoint(models_dir));
    if (!saved.ok()) Fail("cannot save the LSTM: " + saved.ToString());
    std::cerr << "prepare: served LSTM trained for " << kLstmEpochs
              << " epochs in " << static_cast<double>(NowNs() - t0) / 1e9
              << " s\n";
  }
  if (which == "hybrid" || which == "all") {
    const int64_t t0 = NowNs();
    const apots::traffic::TrafficDataset dataset =
        apots::traffic::GenerateDataset(apots::traffic::DatasetSpec());
    apots::core::ApotsConfig config = HybridConfig();
    config.training.epochs = kHybridEpochs;
    apots::core::ApotsModel model(&dataset, config);
    std::vector<long> anchors;
    for (long a = kAlpha; a + kBeta < dataset.num_intervals() / 2; ++a) {
      anchors.push_back(a);
    }
    const apots::core::EpochStats stats = model.Train(anchors);
    const apots::Status saved = model.Save(HybridCheckpoint(models_dir));
    if (!saved.ok()) Fail("cannot save the Hybrid: " + saved.ToString());
    std::cerr << "prepare: APOTS Hybrid trained for " << kHybridEpochs
              << " epochs in " << static_cast<double>(NowNs() - t0) / 1e9
              << " s (last epoch mse " << stats.mse_loss << ", adv_p "
              << stats.adv_loss_p << ")\n";
  }
  return 0;
}

}  // namespace perfbench
