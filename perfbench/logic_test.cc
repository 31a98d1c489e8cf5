// Unit tests of the benchmark's pure logic. Build and run with
//   python3 perfbench/run.py --self-test

#include "logic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(shuffled, 0.5), 3.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of 1000 samples sits at rank 990 and leaves exactly 10 beyond.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(Ladder, GeometricRungs) {
  const auto rungs = MakeLadder(100, 200, 1.25);
  ASSERT_EQ(rungs.size(), 4u);  // 100, 125, 156.25, 195.3125
  EXPECT_DOUBLE_EQ(rungs[1], 125.0);
  EXPECT_TRUE(MakeLadder(0, 10, 2).empty());
  EXPECT_TRUE(MakeLadder(1, 10, 1.0).empty());
}

StepResult GoodStep() {
  StepResult s;
  s.attempted = 2000;
  s.samples = 2000;
  s.p99_ms = 5;
  s.backlog_start = 3;
  s.backlog_end = 4;
  return s;
}

LadderLimits Limits() {
  LadderLimits l;
  l.p99_limit_ms = 10;
  l.max_failed_share = 0.01;
  l.max_backlog_growth = 64;
  l.max_generator_late_ms = 1;
  return l;
}

TEST(Ladder, JudgeCoversEveryCondition) {
  EXPECT_EQ(Judge(GoodStep(), Limits()), Verdict::kSustainable);

  StepResult slow = GoodStep();
  slow.p99_ms = 10.5;
  EXPECT_EQ(Judge(slow, Limits()), Verdict::kLatency);

  StepResult at_limit = GoodStep();
  at_limit.p99_ms = 10;
  EXPECT_EQ(Judge(at_limit, Limits()), Verdict::kSustainable);

  StepResult shed = GoodStep();
  shed.failed = 21;  // 1.05% of 2000
  EXPECT_EQ(Judge(shed, Limits()), Verdict::kFailed);
  shed.failed = 20;  // exactly 1%
  EXPECT_EQ(Judge(shed, Limits()), Verdict::kSustainable);

  StepResult backlog = GoodStep();
  backlog.backlog_end = backlog.backlog_start + 65;
  EXPECT_EQ(Judge(backlog, Limits()), Verdict::kBacklog);

  StepResult few = GoodStep();
  few.samples = 999;
  EXPECT_EQ(Judge(few, Limits()), Verdict::kTooFewSamples);

  // A late generator invalidates the step even when everything else is
  // fine, and takes precedence over every other verdict.
  StepResult late = slow;
  late.generator_late_p99_ms = 2;
  EXPECT_EQ(Judge(late, Limits()), Verdict::kGeneratorLate);

  StepResult nothing;
  EXPECT_EQ(Judge(nothing, Limits()), Verdict::kFailed);
}

TEST(Ladder, BisectionFindsHighestSustainableRung) {
  for (int capacity = -1; capacity < 20; ++capacity) {
    std::vector<size_t> probed;
    const int best = SearchLadder(
        20, [capacity](size_t i) { return static_cast<int>(i) <= capacity; },
        &probed);
    EXPECT_EQ(best, capacity);
    EXPECT_LE(probed.size(), 5u);  // ceil(log2(21))
  }
  EXPECT_EQ(SearchLadder(0, [](size_t) { return true; }), -1);
}

TEST(Spans, CoveredIsAUnion) {
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}}, 8, 12), 4);
  EXPECT_EQ(CoveredNs({}, 0, 10), 0);
  EXPECT_EQ(CoveredNs({{0, 10}}, 10, 5), 0);
}

TEST(Spans, SelfTimeWithOverlappingChildren) {
  // Parent [0,100] on thread 1 with two children that overlap each other
  // ([10,40] and [30,60]) and a grandchild inside the first child.
  std::vector<Span> spans = {
      {0, 1, 0, 0, 100},
      {1, 1, 1, 10, 40},
      {2, 1, 1, 30, 60},
      {3, 1, 2, 15, 25},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50);  // union of [10,40] and [30,60]
  EXPECT_EQ(self[1], 30 - 10);   // minus the grandchild
  // The second child is not inside the first, so it has no children.
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, PoolSpansOnWorkerThreadsDoNotReduceTheCaller) {
  // The caller's parallel region [0,100] on thread 1 has a chunk on its
  // own thread [0,40]; workers 2 and 3 run chunks during the region. Only
  // the caller's own chunk counts as a child.
  std::vector<Span> spans = {
      {0, 1, 0, 0, 100},   // pool.parallel_for on the caller
      {1, 1, 1, 0, 40},    // pool.worker chunk on the caller
      {1, 2, 0, 5, 95},    // pool.worker on worker thread 2
      {1, 3, 0, 10, 90},   // pool.worker on worker thread 3
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 90);
  EXPECT_EQ(self[3], 80);
}

TEST(Spans, AttributeWindowPicksDeepestSpanAndSumsToWindow) {
  std::vector<Span> spans = {
      {0, 1, 0, 10, 90},  // cycle
      {1, 1, 1, 20, 80},  // predict
      {2, 1, 2, 30, 50},  // batch
      {7, 2, 0, 0, 100},  // another thread: ignored
  };
  const auto w = AttributeWindow(spans, 1, 0, 100);
  EXPECT_EQ(w.at(-1), 20);  // [0,10] and [90,100]
  EXPECT_EQ(w.at(0), 20);
  EXPECT_EQ(w.at(1), 40);
  EXPECT_EQ(w.at(2), 20);
  EXPECT_EQ(w.count(7), 0u);
  int64_t total = 0;
  for (const auto& [name, ns] : w) total += ns;
  EXPECT_EQ(total, 100);

  const auto clipped = AttributeWindow(spans, 1, 40, 60);
  EXPECT_EQ(clipped.at(2), 10);
  EXPECT_EQ(clipped.at(1), 10);
}

TEST(Generators, SeededAndReproducible) {
  // Pinned values: a platform or library change that alters the stream
  // would silently change every workload's inputs.
  EXPECT_EQ(UniformPermutation(0, 9, 3),
            (std::vector<long>{6, 7, 3, 4, 5, 2, 0, 9, 1, 8}));
  const ZipfSampler zipf(8, 1.1);
  apots::Rng zr(3);
  std::vector<size_t> ranks;
  for (int i = 0; i < 8; ++i) ranks.push_back(zipf.Sample(&zr));
  EXPECT_EQ(ranks, (std::vector<size_t>{2, 2, 0, 1, 1, 1, 0, 3}));
  apots::Rng ar(9);
  EXPECT_EQ(UniformArrivals(4, 1000, &ar),
            (std::vector<int64_t>{2, 132, 251, 732}));
  // Other seeds give other inputs.
  EXPECT_NE(UniformPermutation(0, 9, 3), UniformPermutation(0, 9, 4));
  apots::Rng zr4(4);
  std::vector<size_t> other;
  for (int i = 0; i < 8; ++i) other.push_back(zipf.Sample(&zr4));
  EXPECT_NE(ranks, other);
}

TEST(Generators, ZipfIsSkewedTowardTheNewestRank) {
  const ZipfSampler zipf(8, 1.1);
  double norm = 0.0;
  for (int r = 1; r <= 8; ++r) norm += std::pow(r, -1.1);
  apots::Rng a(3), b(3);
  std::vector<size_t> counts(8, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const size_t x = zipf.Sample(&a);
    ASSERT_EQ(x, zipf.Sample(&b));
    ASSERT_LT(x, 8u);
    ++counts[x];
  }
  for (int r = 0; r < 8; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kDraws,
                std::pow(r + 1, -1.1) / norm, 0.01);
  }
}

TEST(Generators, UniformPermutationIsDistinctAndSeeded) {
  const auto p = UniformPermutation(100, 199, 11);
  ASSERT_EQ(p.size(), 100u);
  EXPECT_EQ(std::set<long>(p.begin(), p.end()).size(), 100u);
  EXPECT_EQ(*std::min_element(p.begin(), p.end()), 100);
  EXPECT_EQ(*std::max_element(p.begin(), p.end()), 199);
  EXPECT_EQ(p, UniformPermutation(100, 199, 11));
  EXPECT_NE(p, UniformPermutation(100, 199, 12));
  EXPECT_TRUE(UniformPermutation(5, 4, 1).empty());
}

TEST(Generators, UniformArrivalsAreSortedSeededAndSpread) {
  apots::Rng a(5), b(5);
  constexpr int64_t kSpan = 20'000'000'000;  // 20 s
  const auto s = UniformArrivals(20000, kSpan, &a);
  ASSERT_EQ(s.size(), 20000u);
  EXPECT_EQ(s, UniformArrivals(20000, kSpan, &b));
  for (size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i], s[i - 1]);
  EXPECT_GE(s.front(), 0);
  EXPECT_LT(s.back(), kSpan);
  // About a tenth of the arrivals fall in each tenth of the span.
  EXPECT_NEAR(static_cast<double>(s[2000]) / kSpan, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(s[10000]) / kSpan, 0.5, 0.01);
}

}  // namespace
}  // namespace perfbench
