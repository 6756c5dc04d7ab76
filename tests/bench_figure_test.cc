// bench::Figure, the runner that prints every figure bench's table rows:
// header and cells in the declared order and formats, rows printed from the
// ExperimentResult a point's closure returns, and PrintObsReport under each
// row. Also bench::Recovery, the timeline summary of fig15 and fig19.
#include <gtest/gtest.h>

#include <cstdarg>

#include "harness/bench_util.h"

namespace utps::bench {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::vector<std::string> Lines(const std::string& s) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t nl = s.find('\n', pos);
    lines.push_back(s.substr(pos, nl - pos));
    pos = nl == std::string::npos ? s.size() : nl + 1;
  }
  return lines;
}

// A BaseKV point on a 2000-key bed with a 100 μs window.
ExperimentResult RunTiny(bool cycle_accounting) {
  const WorkloadSpec spec = WorkloadSpec::YcsbA(2000, 8);
  ExperimentConfig cfg;
  cfg.system = SystemKind::kBaseKv;
  cfg.workload = spec;
  cfg.client_threads = 8;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 50 * sim::kUsec;
  cfg.measure_ns = 100 * sim::kUsec;
  cfg.max_warmup_ns = 1 * sim::kMsec;
  cfg.obs.cycle_accounting = cycle_accounting;
  return TestBed(IndexType::kHash, spec, /*server_workers=*/4).Run(cfg);
}

TEST(BenchFigure, PrintsHeaderAndCellsInDeclaredOrderAndFormats) {
  testing::internal::CaptureStdout();
  Figure fig;
  fig.Table("== Figure X: default columns ==", {"index", "system"});
  ExperimentResult ran;
  fig.Point({"hash", "BaseKV"}, [&] {
    ran = RunTiny(/*cycle_accounting=*/false);
    return ran;
  });
  fig.Table("\n== Figure Y: declared columns ==", {"size"},
            {{"miss", "%-14.3f", [](const auto& r) { return r.llc_miss_rate; }},
             kMops});
  fig.Point({"64"}, [&] { return ran; });
  const std::vector<std::string> lines =
      Lines(testing::internal::GetCapturedStdout());

  ASSERT_GT(ran.mops, 0.0);
  const std::vector<std::string> want = {
      "== Figure X: default columns ==",
      "index         system        Mops          p50(us)       p99(us)       ",
      "------------  ------------  ------------  ------------  ------------  ",
      // The format the hand-written rows of fig07-fig12 used.
      Format("%-14s%-14s%-14.2f%-14.2f%-14.2f", "hash", "BaseKV", ran.mops,
             ran.p50_ns / 1000.0, ran.p99_ns / 1000.0),
      "",
      "== Figure Y: declared columns ==",
      "size          miss          Mops          ",
      "------------  ------------  ------------  ",
      Format("%-14s%-14.3f%-14.2f", "64", ran.llc_miss_rate, ran.mops),
  };
  EXPECT_EQ(lines, want);
}

TEST(BenchFigure, PrintsACustomResultFromItsFields) {
  testing::internal::CaptureStdout();
  Figure fig;
  fig.Table("== replay ==", {"size", "system"},
            {kMops,
             {"stage1-miss", "%-14.3f",
              [](const auto& r) { return r.poll_miss_rate; }}});
  fig.Point({"8", "NP-TPS"}, [] {
    ExperimentResult r;
    r.mops = 41.256;
    r.poll_miss_rate = 0.0213;
    return r;
  });
  const std::vector<std::string> lines =
      Lines(testing::internal::GetCapturedStdout());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[3], "8             NP-TPS        41.26         0.021         ");
}

TEST(BenchFigure, PrintsCyclesUnderEveryRowWhenAccountingIsOn) {
  testing::internal::CaptureStdout();
  Figure fig;
  fig.Table("== cycles ==", {"point"});
  for (const char* point : {"first", "second"}) {
    fig.Point({point}, [] { return RunTiny(/*cycle_accounting=*/true); });
  }
  const std::vector<std::string> lines =
      Lines(testing::internal::GetCapturedStdout());

  ASSERT_EQ(lines.size(), 7u);
  for (size_t row : {3u, 5u}) {
    EXPECT_EQ(lines[row].rfind(row == 3 ? "first " : "second ", 0), 0u)
        << lines[row];
    EXPECT_EQ(lines[row + 1].rfind("  cycles/op (ns): poll ", 0), 0u)
        << lines[row + 1];
  }
}

// A timeline of 100 us buckets with both series.
ExperimentResult Timeline(std::vector<double> mops,
                          std::vector<sim::Tick> p99_ns) {
  ExperimentResult r;
  r.timeline_bucket_ns = 100 * sim::kUsec;
  r.timeline_mops = std::move(mops);
  r.timeline_p99_ns = std::move(p99_ns);
  return r;
}

// An event at 2.05 ms after a 1 ms warm-up: the baseline is buckets 10-19,
// and both recoveries count from the event, not from tick 0 or the warm-up.
TEST(BenchRecovery, TimesRecoveryFromTheEventAfterWarmup) {
  std::vector<double> mops(30, 10.0);
  std::vector<sim::Tick> p99(30, 20'000);
  mops[9] = 100.0;  // warm-up: outside the baseline
  p99[9] = 900'000;
  mops[15] = 12.0;  // inside the baseline: mean 10.2 Mops
  p99[15] = 40'000;  // mean 22 us
  mops[20] = 0.5;    // the event's own bucket is never a recovery
  for (size_t i = 21; i < 24; i++) {
    mops[i] = 5.0;
    p99[i] = 34'000;  // above 1.5x 22 us until bucket 22
  }
  p99[22] = 33'000;
  const RecoveryReport rep = Recovery(Timeline(mops, p99), 1 * sim::kMsec,
                                      2050 * sim::kUsec);
  EXPECT_EQ(rep.pre_buckets, 10u);
  EXPECT_DOUBLE_EQ(rep.pre_mops, 10.2);
  EXPECT_DOUBLE_EQ(rep.pre_p99_us, 22.0);
  EXPECT_DOUBLE_EQ(rep.tput_recovery_us, 350.0);  // bucket 24 at 2.4 ms
  EXPECT_DOUBLE_EQ(rep.p99_recovery_us, 150.0);   // bucket 22 at 2.2 ms
}

// A warm-up that ends inside a bucket leaves that bucket out of the
// baseline: only complete buckets count.
TEST(BenchRecovery, BaselineTakesOnlyCompleteBucketsAfterWarmup) {
  const RecoveryReport rep =
      Recovery(Timeline({1.0, 50.0, 4.0, 4.0, 0.0, 4.0}, {1, 2, 3, 3, 9, 3}),
               150 * sim::kUsec, 400 * sim::kUsec);
  EXPECT_EQ(rep.pre_buckets, 2u);
  EXPECT_DOUBLE_EQ(rep.pre_mops, 4.0);
  EXPECT_DOUBLE_EQ(rep.tput_recovery_us, 100.0);
  EXPECT_DOUBLE_EQ(rep.p99_recovery_us, 100.0);
}

// An event before the first complete bucket after warm-up leaves no
// baseline, so no recovery is reported: a zero baseline would make every
// later bucket look recovered.
TEST(BenchRecovery, EmptyBaselineReportsNoRecovery) {
  const ExperimentResult r =
      Timeline({0.0, 8.0, 9.0, 9.0}, {0, 10'000, 9'000, 9'000});
  for (const sim::Tick event : {sim::Tick{0}, 150 * sim::kUsec}) {
    const RecoveryReport rep = Recovery(r, 100 * sim::kUsec, event);
    EXPECT_EQ(rep.pre_buckets, 0u) << event;
    EXPECT_EQ(rep.tput_recovery_us, -1.0) << event;
    EXPECT_EQ(rep.p99_recovery_us, -1.0) << event;
  }
}

// A run that never gets back reports -1 for each rule it misses.
TEST(BenchRecovery, NoRecoveryWithinTheRun) {
  const RecoveryReport rep =
      Recovery(Timeline({5.0, 5.0, 1.0, 4.0, 4.4}, {10, 10, 90, 15, 16}),
               0, 200 * sim::kUsec);
  EXPECT_EQ(rep.pre_buckets, 2u);
  EXPECT_EQ(rep.tput_recovery_us, -1.0);
  EXPECT_DOUBLE_EQ(rep.p99_recovery_us, 100.0);
}

}  // namespace
}  // namespace utps::bench
