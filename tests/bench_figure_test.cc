// bench::Figure, the runner that prints every figure bench's table rows:
// header and cells in the declared order and formats, rows printed from the
// ExperimentResult a point's closure returns, and PrintObsReport under each
// row.
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

}  // namespace
}  // namespace utps::bench
