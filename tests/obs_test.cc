// Tests for the observability layer: metrics registry, virtual-time tracer
// (including Chrome trace_event JSON round-trip), the bench JSON writer,
// per-stage cycle accounting, and an end-to-end harness run with everything
// enabled.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "harness/bench_util.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/exec.h"

namespace utps {
namespace {

using obs::MetricsRegistry;
using obs::Observer;
using obs::ObsConfig;
using obs::Tracer;

// ------------------------------------------------------------ JSON checker
//
// Minimal recursive-descent JSON parser: validates syntax only (no DOM), so
// the tracer's output is checked to be well-formed, not just "looks like
// JSON". Strict enough for the subset the tracer emits.
class JsonChecker {
 public:
  explicit JsonChecker(std::string s)
      : s_(std::move(s)), p_(s_.data()), end_(s_.data() + s_.size()) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return p_ == end_;  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      p_++;
    }
  }

  bool Value() {
    if (p_ >= end_) {
      return false;
    }
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    p_++;  // '{'
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (p_ >= end_ || *p_ != ':') {
        return false;
      }
      p_++;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != '}') {
      return false;
    }
    p_++;
    return true;
  }

  bool Array() {
    p_++;  // '['
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != ']') {
      return false;
    }
    p_++;
    return true;
  }

  bool String() {
    if (p_ >= end_ || *p_ != '"') {
      return false;
    }
    p_++;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        p_++;
        if (p_ >= end_) {
          return false;
        }
        if (*p_ == 'u') {
          for (int i = 0; i < 4; i++) {
            p_++;
            if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
              return false;
            }
          }
        }
      } else if (static_cast<unsigned char>(*p_) < 0x20) {
        return false;  // raw control characters are invalid in JSON strings
      }
      p_++;
    }
    if (p_ >= end_) {
      return false;
    }
    p_++;
    return true;
  }

  bool Number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') {
      p_++;
    }
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                         *p_ == '-')) {
      p_++;
    }
    return p_ > start;
  }

  bool Literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; c++) {
      if (p_ >= end_ || *p_ != *c) {
        return false;
      }
      p_++;
    }
    return true;
  }

  std::string s_;  // owned: callers may pass temporaries
  const char* p_;
  const char* end_;
};

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    n++;
  }
  return n;
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterPointerIsStableAndCumulative) {
  MetricsRegistry m;
  uint64_t* c = m.Counter("nic", "rx", 0);
  *c += 5;
  // Force more registrations (deque storage must not move existing entries).
  for (int i = 1; i < 200; i++) {
    *m.Counter("nic", "rx", i) += 1;
  }
  *c += 2;
  EXPECT_EQ(m.Value("nic", "rx", 0), 7u);
  EXPECT_EQ(m.Value("nic", "rx", 17), 1u);
  // Re-registering returns the same slot.
  EXPECT_EQ(m.Counter("nic", "rx", 0), c);
}

TEST(Metrics, GaugesAndCountsAndReset) {
  MetricsRegistry m;
  m.Count("mutps", "reconfigs");
  m.Count("mutps", "reconfigs", 3);
  m.SetGauge("mutps", "ncr", 9);
  m.SetGauge("mutps", "ncr", 4);  // gauges overwrite
  EXPECT_EQ(m.Value("mutps", "reconfigs"), 4u);
  EXPECT_EQ(m.Value("mutps", "ncr"), 4u);
  const std::string dump = m.ToString();
  EXPECT_NE(dump.find("mutps.reconfigs = 4"), std::string::npos);
  EXPECT_NE(dump.find("mutps.ncr = 4 (gauge)"), std::string::npos);
  m.Reset();
  EXPECT_EQ(m.Value("mutps", "reconfigs"), 0u);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, JsonRoundTripIsValidAndComplete) {
  Tracer t;
  t.SetProcessName(Tracer::kServerPid, "server");
  t.SetThreadName(Tracer::kServerPid, 0, "worker0");
  t.Span("cr", "op", Tracer::kServerPid, 0, 1000, 4500);
  t.Span("mr", "mr_batch", Tracer::kServerPid, 1, 2000, 2000);  // zero width
  t.Instant("mgr", "reconfigure", Tracer::kServerPid, 2, 7777);
  t.Counter("outstanding_w0", Tracer::kServerPid, 3000, 42);
  const std::string json = t.ToJson();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One "X" per span, one "i", one "C", two "M" metadata records.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"C\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 2u);
  // Timestamps are microseconds with sub-us decimals: 1000 ns -> 1.000 us,
  // duration 3500 ns -> 3.500 us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.500"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker0\""), std::string::npos);
}

TEST(Tracer, EscapesSpecialCharactersInNames) {
  Tracer t;
  const char* evil = t.Intern("a\"b\\c\nd\te");
  t.Span(evil, evil, 1, 0, 0, 10);
  const std::string json = t.ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(Tracer, BoundedBufferCountsDrops) {
  Tracer t(/*max_events=*/4);
  for (int i = 0; i < 10; i++) {
    t.Span("c", "n", 1, 0, i, i + 1);
  }
  EXPECT_EQ(t.num_events(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_TRUE(t.full());
  JsonChecker checker(t.ToJson());
  EXPECT_TRUE(checker.Valid());
}

TEST(Tracer, WriteFileRoundTrip) {
  Tracer t;
  t.Span("cr", "op", 1, 0, 100, 200);
  const std::string path = testing::TempDir() + "utps_trace_test.json";
  ASSERT_TRUE(t.WriteFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), t.ToJson());
  JsonChecker checker(ss.str());
  EXPECT_TRUE(checker.Valid());
  std::remove(path.c_str());
}

TEST(Tracer, WriteFileFailsOnBadPath) {
  Tracer t;
  EXPECT_FALSE(t.WriteFile("/nonexistent_dir_utps/trace.json"));
}

// ------------------------------------------------------- bench JSON writer

TEST(BenchJson, WritesExactTextAfterAOneLineHostMember) {
  bench::JsonWriter j;
  j.Str("bench", "a\"b\\c\nd");
  j.Int("seed", 42);
  j.Open("rows", '[');
  for (unsigned nodes = 1; nodes <= 2; nodes++) {
    j.Open(nullptr, '{', /*one_line=*/true);
    j.Int("nodes", nodes);
    j.Num("mops", 1.23456 * nodes, 4);
    j.Close();
  }
  j.Close();
  j.Open("crowd", '{');
  j.Num("pre_p99_us", 16.44, 1);
  j.Num("recovery_us", -1.0, 0);
  j.Open("timeline", '[', /*one_line=*/true);
  j.Num(nullptr, 0.0, 3);
  j.Num(nullptr, 3.65, 3);
  j.Close();
  j.Open("none", '[');
  j.Close();
  j.Close();
  const std::string text = j.Text();
  JsonChecker checker(text);
  EXPECT_TRUE(checker.Valid()) << text;

  // The host member is the second line; around it is exactly what was
  // written.
  const size_t host_begin = text.find('\n') + 1;
  const size_t host_end = text.find('\n', host_begin);
  EXPECT_EQ(text.substr(0, host_begin) + text.substr(host_end + 1), R"({
  "bench": "a\"b\\c\nd",
  "seed": 42,
  "rows": [
    {"nodes": 1, "mops": 1.2346},
    {"nodes": 2, "mops": 2.4691}
  ],
  "crowd": {
    "pre_p99_us": 16.4,
    "recovery_us": -1,
    "timeline": [0.000, 3.650],
    "none": []
  }
}
)");
  const std::string host = text.substr(host_begin, host_end - host_begin);
  EXPECT_TRUE(std::regex_match(
      host,
      std::regex(R"re(  "host": \{)re"
                 R"re("git_sha": "([0-9a-f]{40}(-dirty)?|unknown)", )re"
                 R"re("build_type": "[^"]+", "compiler": "[^"]+", )re"
                 R"re("host_cpus": \d+, "thp_mode": "[a-z]+", )re"
                 R"re("peak_rss_kb": \d+\},)re")))
      << host;
}

// ------------------------------------------------------- cycle accounting

sim::Fiber StagedWork(sim::ExecCtx* ctx) {
  {
    sim::StageScope s(*ctx, sim::Stage::kPoll);
    ctx->Charge(30);
  }
  {
    sim::StageScope s(*ctx, sim::Stage::kIndex);
    ctx->Charge(100);
  }
  ctx->Charge(7);  // outside any scope: books to kIdle
  co_await ctx->Yield();
}

TEST(CycleAccounting, ChargeAttributesToCurrentStage) {
  ObsConfig cfg;
  cfg.cycle_accounting = true;
  Observer obs(cfg, /*num_cores=*/2);
  sim::Engine eng;
  sim::ExecCtx ctx{.eng = &eng};
  ctx.stage_ns = obs.StageNs(1);
  eng.Spawn(StagedWork(&ctx));
  eng.RunToQuiescence(sim::kSec);

  const obs::CycleReport r = obs.BuildCycleReport(2, /*ops=*/1);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.total_ns[static_cast<unsigned>(sim::Stage::kPoll)], 30u);
  EXPECT_EQ(r.total_ns[static_cast<unsigned>(sim::Stage::kIndex)], 100u);
  EXPECT_EQ(r.total_ns[static_cast<unsigned>(sim::Stage::kIdle)], 7u);
  EXPECT_DOUBLE_EQ(r.busy_ns_per_op, 137.0);

  obs.ResetCycles();
  const obs::CycleReport r2 = obs.BuildCycleReport(2, 1);
  EXPECT_EQ(r2.total_ns[static_cast<unsigned>(sim::Stage::kPoll)], 0u);
}

TEST(CycleAccounting, MemoryStallIsAttributed) {
  ObsConfig cfg;
  cfg.cycle_accounting = true;
  Observer obs(cfg, 1);
  sim::MachineConfig mc;
  mc.num_cores = 1;
  sim::MemoryModel mem(mc);
  sim::Arena arena(1 << 20);
  uint8_t* p = arena.AllocateArray<uint8_t>(4096);
  sim::Engine eng;
  sim::ExecCtx ctx{.eng = &eng, .mem = &mem, .core = 0};
  ctx.stage_ns = obs.StageNs(0);
  auto fib = [](sim::ExecCtx* c, const void* addr) -> sim::Fiber {
    sim::StageScope s(*c, sim::Stage::kData);
    co_await c->Read(addr, 8);  // cold: DRAM miss, stall charged to kData
  };
  eng.Spawn(fib(&ctx, p));
  eng.RunToQuiescence(sim::kSec);
  const obs::CycleReport r = obs.BuildCycleReport(1, 1);
  ASSERT_TRUE(r.valid);
  // The fill latency (>= dram_ns) must land in the kData stage bucket.
  EXPECT_GE(r.total_ns[static_cast<unsigned>(sim::Stage::kData)], mc.dram_ns);
}

TEST(CycleAccounting, DisabledObserverHandsOutNull) {
  ObsConfig cfg;  // everything off
  Observer obs(cfg, 4);
  EXPECT_EQ(obs.StageNs(0), nullptr);
  EXPECT_EQ(obs.metrics(), nullptr);
  EXPECT_EQ(obs.tracer(), nullptr);
  EXPECT_FALSE(obs.BuildCycleReport(4, 100).valid);
}

// ---------------------------------------------------------------- spans

sim::Fiber SpannedFiber(sim::ExecCtx* ctx, Tracer* trc) {
  {
    obs::SpanScope s(trc, *ctx, "cr", "op", Tracer::kServerPid, 0);
    co_await ctx->Delay(250);
  }
  // Null tracer: must be a no-op, not a crash.
  obs::SpanScope none(nullptr, *ctx, "cr", "op", Tracer::kServerPid, 0);
}

TEST(SpanScope, RecordsVirtualInterval) {
  Tracer trc;
  sim::Engine eng;
  sim::ExecCtx ctx{.eng = &eng};
  eng.Spawn(SpannedFiber(&ctx, &trc));
  eng.RunToQuiescence(sim::kSec);
  ASSERT_EQ(trc.num_events(), 1u);
  const std::string json = trc.ToJson();
  // 250 ns span -> dur 0.250 us.
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos);
}

// ------------------------------------------------------------ end to end

TEST(ObsEndToEnd, HarnessRunEmitsReportAndTrace) {
  WorkloadSpec spec = WorkloadSpec::YcsbC(20'000, 64);
  TestBed bed(IndexType::kHash, spec, /*server_workers=*/6);

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = spec;
  cfg.client_threads = 8;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 200 * sim::kUsec;
  cfg.measure_ns = 300 * sim::kUsec;
  cfg.mutps.autotune = false;
  cfg.mutps.tune_llc = false;
  cfg.mutps.initial_ncr = 2;
  cfg.obs.metrics = true;
  cfg.obs.trace = true;
  cfg.obs.cycle_accounting = true;
  cfg.obs.trace_path = testing::TempDir() + "utps_e2e_trace.json";

  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.ops, 0u);

  // Cycle report: valid, per-op stage times positive and consistent.
  ASSERT_TRUE(res.cycles.valid);
  // Server- and client-side op counts differ only by window-edge in-flight
  // requests (NIC delivery delay), a tiny fraction of the total.
  EXPECT_NEAR(static_cast<double>(res.cycles.ops),
              static_cast<double>(res.ops), 0.05 * static_cast<double>(res.ops));
  EXPECT_GT(res.cycles.busy_ns_per_op, 0.0);
  double sum = 0.0;
  for (double v : res.cycles.ns_per_op) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, res.cycles.busy_ns_per_op,
              1e-6 * (res.cycles.busy_ns_per_op + 1.0));

  // Metrics: registry snapshot includes NIC, cache, engine and server rows.
  EXPECT_NE(res.metrics_dump.find("nic.rx_messages"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("cache.accesses"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("engine.events_processed"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("mutps.hot_hits"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("mutps.hotset_target"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("mutps.hotset_publishes"), std::string::npos);
  EXPECT_NE(res.metrics_dump.find("mutps.hotset_samples_dropped"),
            std::string::npos);
  EXPECT_EQ(res.hot_hits + res.hot_misses > 0, true);

  // Trace: file exists, parses as JSON, and contains the expected shapes.
  ASSERT_EQ(res.trace_file, cfg.obs.trace_path);
  EXPECT_GT(res.trace_events, 0u);
  std::ifstream in(res.trace_file);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(CountOccurrences(json, "\"ph\":\"X\""), 0u);
  EXPECT_NE(json.find("\"name\":\"manager\""), std::string::npos);
  EXPECT_NE(json.find("mr_batch"), std::string::npos);
  std::remove(res.trace_file.c_str());
}

// A traced, auto-tuned μTPS run whose window closes while the tuner is still
// searching: the manager fiber stays suspended inside the autotune and
// trisect_threads spans, and tearing the run down must close them while the
// server and tracer are alive. The sanitizer leg of run_checks.sh runs this
// test: under ASan, freeing the server before the fibers reports a
// heap-use-after-free in SpanScope::~SpanScope.
TEST(ObsEndToEnd, TracedRunEndingMidTuneTearsDownCleanly) {
  WorkloadSpec spec = WorkloadSpec::YcsbC(20'000, 64);
  TestBed bed(IndexType::kHash, spec, /*server_workers=*/6);

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = spec;
  cfg.client_threads = 8;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 200 * sim::kUsec;
  cfg.max_warmup_ns = 1 * sim::kMsec;
  cfg.measure_ns = 300 * sim::kUsec;
  // The first tuning pass starts ~1 ms in and runs for tens of ms.
  cfg.mutps.refresh_period_ns = 400 * sim::kUsec;
  cfg.obs.trace = true;
  cfg.obs.trace_path = testing::TempDir() + "utps_mid_tune_trace.json";

  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.ops, 0u);
  ASSERT_EQ(res.trace_file, cfg.obs.trace_path);
  std::ifstream in(res.trace_file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(res.trace_file.c_str());
  // The tuner measured at least once but never finished its search.
  EXPECT_NE(json.find("\"name\":\"measure_window\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"autotune\""), std::string::npos);
  // Each publish puts the published count and the target on counter tracks
  // beside its refresh_hotset span.
  EXPECT_NE(json.find("\"name\":\"refresh_hotset\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hotset_published\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hotset_target\""), std::string::npos);
}

// Observability off: the result carries no obs payloads (and the run is the
// tier-1 configuration, so this doubles as a smoke test that the default
// path is untouched).
TEST(ObsEndToEnd, DisabledByDefault) {
  WorkloadSpec spec = WorkloadSpec::YcsbC(10'000, 64);
  TestBed bed(IndexType::kHash, spec, 4);
  ExperimentConfig cfg;
  cfg.system = SystemKind::kBaseKv;
  cfg.workload = spec;
  cfg.client_threads = 4;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 100 * sim::kUsec;
  cfg.measure_ns = 200 * sim::kUsec;
  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.ops, 0u);
  EXPECT_FALSE(res.cycles.valid);
  EXPECT_TRUE(res.trace_file.empty());
  EXPECT_TRUE(res.metrics_dump.empty());
}

}  // namespace
}  // namespace utps
