// Shared helpers for the figure-reproduction benchmark binaries. Figure
// prints the tables of fig02 (2a, 2c), fig07-fig12 and fig17; the other
// benches print timelines, JSON files or cells of their own widths.
//
// Environment knobs (all optional):
//   MUTPS_DB_SIZE      database size in keys      (default 2,000,000)
//   MUTPS_BENCH_SCALE  measurement-window scale   (default 1.0)
//   MUTPS_QUICK        if set (non-zero), shrink sweep grids for smoke runs
//   MUTPS_TRACE        path: enable virtual-time tracing and write Chrome
//                      trace_event JSON there (open in Perfetto); successive
//                      points in a sweep overwrite it, so the file holds the
//                      last point's trace
//   MUTPS_CYCLES       if non-zero, print a per-op cycle-accounting breakdown
//                      under each Figure row and fig15 timeline (fig02b,
//                      fig13, fig14, fig16 and fig19 print none)
//   MUTPS_METRICS      if non-zero, dump the metrics registry there too
//   MUTPS_FAULTS       fault profile, e.g. "loss:0.01,dup:0.02" — see
//                      fault/fault.h for the full token list
//   MUTPS_WAL          durability profile, e.g. "mode:group,windowus:2" —
//                      see wal/wal.h for the full token list
//   MUTPS_SAMPLE       sampled-simulation profile, e.g.
//                      "on,period=1000000,window=120000,plan=random,seed=3" —
//                      see sim/sample.h for the full token list
//   MUTPS_JSON_OUT     path of the JSON file a bench that writes one
//                      (selfperf, fig16, fig19) saves to (default
//                      BENCH_<bench>.json in the working directory)
#ifndef UTPS_HARNESS_BENCH_UTIL_H_
#define UTPS_HARNESS_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/macros.h"
#include "harness/experiment.h"
#include "obs/trace.h"

namespace utps::bench {

inline uint64_t DbKeys() {
  // Default 2M keys: ~5x the modeled LLC for 64 B items, so cold paths are
  // genuinely memory-resident (the paper uses 10M on a 42 MB LLC); override
  // with MUTPS_DB_SIZE for paper-scale runs.
  return static_cast<uint64_t>(EnvInt("MUTPS_DB_SIZE", 2'000'000));
}

inline bool Quick() { return EnvInt("MUTPS_QUICK", 0) != 0; }

// Host peak RSS in KB (VmHWM from /proc/self/status); 0 where unavailable.
// Every bench JSON file records it in its host member (JsonWriter), so a
// change that trades memory for speed shows up next to the wall times.
inline uint64_t PeakRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  uint64_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long v = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
      kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Build provenance, defined in the build_info.cc that cmake/build_info.cmake
// writes into the build tree on every build.
extern const char kGitSha[];     // commit built from: HEAD, plus "-dirty"
                                 // with uncommitted changes; else "unknown"
extern const char kBuildType[];  // CMAKE_BUILD_TYPE, "+asan"/"+pg" if so built
extern const char kCompiler[];   // compiler id and version, e.g. "GNU 12.2.0"

// Builds a bench's JSON results file. Members appear in call order. Open()
// starts an object ('{') or an array ('['): one opened one_line keeps all
// it holds on one line, any other puts each member on its own line. The key
// is null for an array element. Numbers are written at the caller's
// precision, so a deterministic bench reproduces its file byte for byte.
// Text() puts a one-line "host" member first: the build provenance above,
// host_cpus, thp_mode (bed construction depends on it: DESIGN.md §13) and
// peak_rss_kb as of the call — so save the file after the measured work.
class JsonWriter {
 public:
  JsonWriter() : JsonWriter(/*one_line=*/false) {}

  void Open(const char* key, char bracket, bool one_line = false) {
    Member(key);
    out_ += bracket;
    frames_.push_back(Frame{bracket == '{' ? '}' : ']',
                            one_line || frames_.back().one_line, 0});
  }

  void Close() {
    UTPS_CHECK_MSG(frames_.size() > 1, "JsonWriter: Close() without Open()");
    const Frame f = frames_.back();
    frames_.pop_back();
    if (f.members > 0 && !f.one_line) {
      NewLine();
    }
    out_ += f.close;
  }

  void Int(const char* key, uint64_t v) {
    Member(key);
    out_ += std::to_string(v);
  }

  void Num(const char* key, double v, int precision) {
    Member(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    out_ += buf;
  }

  void Str(const char* key, const std::string& v) {
    Member(key);
    out_ += '"';
    obs::AppendEscaped(out_, v.c_str());
    out_ += '"';
  }

  // The whole file, host member first.
  std::string Text() const {
    UTPS_CHECK_MSG(frames_.size() == 1, "JsonWriter: %zu containers open",
                   frames_.size() - 1);
    return "{\n  \"host\": " + Host() +
           (frames_[0].members > 0 ? "," : "") + out_ + "\n}\n";
  }

  // Writes Text() to $MUTPS_JSON_OUT, by default BENCH_<bench>.json in the
  // working directory. False, after saying why on stderr, if it cannot.
  bool Save(const char* bench) const {
    const std::string path =
        EnvStr("MUTPS_JSON_OUT", std::string("BENCH_") + bench + ".json");
    std::ofstream f(path);
    f << Text();
    f.close();
    if (!f) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench, path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Frame {
    char close;
    bool one_line;
    size_t members;
  };

  // The root object; its braces are added by Text().
  explicit JsonWriter(bool one_line) { frames_.push_back({'}', one_line, 0}); }

  // Separator, line break and key before a member of the open container.
  void Member(const char* key) {
    Frame& f = frames_.back();
    if (f.members++ > 0) {
      out_ += f.one_line ? ", " : ",";
    }
    if (!f.one_line) {
      NewLine();
    }
    if (key != nullptr) {
      out_ += '"';
      obs::AppendEscaped(out_, key);
      out_ += "\": ";
    }
  }

  void NewLine() {
    out_ += '\n';
    out_.append(2 * frames_.size(), ' ');
  }

  static std::string Host() {
    // The bracketed word of the THP setting: "always", "madvise", "never".
    std::string thp;
    std::getline(std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled"),
                 thp);
    const size_t open = thp.find('[');
    const size_t close = thp.find(']', open);
    thp = close != std::string::npos ? thp.substr(open + 1, close - open - 1)
                                     : "unknown";
    JsonWriter host(/*one_line=*/true);
    host.Str("git_sha", kGitSha);
    host.Str("build_type", kBuildType);
    host.Str("compiler", kCompiler);
    host.Int("host_cpus", std::thread::hardware_concurrency());
    host.Str("thp_mode", thp);
    host.Int("peak_rss_kb", PeakRssKb());
    return "{" + host.out_ + "}";
  }

  std::vector<Frame> frames_;
  std::string out_;
};

// Standard experiment configuration used across figures; individual benches
// override fields as the paper's setup requires.
inline ExperimentConfig StdConfig(SystemKind system, const WorkloadSpec& spec) {
  const double scale = BenchScale();
  ExperimentConfig cfg;
  cfg.system = system;
  cfg.workload = spec;
  cfg.client_threads = 64;
  cfg.pipeline_depth = 16;  // oversubscribe: the paper's clients generate max load
  if (system == SystemKind::kRaceHash || system == SystemKind::kSherman) {
    // Passive clients do the KVS's work themselves (locate, verify, retry)
    // and sustain only a couple of outstanding one-sided chains per thread;
    // with deeper pipelines the NIC message cap would dominate instead of
    // the verbs-per-op cost the paper attributes their slowness to.
    cfg.pipeline_depth = 2;
  }
  cfg.warmup_ns = static_cast<sim::Tick>(1.0 * scale * sim::kMsec);
  cfg.measure_ns = static_cast<sim::Tick>(2.0 * scale * sim::kMsec);
  cfg.max_warmup_ns = 80 * sim::kMsec;
  // μTPS: quick hierarchical tune — coarse cache-size probe + thread
  // trisection with short windows (full 1K-step probing is exercised by the
  // auto-tuner-focused benches).
  cfg.mutps.autotune = true;
  cfg.mutps.tune_llc = false;
  cfg.mutps.cache_sizes = {0, 4000, 8000};
  cfg.mutps.tune_window_ns = 150 * sim::kUsec;
  cfg.mutps.refresh_period_ns = 2 * sim::kMsec;
  // Fault profile from MUTPS_FAULTS (empty: disabled; see fault/fault.h).
  cfg.fault = fault::FaultFromEnv();
  // Durability profile from MUTPS_WAL (empty: disabled; see wal/wal.h).
  cfg.wal = wal::WalFromEnv();
  // Sampled-simulation profile from MUTPS_SAMPLE (empty: full detail).
  cfg.sample = sim::SampleFromEnv();
  // Observability knobs (all default-off; see obs/obs.h).
  cfg.obs.trace_path = EnvStr("MUTPS_TRACE", "");
  cfg.obs.trace = !cfg.obs.trace_path.empty();
  cfg.obs.cycle_accounting = EnvInt("MUTPS_CYCLES", 0) != 0;
  cfg.obs.metrics = EnvInt("MUTPS_METRICS", 0) != 0;
  return cfg;
}

// Prints the per-op cycle-accounting breakdown (and trace/metrics notes)
// under a result row. No-op when the matching ObsConfig knobs are off.
inline void PrintObsReport(const ExperimentResult& res) {
  if (res.cycles.valid) {
    const auto& c = res.cycles;
    const auto at = [&](sim::Stage s) {
      return c.ns_per_op[static_cast<unsigned>(s)];
    };
    std::printf(
        "  cycles/op (ns): poll %.0f  parse %.0f  cache %.0f  index %.0f  "
        "data %.0f  respond %.0f  queue %.0f  other %.0f  | busy %.0f "
        "(%llu ops)\n",
        at(sim::Stage::kPoll), at(sim::Stage::kParse),
        at(sim::Stage::kCacheCheck), at(sim::Stage::kIndex),
        at(sim::Stage::kData), at(sim::Stage::kRespond),
        at(sim::Stage::kQueue), at(sim::Stage::kIdle), c.busy_ns_per_op,
        static_cast<unsigned long long>(c.ops));
  }
  if (!res.trace_file.empty()) {
    std::printf("  trace: %s (%llu events, %llu dropped)\n",
                res.trace_file.c_str(),
                static_cast<unsigned long long>(res.trace_events),
                static_cast<unsigned long long>(res.trace_dropped));
  }
  if (!res.metrics_dump.empty()) {
    std::printf("  metrics:\n");
    // Indent each registry line under the row for readability.
    size_t pos = 0;
    while (pos < res.metrics_dump.size()) {
      const size_t nl = res.metrics_dump.find('\n', pos);
      const size_t end = nl == std::string::npos ? res.metrics_dump.size() : nl;
      std::printf("    %.*s\n", static_cast<int>(end - pos),
                  res.metrics_dump.c_str() + pos);
      pos = end + 1;
    }
  }
}

// Column-aligned row printing.
inline void PrintTableHeader(const std::vector<std::string>& cols) {
  for (const auto& c : cols) {
    std::printf("%-14s", c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); i++) {
    std::printf("%-14s", "------------");
  }
  std::printf("\n");
}

// A figure table's metric column: its header, the printf format of its
// cell and the value that cell prints from a point's result.
struct Metric {
  const char* header;
  const char* format;
  double (*value)(const ExperimentResult&);
};

inline constexpr Metric kMops{"Mops", "%-14.2f",
                              [](const auto& r) { return r.mops; }};
inline constexpr Metric kP50{"p50(us)", "%-14.2f",
                             [](const auto& r) { return r.p50_ns / 1e3; }};
inline constexpr Metric kP99{"p99(us)", "%-14.2f",
                             [](const auto& r) { return r.p99_ns / 1e3; }};

// Prints a figure's tables: Table() starts one, then each Point() runs one
// point and prints its row as the table's label cells and metric cells,
// followed by PrintObsReport and a flush.
class Figure {
 public:
  void Table(const std::string& banner, std::vector<std::string> labels,
             std::vector<Metric> metrics = {kMops, kP50, kP99}) {
    std::printf("%s\n", banner.c_str());
    labels_ = labels.size();
    for (const Metric& m : metrics) {
      labels.push_back(m.header);
    }
    PrintTableHeader(labels);
    metrics_ = std::move(metrics);
  }

  // `run` returns the point's ExperimentResult: a bed's Run or any custom
  // measurement copied into one.
  template <typename Run>
  void Point(const std::vector<std::string>& labels, Run run) {
    UTPS_CHECK_MSG(labels.size() == labels_, "Figure: %zu labels, want %zu",
                   labels.size(), labels_);
    const ExperimentResult r = run();
    for (const std::string& l : labels) {
      std::printf("%-14s", l.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf(m.format, m.value(r));
    }
    std::printf("\n");
    PrintObsReport(r);
    std::fflush(stdout);
  }

 private:
  size_t labels_ = 0;
  std::vector<Metric> metrics_;
};

inline const char* DisplayName(SystemKind s, IndexType t) {
  if (s != SystemKind::kMuTps) {
    return SystemName(s);
  }
  return t == IndexType::kHash ? "uTPS-H" : "uTPS-T";
}

}  // namespace utps::bench

#endif  // UTPS_HARNESS_BENCH_UTIL_H_
