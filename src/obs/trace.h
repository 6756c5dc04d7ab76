// Virtual-time tracer emitting Chrome trace_event JSON.
//
// Records spans ("X" complete events), instants ("i"), and counter series
// ("C") stamped with *virtual* nanoseconds from the simulation engine, plus
// process/thread-name metadata, and serializes them in the Trace Event
// Format that chrome://tracing, Perfetto and speedscope all load.
//
// Conventions used by this repo:
//   pid = component (kServerPid: KV server cores, kClientPid: client
//         machines, kNicPid: NIC / DMA timeline),
//   tid = simulated core id (or fiber id for clients).
//
// The event buffer is bounded: past `max_events` new events are counted as
// dropped instead of recorded, so a runaway trace cannot eat the heap. All
// name/category strings must be literals (or otherwise outlive the tracer) —
// events store the pointers only.
#ifndef UTPS_OBS_TRACE_H_
#define UTPS_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/types.h"

namespace utps::obs {

// Appends `s` to `out` as the inside of a JSON string literal: quotes,
// backslashes and control characters escaped, so the output is always valid
// JSON. Shared by the trace export and the bench JSON writer
// (harness/bench_util.h).
void AppendEscaped(std::string& out, const char* s);

class Tracer {
 public:
  static constexpr uint32_t kServerPid = 1;
  static constexpr uint32_t kClientPid = 2;
  static constexpr uint32_t kNicPid = 3;

  explicit Tracer(size_t max_events = 1u << 20) : max_events_(max_events) {
    events_.reserve(max_events < 4096 ? max_events : 4096);
  }

  // Complete event covering [start, end] of virtual time.
  void Span(const char* cat, const char* name, uint32_t pid, uint32_t tid,
            sim::Tick start, sim::Tick end) {
    if (!Admit()) {
      return;
    }
    events_.push_back(Event{cat, name, pid, tid, start,
                            end >= start ? end - start : 0, Phase::kSpan, 0});
  }

  // Instant event (a point-in-time marker, e.g. a reconfiguration).
  void Instant(const char* cat, const char* name, uint32_t pid, uint32_t tid,
               sim::Tick at) {
    if (!Admit()) {
      return;
    }
    events_.push_back(Event{cat, name, pid, tid, at, 0, Phase::kInstant, 0});
  }

  // Counter series sample (rendered as a stacked area track).
  void Counter(const char* name, uint32_t pid, sim::Tick at, uint64_t value) {
    if (!Admit()) {
      return;
    }
    events_.push_back(Event{"counter", name, pid, 0, at, 0, Phase::kCounter,
                            value});
  }

  // Metadata: names shown on the Perfetto track headers.
  void SetProcessName(uint32_t pid, const std::string& name) {
    meta_.push_back(Meta{pid, 0, /*thread=*/false, name});
  }
  void SetThreadName(uint32_t pid, uint32_t tid, const std::string& name) {
    meta_.push_back(Meta{pid, tid, /*thread=*/true, name});
  }

  // Interns a dynamically built name (e.g. "ring_occ_w3") so callers can pass
  // the returned pointer as an event name/category. Storage lives as long as
  // the tracer; intended for setup-time use, not hot paths.
  const char* Intern(const std::string& s) {
    interned_.push_back(s);
    return interned_.back().c_str();
  }

  size_t num_events() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }
  bool full() const { return events_.size() >= max_events_; }

  // Serializes everything as a JSON object {"traceEvents": [...], ...}.
  std::string ToJson() const;

  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  enum class Phase : uint8_t { kSpan, kInstant, kCounter };

  struct Event {
    const char* cat;
    const char* name;
    uint32_t pid;
    uint32_t tid;
    sim::Tick ts_ns;
    sim::Tick dur_ns;
    Phase phase;
    uint64_t value;  // counter samples only
  };

  struct Meta {
    uint32_t pid;
    uint32_t tid;
    bool thread;
    std::string name;
  };

  bool Admit() {
    if (events_.size() >= max_events_) {
      dropped_++;
      return false;
    }
    return true;
  }

  size_t max_events_;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::vector<Meta> meta_;
  std::deque<std::string> interned_;  // stable addresses for Intern()
};

}  // namespace utps::obs

#endif  // UTPS_OBS_TRACE_H_
