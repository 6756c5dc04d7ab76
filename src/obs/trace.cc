#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace utps::obs {

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; s++) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

// Trace-event timestamps are microseconds; virtual time is nanoseconds.
// Print with ns resolution (3 fractional digits).
void AppendTs(std::string& out, sim::Tick ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

std::string Tracer::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 96 + meta_.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const Meta& m : meta_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"";
    out += m.thread ? "thread_name" : "process_name";
    std::snprintf(buf, sizeof(buf), "\",\"pid\":%u,\"tid\":%u,", m.pid, m.tid);
    out += buf;
    out += "\"args\":{\"name\":\"";
    AppendEscaped(out, m.name.c_str());
    out += "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"cat\":\"";
    AppendEscaped(out, e.cat);
    out += "\",\"name\":\"";
    AppendEscaped(out, e.name);
    std::snprintf(buf, sizeof(buf), "\",\"pid\":%u,\"tid\":%u,\"ts\":", e.pid,
                  e.tid);
    out += buf;
    AppendTs(out, e.ts_ns);
    switch (e.phase) {
      case Phase::kSpan:
        out += ",\"ph\":\"X\",\"dur\":";
        AppendTs(out, e.dur_ns);
        out += '}';
        break;
      case Phase::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"}";
        break;
      case Phase::kCounter:
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"C\",\"args\":{\"value\":%" PRIu64 "}}",
                      e.value);
        out += buf;
        break;
    }
  }
  out += "]}";
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace utps::obs
