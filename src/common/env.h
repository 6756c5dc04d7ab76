// Small helpers for reading configuration overrides from the environment.
// Used by benchmarks so CI-scale runs and paper-scale runs share one binary.
#ifndef UTPS_COMMON_ENV_H_
#define UTPS_COMMON_ENV_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>

#include "common/macros.h"

namespace utps {

inline int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  return std::strtoll(v, nullptr, 10);
}

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  return std::strtod(v, nullptr);
}

inline std::string EnvStr(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  return v;
}

// Parses all of `s` as a number of type T (decimal; no sign on unsigned
// types, no surrounding blanks). False on an empty, malformed or
// out-of-range string.
template <typename T>
bool ParseNumber(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Parses a count of µs, as profiles write times, into ns.
inline bool ParseUsAsNs(const std::string& s, uint64_t& ns) {
  const bool ok = ParseNumber(s, ns);
  ns *= 1000;
  return ok;
}

// Splits a profile such as MUTPS_FAULTS="loss:0.01,dup:0.02" into its
// comma-separated `key<sep>value` tokens and calls apply(key, value) for
// each (value is empty when the token has no `sep`). Empty tokens, such as
// one left by a trailing comma, are skipped. `apply` returns false for a
// key it does not know or a value it cannot parse; the profile comes from
// outside the program, so that aborts with `var` and the token rather than
// silently running a different experiment.
template <typename Apply>
void ParseProfile(const char* var, const std::string& profile, char sep,
                  Apply&& apply) {
  size_t pos = 0;
  while (pos < profile.size()) {
    size_t end = profile.find(',', pos);
    if (end == std::string::npos) {
      end = profile.size();
    }
    const std::string tok = profile.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) {
      continue;
    }
    const size_t at = tok.find(sep);
    const std::string key = tok.substr(0, at);
    const std::string val = at == std::string::npos ? "" : tok.substr(at + 1);
    UTPS_CHECK_MSG(apply(key, val), "%s: unknown key or bad value in '%s'",
                   var, tok.c_str());
  }
}

// Global scale knob for benchmark runtime: 1 = quick CI run, larger values
// lengthen virtual measurement windows proportionally.
inline double BenchScale() { return EnvDouble("MUTPS_BENCH_SCALE", 1.0); }

}  // namespace utps

#endif  // UTPS_COMMON_ENV_H_
