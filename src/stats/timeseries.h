// Fixed-interval time-series recorder, used for throughput-over-time plots
// (Figure 14) and auto-tuner monitoring windows.
#ifndef UTPS_STATS_TIMESERIES_H_
#define UTPS_STATS_TIMESERIES_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/macros.h"

namespace utps {

// Accumulates event counts into equal-width time buckets of virtual time.
class TimeSeries {
 public:
  // Bucket-count ceiling: one stray event stamped far in the virtual future
  // (e.g. at a quiescence limit) must not resize the vector to gigabytes.
  // 1M buckets x 8 B = 8 MB worst case; events beyond the cap saturate into
  // the last bucket and are tallied in overflow().
  static constexpr uint64_t kMaxBuckets = 1u << 20;

  explicit TimeSeries(uint64_t bucket_ns) : bucket_ns_(bucket_ns) {
    UTPS_CHECK(bucket_ns > 0);
  }

  void Add(uint64_t now_ns, uint64_t count = 1) {
    uint64_t idx = now_ns / bucket_ns_;
    if (idx >= kMaxBuckets) {
      if (overflow_ == 0) {
        std::fprintf(stderr,
                     "TimeSeries: event at %llu ns exceeds the %llu-bucket cap "
                     "(bucket %llu ns); saturating\n",
                     static_cast<unsigned long long>(now_ns),
                     static_cast<unsigned long long>(kMaxBuckets),
                     static_cast<unsigned long long>(bucket_ns_));
      }
      overflow_ += count;
      idx = kMaxBuckets - 1;
    }
    if (idx >= buckets_.size()) {
      buckets_.resize(idx + 1, 0);
    }
    buckets_[idx] += count;
  }

  // Ops/s within bucket i.
  double RateAt(size_t i) const {
    if (i >= buckets_.size()) {
      return 0.0;
    }
    return static_cast<double>(buckets_[i]) * 1e9 / static_cast<double>(bucket_ns_);
  }

  size_t NumBuckets() const { return buckets_.size(); }
  uint64_t bucket_ns() const { return bucket_ns_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  // Events that landed at/after the bucket cap (saturated into the last
  // bucket, whose rate is therefore unreliable when this is non-zero).
  uint64_t overflow() const { return overflow_; }

 private:
  uint64_t bucket_ns_;
  uint64_t overflow_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace utps

#endif  // UTPS_STATS_TIMESERIES_H_
