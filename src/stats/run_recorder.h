// One run's client-side record, shared by every client fiber of a run in
// both harnesses (single-node TestBed and the cluster). A fiber calls
// Record once per completed op:
//
// - A `measured` completion counts towards ops() and the latency histogram.
//   The caller decides what is measured: the single-node harness measures
//   while its window is open, the cluster harness every response inside
//   [warmup, warmup + measure).
// - With the timeline on, every completion, measured or not, also lands in
//   its bucket of `bucket_ns` virtual time counted from tick 0, so the
//   warm-up shows on the timeline. With the latency timeline on too, each
//   bucket also keeps a Histogram (about 17 KB) for its P99.
#ifndef UTPS_STATS_RUN_RECORDER_H_
#define UTPS_STATS_RUN_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "stats/histogram.h"
#include "stats/staged.h"

namespace utps {

class RunRecorder {
 public:
  // Bucket ceiling of both series: one stray completion stamped far in the
  // virtual future (e.g. at a quiescence limit) must not resize them to
  // gigabytes. Completions past the cap saturate into the last bucket and
  // are tallied in overflow(), so that bucket's rate and P99 are unreliable
  // when it is non-zero.
  static constexpr size_t kMaxBuckets = size_t{1} << 20;

  // `latency_timeline` implies `timeline`.
  RunRecorder(uint64_t bucket_ns, bool timeline, bool latency_timeline)
      : bucket_ns_(bucket_ns),
        timeline_(timeline || latency_timeline),
        latency_timeline_(latency_timeline) {
    UTPS_CHECK(bucket_ns > 0);
  }

  void Record(uint64_t now_ns, uint64_t latency_ns, bool measured) {
    if (measured) {
      ops_++;
      stage_.Record(latency_ns, &hist_);
    }
    if (timeline_) {
      RecordBucket(now_ns, latency_ns);
    }
  }

  uint64_t ops() const { return ops_; }
  // The measured latencies; flushes the staged samples first, so call it at
  // a window boundary.
  const Histogram& Latency() {
    stage_.FlushTo(&hist_);
    return hist_;
  }

  bool timeline() const { return timeline_; }
  bool latency_timeline() const { return latency_timeline_; }
  uint64_t bucket_ns() const { return bucket_ns_; }
  uint64_t overflow() const { return overflow_; }
  // Both series have this length: up to the last completion's bucket.
  size_t NumBuckets() const { return counts_.size(); }
  double MopsAt(size_t i) const {
    return static_cast<double>(counts_[i]) * 1e9 /
           static_cast<double>(bucket_ns_) / 1e6;
  }
  // Bucket i's latencies (empty unless the latency timeline is on).
  const Histogram& LatencyAt(size_t i) const {
    static const Histogram kEmpty;
    return i < lat_.size() && lat_[i] != nullptr ? *lat_[i] : kEmpty;
  }

 private:
  void RecordBucket(uint64_t now_ns, uint64_t latency_ns) {
    uint64_t b = now_ns / bucket_ns_;
    if (b >= kMaxBuckets) {
      if (overflow_ == 0) {
        std::fprintf(stderr,
                     "RunRecorder: completion at %llu ns exceeds the "
                     "%zu-bucket cap (bucket %llu ns); saturating\n",
                     static_cast<unsigned long long>(now_ns), kMaxBuckets,
                     static_cast<unsigned long long>(bucket_ns_));
      }
      overflow_++;
      b = kMaxBuckets - 1;
    }
    if (b >= counts_.size()) {
      counts_.resize(b + 1, 0);
      if (latency_timeline_) {
        lat_.resize(b + 1);
      }
    }
    counts_[b]++;
    if (latency_timeline_) {
      // Allocated at a bucket's first sample: a gap costs a null pointer.
      if (lat_[b] == nullptr) {
        lat_[b] = std::make_unique<Histogram>();
      }
      lat_[b]->Record(latency_ns);
    }
  }

  uint64_t ops_ = 0;
  Histogram hist_;
  HistogramStage stage_;  // staged samples; flushed into hist_ by Latency()
  const uint64_t bucket_ns_;
  const bool timeline_;
  const bool latency_timeline_;
  uint64_t overflow_ = 0;
  std::vector<uint64_t> counts_;
  std::vector<std::unique_ptr<Histogram>> lat_;
};

}  // namespace utps

#endif  // UTPS_STATS_RUN_RECORDER_H_
