// Discrete-event engine: the virtual-time scheduler for all simulated threads
// (server workers, management threads, NIC deliveries, client threads).
//
// Everything runs on ONE host thread; simulated concurrency is expressed by
// coroutines interleaved in virtual-time order, which makes every experiment
// deterministic and lets a 1-core host model a 28-core server (DESIGN.md §11
// says why there is no host-parallel backend).
//
// Scheduler structure (host-performance critical — see DESIGN.md "Engine
// internals & host performance"): modeled latencies are overwhelmingly within
// a few microseconds of now_, so pending events live in a hybrid of
//   - a near-future ring of 2^kRingLog2 one-nanosecond FIFO buckets (O(1)
//     push/pop, pooled intrusive nodes, an occupancy bitmap to find the next
//     populated tick), absorbing ~all scheduler traffic, and
//   - a far heap (binary min-heap over a reserved vector) for the tail:
//     client think time, NIC RTT, tuner timers, perturbation jitter.
// Dispatch order is the exact (t, prio, seq) order of the original single
// binary heap: ring nodes carry prio == seq (they are only used unperturbed),
// buckets are FIFO (== seq order within a tick), and pop lazily merges the
// ring head with the heap top under the same comparator.
#ifndef UTPS_SIM_ENGINE_H_
#define UTPS_SIM_ENGINE_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "sim/task.h"
#include "sim/types.h"

namespace utps::sim {

// Top-level simulated thread. Created by calling a coroutine function that
// returns Fiber and registering it with Engine::Spawn. The engine owns the
// frame: fibers that never finish (e.g. blocked at experiment teardown) are
// destroyed safely when the engine is destroyed.
class [[nodiscard]] Fiber {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    bool done = false;
    uint64_t* live_counter = nullptr;

    Fiber get_return_object() { return Fiber(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept {
      done = true;
      if (live_counter != nullptr) {
        (*live_counter)--;
      }
      return {};
    }
    void return_void() {}
    void unhandled_exception() { std::abort(); }

    static void* operator new(size_t n) { return FramePool::Allocate(n); }
    static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }
  };

  Fiber() = default;
  explicit Fiber(Handle h) : h_(h) {}
  Fiber(Fiber&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber& operator=(Fiber&& other) noexcept {
    if (this != &other) {
      if (h_) {
        h_.destroy();
      }
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  // A Fiber that was never handed to Engine::Spawn (or was moved-from and
  // dropped) still owns its coroutine frame and must destroy it; Spawn takes
  // ownership via release(), leaving h_ empty.
  ~Fiber() {
    if (h_) {
      h_.destroy();
    }
  }

  Handle release() { return std::exchange(h_, {}); }

 private:
  Handle h_{};
};

class Engine {
 public:
  // Always-on scheduler statistics (one add per event; snapshotted by the
  // observability layer at report time).
  struct Stats {
    uint64_t events_processed = 0;  // coroutine resumptions dispatched
    uint64_t events_scheduled = 0;
    size_t peak_heap = 0;           // max simultaneous pending events
    uint64_t handoffs = 0;          // dispatches via symmetric transfer
    uint64_t sealed_clamps = 0;     // ScheduleAt(t < now) clamped to now
                                    // (release builds only; debug DCHECKs)
  };

  // Schedule-perturbation hook (DST harness, tests/dst). Under a seed, the
  // engine explores alternative legal interleavings: same-tick events are
  // dispatched in a seed-determined permutation instead of FIFO order, and
  // every scheduled wakeup may be delayed by a bounded jitter. Both knobs are
  // deterministic functions of (seed, event sequence number), so a given seed
  // replays the exact same schedule. Off by default; when off the scheduler
  // is bit-identical to the unperturbed engine. Perturbed events bypass the
  // bucket ring (random prio breaks its FIFO-within-tick invariant) and the
  // symmetric-transfer fast path; both fall back to the heap/dispatch loop.
  struct PerturbConfig {
    uint64_t seed = 1;
    bool permute_ties = true;  // randomize ordering of same-tick events
    Tick max_jitter_ns = 0;    // add U[0, max_jitter_ns] to each wakeup time
  };

  Engine() {
    far_keys_.reserve(kHeapReserve);
    far_cold_.reserve(kHeapReserve);
    nodes_.reserve(kNodeReserve);
    buckets_.assign(kRingSpan, Bucket{});
    std::fill(std::begin(bits_), std::end(bits_), 0);
  }
  ~Engine() { DestroyFibers(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Tick now() const { return now_; }

  void EnablePerturbation(const PerturbConfig& cfg) {
    perturb_ = cfg;
    perturb_on_ = true;
  }

  // Schedule a coroutine to be resumed at virtual time `t` (>= now).
  //
  // Scheduling into the past targets a *sealed* epoch: every bucket at
  // t < now_ has already been dispatched (and its tick recycled by the ring's
  // modular indexing), so honoring the request would silently reorder
  // history. Debug builds fail loudly; release builds clamp to now_ as a
  // last-resort safety (the ring cannot represent the past).
  void ScheduleAt(Tick t, std::coroutine_handle<> h) {
    UTPS_DCHECK_MSG(t >= now_,
                    "ScheduleAt(t=%llu) into a sealed bucket epoch: now=%llu "
                    "— that tick was already dispatched",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(now_));
    if (UTPS_UNLIKELY(t < now_)) {
      // Release-build safety: the ring cannot represent the past. Counted so
      // scheduling bugs that only DCHECK in debug stay visible in release
      // (selfperf surfaces the counter in its result rows).
      stats_.sealed_clamps++;
      t = now_;
    }
    stats_.events_scheduled++;
    const uint64_t seq = seq_;
    if (UTPS_LIKELY(!perturb_on_ && t - now_ < kRingSpan)) {
      seq_ = seq + 1;
      PushRing(t, seq, h);
    } else {
      uint64_t prio = seq;
      if (perturb_on_) {
        // One mixed word per event drives both knobs; seq_ keys it so
        // replaying a seed reproduces the schedule event-for-event.
        const uint64_t mix = Mix64(perturb_.seed ^ (seq_ + 0x9e3779b97f4a7c15ULL));
        if (perturb_.permute_ties) {
          prio = mix;
        }
        if (perturb_.max_jitter_ns > 0) {
          t += Mix64(mix) % (perturb_.max_jitter_ns + 1);
        }
      }
      seq_ = seq + 1;
      FarPush(t, prio, seq, h);
    }
    pending_++;
    if (pending_ > stats_.peak_heap) {
      stats_.peak_heap = pending_;
    }
  }

  // Register and start a top-level simulated thread; first resumption happens
  // at virtual time max(now, start_at).
  void Spawn(Fiber f, Tick start_at = 0) {
    Fiber::Handle h = f.release();
    h.promise().live_counter = &live_fibers_;
    live_fibers_++;
    fibers_.push_back(h);
    ScheduleAt(start_at < now_ ? now_ : start_at, h);
  }

  // Run until the event queue is empty or virtual time would exceed `until`.
  // Events at t > until remain queued (resumable by a later Run call).
  void Run(Tick until) {
    Tick t;
    std::coroutine_handle<> h;
    while (PopNext(until, &t, &h)) {
      now_ = t;
      stats_.events_processed++;
      h.resume();
      handoff_chain_ = 0;  // a fresh host-stack budget per dispatch
    }
    if (now_ < until) {
      now_ = until;
    }
  }

  // Run until no events remain (all fibers finished or blocked on external
  // wakeups that will never come). `limit` guards against livelock.
  void RunToQuiescence(Tick limit) {
    Tick t;
    std::coroutine_handle<> h;
    while (PopNext(kMaxTick, &t, &h)) {
      UTPS_CHECK_MSG(t <= limit, "simulation exceeded quiescence limit");
      now_ = t;
      stats_.events_processed++;
      h.resume();
      handoff_chain_ = 0;
    }
  }

  // ------------------------------------------------- symmetric transfer
  // Called from an awaitable's await_suspend AFTER the current fiber is fully
  // parked: if another event is due at exactly now_, pop it and return its
  // handle so the awaiter performs a coroutine symmetric transfer straight to
  // it — skipping the round trip through the dispatch loop. Returns
  // noop_coroutine() (i.e. "unwind to the Run loop") whenever the fast path
  // would be unsafe or wrong:
  //   - perturbation is on (ties must be dispatched in permuted prio order
  //     and jitter applied — the loop handles both);
  //   - a batch driver is mid-manual-resume (control must return to it, not
  //     jump to an unrelated fiber; see RunBatch);
  //   - the handoff chain hit its depth bound (symmetric transfer is
  //     specified tail-call-like, but unoptimized builds may still grow the
  //     host stack — the bound caps it, the loop absorbs the rest);
  //   - the next event is in the future (only the loop may advance now_ and
  //     honour Run's `until`).
  std::coroutine_handle<> NextRunnable() {
    if (perturb_on_ || nested_resume_depth_ != 0 ||
        handoff_chain_ >= kMaxHandoffChain) {
      return std::noop_coroutine();
    }
    Tick t;
    std::coroutine_handle<> h;
    if (!PopNext(now_, &t, &h)) {
      return std::noop_coroutine();
    }
    UTPS_DCHECK(t == now_);
    stats_.events_processed++;
    stats_.handoffs++;
    handoff_chain_++;
    return h;
  }

  // Brackets for code that resumes coroutines by hand from inside a fiber
  // (the batch driver): while the depth is non-zero a suspension must return
  // control to the manual resumer, so NextRunnable() stays disabled.
  void EnterNestedResume() { nested_resume_depth_++; }
  void ExitNestedResume() {
    UTPS_DCHECK(nested_resume_depth_ > 0);
    nested_resume_depth_--;
  }

  // Destroys every spawned fiber's frame, finished or suspended; locals
  // (including nested Task objects) go transitively, releasing nested frames.
  // The destructor does this too, but a frame's locals may point into objects
  // that die before the engine (an obs::SpanScope reads its ExecCtx and
  // tracer on exit), so an owner tears the fibers down while those are still
  // alive. The engine must not Run afterwards.
  void DestroyFibers() {
    for (auto h : fibers_) {
      if (h) {
        h.destroy();
      }
    }
    fibers_.clear();
  }

  uint64_t live_fibers() const { return live_fibers_; }
  bool idle() const { return pending_ == 0; }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr Tick kMaxTick = ~Tick{0};
  // Near-future ring: one bucket per nanosecond, covering [now, now + span).
  static constexpr unsigned kRingLog2 = 13;
  static constexpr Tick kRingSpan = Tick{1} << kRingLog2;  // 8192 ns
  static constexpr uint32_t kRingMask = static_cast<uint32_t>(kRingSpan - 1);
  static constexpr uint32_t kWords = kRingSpan / 64;
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr size_t kHeapReserve = 1024;
  static constexpr size_t kNodeReserve = 4096;
  static constexpr uint32_t kMaxHandoffChain = 128;

  // Far-heap event record, split hot/cold: sifting compares only the 16-byte
  // (t, prio) key, so the arrays the comparison loop walks stay twice as
  // dense as the old 32-byte {t, prio, seq, h} node (half the cache lines per
  // sift). The cold half — seq (the final tiebreak, consulted only on a full
  // (t, prio) collision) and the coroutine handle (touched once per
  // push/pop) — moves in lockstep in a parallel array. Pop order is the
  // exact (t, prio, seq) total order of the previous std::push_heap/pop_heap
  // implementation: a heap pops in comparator order regardless of its
  // internal layout when the comparator is a strict total order, and seq is
  // unique.
  struct FarKey {
    Tick t;
    uint64_t prio;  // same-tick ordering key: == seq unless perturbation is on
  };
  struct FarCold {
    uint64_t seq;  // monotonic; final FIFO tiebreak -> determinism either way
    std::coroutine_handle<> h;
  };

  // True when event `a` dispatches strictly before event `b`.
  bool FarBefore(size_t a, size_t b) const {
    const FarKey& ka = far_keys_[a];
    const FarKey& kb = far_keys_[b];
    if (ka.t != kb.t) {
      return ka.t < kb.t;
    }
    if (UTPS_LIKELY(ka.prio != kb.prio)) {
      return ka.prio < kb.prio;
    }
    return far_cold_[a].seq < far_cold_[b].seq;
  }

  void FarSwap(size_t a, size_t b) {
    std::swap(far_keys_[a], far_keys_[b]);
    std::swap(far_cold_[a], far_cold_[b]);
  }

  void FarPush(Tick t, uint64_t prio, uint64_t seq, std::coroutine_handle<> h) {
    far_keys_.push_back(FarKey{t, prio});
    far_cold_.push_back(FarCold{seq, h});
    size_t i = far_keys_.size() - 1;
    while (i != 0) {
      const size_t parent = (i - 1) / 2;
      if (!FarBefore(i, parent)) {
        break;
      }
      FarSwap(i, parent);
      i = parent;
    }
  }

  // Removes the root (earliest) event. Requires non-empty.
  void FarPopTop() {
    const size_t n = far_keys_.size() - 1;
    if (n != 0) {
      far_keys_[0] = far_keys_[n];
      far_cold_[0] = far_cold_[n];
    }
    far_keys_.pop_back();
    far_cold_.pop_back();
    size_t i = 0;
    for (;;) {
      const size_t l = 2 * i + 1;
      if (l >= n) {
        break;
      }
      const size_t r = l + 1;
      const size_t c = (r < n && FarBefore(r, l)) ? r : l;
      if (!FarBefore(c, i)) {
        break;
      }
      FarSwap(i, c);
      i = c;
    }
  }

  struct RingNode {
    std::coroutine_handle<> h;
    uint64_t seq;
    uint32_t next;
  };
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  void PushRing(Tick t, uint64_t seq, std::coroutine_handle<> h) {
    uint32_t n;
    if (free_node_ != kNil) {
      n = free_node_;
      free_node_ = nodes_[n].next;
    } else {
      n = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    RingNode& node = nodes_[n];
    node.h = h;
    node.seq = seq;
    node.next = kNil;
    const uint32_t idx = static_cast<uint32_t>(t) & kRingMask;
    Bucket& b = buckets_[idx];
    if (b.tail == kNil) {
      b.head = b.tail = n;
      bits_[idx >> 6] |= uint64_t{1} << (idx & 63);
    } else {
      nodes_[b.tail].next = n;
      b.tail = n;
    }
    if (t < ring_from_) {
      ring_from_ = t;
    }
    ring_count_++;
  }

  // Virtual time of the earliest ring event. Requires ring_count_ > 0. The
  // window is exactly kRingSpan ticks, so a circular bitmap scan starting at
  // the scan cursor's slot visits buckets in increasing-tick order. The
  // cursor (ring_from_, a lower bound on the earliest ring tick — everything
  // in [now_, ring_from_) is known empty) makes repeated queries resume where
  // the previous one found a bit instead of rescanning from now_.
  Tick FirstRingTick() {
    const Tick s = ring_from_ < now_ ? now_ : ring_from_;
    const uint32_t start = static_cast<uint32_t>(s) & kRingMask;
    const uint32_t w0 = start >> 6;
    const unsigned b0 = start & 63;
    const uint64_t head = bits_[w0] >> b0;
    if (head != 0) {
      const Tick t = s + static_cast<Tick>(__builtin_ctzll(head));
      ring_from_ = t;
      return t;
    }
    for (uint32_t i = 1; i <= kWords; i++) {
      const uint32_t wi = (w0 + i) & (kWords - 1);
      uint64_t v = bits_[wi];
      if (wi == w0) {
        v &= (uint64_t{1} << b0) - 1;  // wrapped tail of the start word
      }
      if (v != 0) {
        const uint32_t bit = wi * 64 + static_cast<uint32_t>(__builtin_ctzll(v));
        const Tick t = s + ((bit - start) & kRingMask);
        ring_from_ = t;
        return t;
      }
    }
    UTPS_DCHECK(false);  // ring_count_ > 0 guarantees a set bit
    return s;
  }

  // Pop the globally-earliest event under (t, prio, seq) if its time is
  // <= until; ring and heap are lazily merged head-against-top.
  bool PopNext(Tick until, Tick* t_out, std::coroutine_handle<>* h_out) {
    const bool have_ring = ring_count_ != 0;
    if (!have_ring && far_keys_.empty()) {
      return false;
    }
    Tick rt = kMaxTick;
    uint32_t idx = 0;
    if (have_ring) {
      rt = FirstRingTick();
      idx = static_cast<uint32_t>(rt) & kRingMask;
    }
    // Early-out on time alone, before the ring-head node loads the tie-break
    // needs: whichever side wins the tie-break has the minimum t, so if that
    // minimum is beyond `until` nothing pops. NextRunnable probes PopNext on
    // every suspension and most probes fail here — this keeps them to the
    // bitmap scan plus two compares.
    const Tick ft = far_keys_.empty() ? kMaxTick : far_keys_[0].t;
    if ((rt < ft ? rt : ft) > until) {
      return false;
    }
    bool use_ring = have_ring;
    if (have_ring && !far_keys_.empty()) {
      // Ring nodes were scheduled unperturbed: their prio == seq.
      const FarKey& top = far_keys_[0];
      const uint64_t rseq = nodes_[buckets_[idx].head].seq;
      if (top.t != rt) {
        use_ring = rt < top.t;
      } else if (top.prio != rseq) {
        use_ring = rseq < top.prio;
      } else {
        use_ring = rseq < far_cold_[0].seq;
      }
    }
    if (use_ring) {
      Bucket& b = buckets_[idx];
      const uint32_t n = b.head;
      RingNode& node = nodes_[n];
      *t_out = rt;
      *h_out = node.h;
      b.head = node.next;
      if (b.head == kNil) {
        b.tail = kNil;
        bits_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
      }
      node.next = free_node_;
      free_node_ = n;
      ring_count_--;
    } else {
      if (far_keys_[0].t > until) {
        return false;
      }
      *t_out = far_keys_[0].t;
      *h_out = far_cold_[0].h;
      FarPopTop();
    }
    pending_--;
    return true;
  }

  Tick now_ = 0;
  uint64_t seq_ = 0;
  bool perturb_on_ = false;
  PerturbConfig perturb_;
  Stats stats_;
  size_t pending_ = 0;           // ring_count_ + heap_.size()
  uint32_t handoff_chain_ = 0;   // symmetric transfers since last loop dispatch
  uint32_t nested_resume_depth_ = 0;

  // Far events (beyond the ring window, or perturbed), hot/cold split:
  // far_keys_[i] and far_cold_[i] describe the same event.
  std::vector<FarKey> far_keys_;
  std::vector<FarCold> far_cold_;

  // Near-future bucket ring.
  std::vector<Bucket> buckets_;        // [kRingSpan]
  std::vector<RingNode> nodes_;        // pooled FIFO nodes
  uint32_t free_node_ = kNil;
  size_t ring_count_ = 0;
  Tick ring_from_ = 0;  // scan cursor: no ring event in [now_, ring_from_)
  uint64_t bits_[kWords];              // bucket-occupancy bitmap

  std::vector<Fiber::Handle> fibers_;
  uint64_t live_fibers_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_ENGINE_H_
