// Cache hierarchy model: per-core private caches (combined L1/L2) above a
// shared, inclusive, set-associative LLC with
//   - per-CLOS way masks (Intel CAT semantics: hits may be served from any
//     way; allocation victims are chosen only among the CLOS's ways), and
//   - DDIO semantics for NIC writes (update-in-place on LLC hit anywhere;
//     allocation only in the two rightmost ways on miss) — the behaviour the
//     paper's §2.2.1 analysis hinges on.
//
// Coherence is MESI-lite: the LLC entry tracks a sharer bitmap and an
// exclusive owner; writes invalidate other private copies and charge a
// coherence transfer.
//
// Addresses are host addresses (the simulated software operates on real data
// structures); allocate modeled data from sim::Arena for deterministic set
// mapping.
#ifndef UTPS_SIM_CACHE_H_
#define UTPS_SIM_CACHE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "sim/types.h"

namespace utps::sim {

struct MachineConfig {
  unsigned num_cores = 28;

  // Private cache (models combined L1+L2 per core): 2048 sets x 10 ways x 64B
  // = 1.25 MB-class.
  unsigned priv_sets_log2 = 11;
  unsigned priv_ways = 10;

  // Shared LLC: 65536 sets x 12 ways x 64B = 48 MB-class ("42 MB" Xeon Gold
  // 6330 rounded to a power-of-two set count).
  unsigned llc_sets_log2 = 16;
  unsigned llc_ways = 12;

  // Latencies (ns).
  Tick priv_hit_ns = 3;
  Tick llc_hit_ns = 22;
  Tick dram_ns = 90;
  Tick coherence_ns = 60;
  Tick atomic_extra_ns = 15;
  Tick stream_line_ns = 8;  // per-line cost for lines after the first in a
                            // multi-line (streaming) access
  Tick miss_cpu_ns = 22;    // serial CPU cost per LLC-level access (issue,
                            // switch, pipeline drain) — NOT overlappable,
                            // unlike the fill latency itself

  // DDIO: the two "rightmost" LLC ways (we use way indices 0 and 1).
  unsigned ddio_ways = 2;

  // Cluster topology (src/cluster): the scale-out harness instantiates one
  // machine of this shape per node and derives the node-to-node control NIC
  // from the internode link parameters below. cluster_nodes == 1 keeps every
  // single-node code path untouched — no cluster object is ever built.
  unsigned cluster_nodes = 1;
  Tick internode_rtt_ns = 3000;     // node-to-node RTT (intra-rack, > client rtt)
  double internode_bw_gbps = 100.0; // per-link internode bandwidth

  uint32_t DdioMask() const { return (1u << ddio_ways) - 1; }
  uint32_t AllWaysMask() const { return (1u << llc_ways) - 1; }
};

struct AccessResult {
  Tick latency = 0;
  bool private_hit = false;
};

// Per-core, per-stage cache event counters (our "Intel PCM").
struct StageCounters {
  uint64_t accesses = 0;
  uint64_t priv_hits = 0;
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;
  uint64_t coherence = 0;

  void Add(const StageCounters& o) {
    accesses += o.accesses;
    priv_hits += o.priv_hits;
    llc_hits += o.llc_hits;
    llc_misses += o.llc_misses;
    coherence += o.coherence;
  }

  // LLC miss rate among accesses that reached the LLC (the quantity the
  // paper's PCM measurements report).
  double LlcMissRate() const {
    const uint64_t llc_refs = llc_hits + llc_misses;
    return llc_refs == 0 ? 0.0
                         : static_cast<double>(llc_misses) / static_cast<double>(llc_refs);
  }
};

struct CoreCounters {
  StageCounters by_stage[kNumStages];

  StageCounters Total() const {
    StageCounters t;
    for (unsigned i = 0; i < kNumStages; i++) {
      t.Add(by_stage[i]);
    }
    return t;
  }
};

class MemoryModel {
 public:
  explicit MemoryModel(const MachineConfig& cfg)
      : cfg_(cfg),
        priv_sets_(1u << cfg.priv_sets_log2),
        priv_set_mask_(priv_sets_ - 1),
        llc_sets_(1u << cfg.llc_sets_log2),
        llc_set_mask_(llc_sets_ - 1) {
    UTPS_CHECK(cfg.num_cores <= 32);
    UTPS_CHECK(cfg.llc_ways <= 16);
    UTPS_CHECK(cfg.priv_ways <= 16);
    priv_stride_ = cfg.priv_ways + 2;
    llc_stride_ = cfg.llc_ways + 2;
    priv_.assign(size_t{cfg.num_cores} * priv_sets_ * priv_stride_, 0);
    for (size_t s = 0; s < size_t{cfg.num_cores} * priv_sets_; s++) {
      priv_[s * priv_stride_ + cfg.priv_ways] = IdentityOrder(cfg.priv_ways);
    }
    llc_.assign(size_t{llc_sets_} * cfg.llc_ways, LlcEntry{});
    llc_tags_.assign(size_t{llc_sets_} * llc_stride_, 0);
    for (size_t s = 0; s < llc_sets_; s++) {
      llc_tags_[s * llc_stride_ + cfg.llc_ways] = IdentityOrder(cfg.llc_ways);
    }
    for (auto& m : clos_masks_) {
      m = cfg.AllWaysMask();
    }
    counters_.assign(cfg.num_cores, CoreCounters{});
  }

  // ------------------------------------------------------------------ CLOS
  // pqos-style way mask control (the auto-tuner's "LLC allocation" knob).
  void SetClosMask(ClosId clos, uint32_t way_mask) {
    UTPS_CHECK(clos < kMaxClos);
    UTPS_CHECK((way_mask & cfg_.AllWaysMask()) != 0);
    clos_masks_[clos] = way_mask & cfg_.AllWaysMask();
  }

  // Noisy-neighbor hook (src/fault): an external tenant occupies `n` LLC
  // ways, taken from the high way indices (so the DDIO ways stay intact),
  // shrinking every CLOS's effective allocation mid-run. A class whose mask
  // would become empty keeps its configured mask — CAT can never leave a
  // class with zero ways. n == 0 (the default) restores normal behaviour and
  // is byte-identical to a build without the hook.
  void SetStolenWays(unsigned n) {
    if (n >= cfg_.llc_ways) {
      n = cfg_.llc_ways - 1;
    }
    stolen_mask_ = n == 0 ? 0u : ((1u << n) - 1) << (cfg_.llc_ways - n);
  }
  unsigned StolenWays() const { return __builtin_popcount(stolen_mask_); }

  // ------------------------------------------------------- fast-forward mode
  // Sampled-simulation switch (DESIGN.md §12): while set, the machine runs
  // functionally — ExecCtx charges flat costs without consulting the model,
  // and IoWrite/IoRead below return flat DMA costs without probing or
  // mutating any tag, recency order, or counter. Freezing (rather than
  // flushing) the tag state is what carries the warmed cache across mode
  // switches: the next detailed window resumes from the tags exactly as the
  // last one left them. Off (the default) is byte-identical to a build
  // without the flag.
  void SetFastForward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  // --------------------------------------------------------------- CPU side
  // Models one access of `len` bytes at `addr` by `core` under `clos`.
  // Multi-line accesses charge full latency for the first line and a
  // streaming cost for subsequent lines.
  AccessResult Access(CoreId core, ClosId clos, Stage stage, const void* addr,
                      size_t len, bool write, bool rmw = false) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uint64_t first = a >> 6;
    const uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    AccessResult r;
    // Single-line accesses (the overwhelming majority) skip the stream loop.
    r.latency = AccessLine(core, clos, stage, first, write, &r.private_hit);
    for (uint64_t line = first + 1; line <= last; line++) {
      bool priv_hit = false;
      AccessLine(core, clos, stage, line, write, &priv_hit);
      r.latency += priv_hit ? cfg_.priv_hit_ns : cfg_.stream_line_ns;
      r.private_hit = r.private_hit && priv_hit;
    }
    if (rmw) {
      r.latency += cfg_.atomic_extra_ns;
      r.private_hit = false;  // atomics always serialize through the engine
    }
    return r;
  }

  // ---------------------------------------------------------------- IO side
  // DDIO write from the NIC. Returns DMA latency (charged to the NIC
  // timeline, not to any core).
  Tick IoWrite(const void* addr, size_t len) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    uint64_t first = a >> 6;
    uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    if (UTPS_UNLIKELY(fast_forward_)) {
      return static_cast<Tick>(last - first + 1) * cfg_.llc_hit_ns;
    }
    Tick total = 0;
    for (uint64_t line = first; line <= last; line++) {
      total += IoWriteLine(line);
    }
    return total;
  }

  // DMA read (no cache allocation on miss, per DDIO read semantics).
  Tick IoRead(const void* addr, size_t len) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    uint64_t first = a >> 6;
    uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    if (UTPS_UNLIKELY(fast_forward_)) {
      return static_cast<Tick>(last - first + 1) * cfg_.llc_hit_ns;
    }
    Tick total = 0;
    for (uint64_t line = first; line <= last; line++) {
      unsigned way;
      uint32_t set = LlcSet(line);
      if (LlcProbe(set, line, &way)) {
        total += cfg_.llc_hit_ns;
      } else {
        total += cfg_.dram_ns;
      }
      io_reads_++;
    }
    return total;
  }

  // ----------------------------------------------------------------- stats
  const CoreCounters& Counters(CoreId core) const { return counters_[core]; }

  // Machine-wide totals across all cores and stages (the obs layer snapshots
  // this into its metrics registry at report time).
  StageCounters TotalCounters() const {
    StageCounters t;
    for (const CoreCounters& c : counters_) {
      t.Add(c.Total());
    }
    return t;
  }

  void ResetCounters() {
    for (auto& c : counters_) {
      c = CoreCounters{};
    }
    io_writes_ = io_write_misses_ = io_reads_ = 0;
  }
  uint64_t io_writes() const { return io_writes_; }
  uint64_t io_write_misses() const { return io_write_misses_; }
  uint64_t io_reads() const { return io_reads_; }

  // Drop all cached state (used between benchmark points that share a
  // populated store).
  void FlushAll() {
    // Clears tags and hints but leaves each set's recency word alone — the
    // pre-colocation representation kept its order arrays across flushes, and
    // byte-identical replay depends on preserving that.
    for (size_t s = 0; s < priv_.size(); s += priv_stride_) {
      std::fill(priv_.begin() + s, priv_.begin() + s + cfg_.priv_ways, 0);
      priv_[s + cfg_.priv_ways + 1] = 0;  // hint
    }
    std::fill(llc_.begin(), llc_.end(), LlcEntry{});
    for (size_t s = 0; s < llc_tags_.size(); s += llc_stride_) {
      std::fill(llc_tags_.begin() + s, llc_tags_.begin() + s + cfg_.llc_ways,
                0);
      llc_tags_[s + cfg_.llc_ways + 1] = 0;  // hint
    }
  }

  const MachineConfig& config() const { return cfg_; }

  static constexpr unsigned kMaxClos = 8;

 private:
  // Per-way coherence state; the tag itself lives in the packed llc_tags_
  // array so probes scan contiguous words instead of striding through these.
  struct LlcEntry {
    uint32_t sharers = 0;
    int8_t owner = -1;  // core holding the line exclusively, -1 = shared
    bool dirty = false;
  };

  // ---------------------------------------------------------- recency words
  // A set's LRU order is one uint64: nibble i holds the way id at recency
  // rank i (rank 0 = MRU, rank ways-1 = LRU). Move-to-front, LRU-victim
  // selection, and rank scans become register arithmetic on a single loaded
  // word instead of byte-array shift loops — the dominant cost of the old
  // representation inside AccessLine (DESIGN.md §13). Requires ways <= 16
  // (checked in the constructor); every operation below permutes nibbles
  // exactly as the byte loops permuted array entries, so the model remains
  // bit-identical.
  static uint64_t IdentityOrder(unsigned ways) {
    uint64_t w = 0;
    for (unsigned i = 0; i < ways; i++) {
      w |= uint64_t{i} << (4 * i);
    }
    return w;
  }
  static unsigned OrderAt(uint64_t word, unsigned rank) {
    return static_cast<unsigned>((word >> (4 * rank)) & 0xf);
  }
  static unsigned RankOf(uint64_t word, unsigned way) {
    unsigned r = 0;
    while (((word >> (4 * r)) & 0xf) != way) {
      r++;
    }
    return r;
  }
  // Moves the nibble at `rank` to rank 0, shifting ranks [0, rank) up one.
  static uint64_t ToFront(uint64_t word, unsigned rank) {
    if (rank == 0) {
      return word;
    }
    const uint64_t low_mask = (uint64_t{1} << (4 * rank)) - 1;
    const uint64_t way = (word >> (4 * rank)) & 0xf;
    // Drop the nibble at `rank` (ranks above it slide down), then push `way`
    // in at rank 0.
    const uint64_t removed = (word & low_mask) | ((word >> 4) & ~low_mask);
    return (removed << 4) | way;
  }

  uint32_t PrivSet(uint64_t line) const {
    return static_cast<uint32_t>(line) & priv_set_mask_;
  }
  uint32_t LlcSet(uint64_t line) const {
    return static_cast<uint32_t>(line) & llc_set_mask_;
  }

  size_t PrivBase(CoreId core, uint32_t set) const {
    return (size_t{core} * priv_sets_ + set) * priv_stride_;
  }
  // Base into the colocated tag/order/hint blocks (llc_tags_).
  size_t LlcTagBase(uint32_t set) const { return size_t{set} * llc_stride_; }
  // Base into the per-way coherence entries (llc_).
  size_t LlcBase(uint32_t set) const { return size_t{set} * cfg_.llc_ways; }

  // Probe the private cache; on hit move the way to MRU position.
  //
  // Scans the packed tag array instead of chasing the recency order. Unlike
  // the LLC, a private set CAN briefly hold two copies of one line: the write
  // -upgrade path in AccessLine calls PrivFill for a line that already sits
  // in another way (shared), and the recency walk then always finds the newer
  // exclusive copy — it is installed at MRU and relative order of the two
  // copies never changes afterwards. So a multi-way match must be resolved
  // through the order array to stay bit-identical to the baseline walk. The
  // per-set last-hit-way hint is safe under this: PrivFill repoints it at the
  // installed way, so a hint that still matches the tag is always the
  // order-first copy.
  bool PrivProbe(CoreId core, uint64_t line, size_t* entry_out) {
    const size_t base = PrivBase(core, PrivSet(line));
    const uint64_t tag = line + 1;
    uint64_t* slot = priv_.data() + base;  // [tags x ways][order][hint]
    const unsigned ways = cfg_.priv_ways;
    uint64_t& order = slot[ways];
    unsigned way = static_cast<unsigned>(slot[ways + 1]);
    if ((slot[way] & kTagMask) != tag) {
      uint32_t match = 0;
      for (unsigned w = 0; w < ways; w++) {
        match |= static_cast<uint32_t>((slot[w] & kTagMask) == tag) << w;
      }
      if (match == 0) {
        return false;
      }
      if (UTPS_LIKELY((match & (match - 1)) == 0)) {
        way = static_cast<unsigned>(__builtin_ctz(match));
      } else {
        // Duplicate copies: first in recency order wins (baseline semantics).
        unsigned r = 0;
        while ((match >> OrderAt(order, r) & 1u) == 0) {
          r++;
        }
        way = OrderAt(order, r);
      }
      slot[ways + 1] = way;
    }
    order = ToFront(order, RankOf(order, way));
    *entry_out = base + way;
    return true;
  }

  // Insert a line into the private cache; evicts LRU way. On eviction, clears
  // the core's sharer bit in the LLC.
  size_t PrivFill(CoreId core, uint64_t line, bool exclusive) {
    const size_t base = PrivBase(core, PrivSet(line));
    uint64_t* slot = priv_.data() + base;
    const unsigned ways = cfg_.priv_ways;
    uint64_t& order = slot[ways];
    const unsigned victim = OrderAt(order, ways - 1);
    const uint64_t old_tag = slot[victim] & kTagMask;
    if (old_tag != 0) {
      ClearSharer(core, old_tag - 1);
    }
    slot[victim] = (line + 1) | (exclusive ? kExclBit : 0);
    // Keep the probe hint coherent: the installed copy is the one a recency
    // walk would now find first (matters when a write upgrade creates a
    // second copy of a line already in the set — see PrivProbe).
    slot[ways + 1] = victim;
    order = ToFront(order, ways - 1);
    return base + victim;
  }

  void PrivInvalidate(CoreId core, uint64_t line) {
    const size_t base = PrivBase(core, PrivSet(line));
    uint64_t* slot = priv_.data() + base;
    const uint64_t tag = line + 1;
    for (unsigned w = 0; w < cfg_.priv_ways; w++) {
      if ((slot[w] & kTagMask) == tag) {
        slot[w] = 0;
        return;
      }
    }
  }

  void ClearSharer(CoreId core, uint64_t line) {
    unsigned way;
    const uint32_t set = LlcSet(line);
    if (LlcProbe(set, line, &way, /*touch=*/false)) {
      LlcEntry& e = llc_[LlcBase(set) + way];
      e.sharers &= ~(1u << core);
      if (e.owner == static_cast<int8_t>(core)) {
        e.owner = -1;
      }
    }
  }

  // LLC probe: same packed-tag + hint structure as PrivProbe (see its
  // comment for the equivalence argument).
  bool LlcProbe(uint32_t set, uint64_t line, unsigned* way_out, bool touch = true) {
    const uint64_t tag = line + 1;
    uint64_t* slot = llc_tags_.data() + LlcTagBase(set);
    const unsigned ways = cfg_.llc_ways;
    unsigned way = static_cast<unsigned>(slot[ways + 1]);
    if (slot[way] != tag) {
      unsigned w = 0;
      while (w < ways && slot[w] != tag) {
        w++;
      }
      if (w == ways) {
        return false;
      }
      way = w;
      slot[ways + 1] = way;
    }
    if (touch) {
      uint64_t& order = slot[ways];
      order = ToFront(order, RankOf(order, way));
    }
    *way_out = way;
    return true;
  }

  // Choose an eviction victim within `allowed_mask`: the least recently used
  // way whose index is allowed (CAT semantics).
  unsigned LlcVictim(uint32_t set, uint32_t allowed_mask) {
    const uint64_t order = llc_tags_[LlcTagBase(set) + cfg_.llc_ways];
    for (int i = static_cast<int>(cfg_.llc_ways) - 1; i >= 0; i--) {
      const unsigned way = OrderAt(order, static_cast<unsigned>(i));
      if (allowed_mask & (1u << way)) {
        return way;
      }
    }
    // Mask validated non-empty at SetClosMask; unreachable.
    return OrderAt(order, cfg_.llc_ways - 1);
  }

  void LlcInstall(uint32_t set, unsigned way, uint64_t line, uint32_t sharers,
                  int8_t owner, bool dirty) {
    LlcEntry& e = llc_[LlcBase(set) + way];
    uint64_t* slot = llc_tags_.data() + LlcTagBase(set);
    if (slot[way] != 0) {
      // Inclusive LLC: back-invalidate private copies of the victim line.
      const uint64_t old_line = slot[way] - 1;
      uint32_t s = e.sharers;
      while (s != 0) {
        const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
        s &= s - 1;
        PrivInvalidate(static_cast<CoreId>(c), old_line);
      }
    }
    slot[way] = line + 1;
    slot[cfg_.llc_ways + 1] = way;  // hint
    e.sharers = sharers;
    e.owner = owner;
    e.dirty = dirty;
    // Installed line becomes MRU.
    uint64_t& order = slot[cfg_.llc_ways];
    order = ToFront(order, RankOf(order, way));
  }

  Tick AccessLine(CoreId core, ClosId clos, Stage stage, uint64_t line, bool write,
                  bool* priv_hit_out) {
    StageCounters& sc = counters_[core].by_stage[static_cast<unsigned>(stage)];
    sc.accesses++;
    size_t pe;
    const uint32_t set = LlcSet(line);
    if (PrivProbe(core, line, &pe)) {
      if (!write || (priv_[pe] & kExclBit) != 0) {
        sc.priv_hits++;
        // Write to an exclusive private copy: no LLC dirty-mark needed. An
        // exclusive copy is only ever installed by a write path, and every
        // write path (LLC hit-write, miss-install, DDIO update) sets the LLC
        // entry dirty at that moment; the copy cannot outlive that dirty bit
        // because LLC eviction back-invalidates private copies. So the LLC
        // probe the old MarkDirty did here always found dirty == true
        // already — dropping it removes an LLC tag scan from the hottest
        // AccessLine path without changing any observable state.
        *priv_hit_out = true;
        return cfg_.priv_hit_ns;
      }
      // Write upgrade: fall through to the LLC to invalidate other sharers.
    }
    *priv_hit_out = false;
    unsigned way;
    Tick lat;
    if (LlcProbe(set, line, &way)) {
      LlcEntry& e = llc_[LlcBase(set) + way];
      lat = cfg_.llc_hit_ns;
      sc.llc_hits++;
      const uint32_t others = e.sharers & ~(1u << core);
      if (write) {
        if (others != 0) {
          lat += cfg_.coherence_ns;
          sc.coherence++;
          uint32_t s = others;
          while (s != 0) {
            const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
            s &= s - 1;
            PrivInvalidate(static_cast<CoreId>(c), line);
          }
        }
        e.sharers = 1u << core;
        e.owner = static_cast<int8_t>(core);
        e.dirty = true;
        pe = PrivFill(core, line, /*exclusive=*/true);
        RefreshSharersAfterFill(set, line, core, /*exclusive=*/true);
      } else {
        if (e.owner >= 0 && e.owner != static_cast<int8_t>(core) && e.dirty) {
          lat += cfg_.coherence_ns;  // dirty transfer from owner's cache
          sc.coherence++;
        }
        e.owner = -1;
        e.sharers |= 1u << core;
        PrivFill(core, line, /*exclusive=*/false);
      }
    } else {
      lat = cfg_.dram_ns;
      sc.llc_misses++;
      const unsigned victim = LlcVictim(set, EffectiveMask(clos));
      LlcInstall(set, victim, line, 1u << core,
                 write ? static_cast<int8_t>(core) : int8_t{-1}, write);
      PrivFill(core, line, /*exclusive=*/write);
    }
    return lat;
  }

  // PrivFill may evict the very line just installed elsewhere in the set walk
  // and clear sharer bits; re-assert this core's bit.
  void RefreshSharersAfterFill(uint32_t set, uint64_t line, CoreId core,
                               bool exclusive) {
    unsigned way;
    if (LlcProbe(set, line, &way, /*touch=*/false)) {
      LlcEntry& e = llc_[LlcBase(set) + way];
      e.sharers |= 1u << core;
      if (exclusive) {
        e.owner = static_cast<int8_t>(core);
      }
    }
  }

  Tick IoWriteLine(uint64_t line) {
    io_writes_++;
    const uint32_t set = LlcSet(line);
    unsigned way;
    if (LlcProbe(set, line, &way)) {
      // DDIO update-in-place: any way, invalidate CPU private copies.
      LlcEntry& e = llc_[LlcBase(set) + way];
      uint32_t s = e.sharers;
      while (s != 0) {
        const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
        s &= s - 1;
        PrivInvalidate(static_cast<CoreId>(c), line);
      }
      e.sharers = 0;
      e.owner = -1;
      e.dirty = true;
      return cfg_.llc_hit_ns;
    }
    // DDIO allocating write: restricted to the DDIO ways.
    io_write_misses_++;
    const unsigned victim = LlcVictim(set, cfg_.DdioMask());
    LlcInstall(set, victim, line, /*sharers=*/0, /*owner=*/-1, /*dirty=*/true);
    return cfg_.dram_ns;
  }

  MachineConfig cfg_;
  uint32_t priv_sets_;
  uint32_t priv_set_mask_;
  uint32_t llc_sets_;
  uint32_t llc_set_mask_;

  // Colocated set blocks: one probe touches one contiguous run of u64s
  // instead of striding three arrays (tags / recency / hint), which is worth
  // a sizable slice of AccessLine's wall time (DESIGN.md §13). Layout per
  // set, stride = ways + 2:
  //   [0, ways)   tag words: line+1 (0 invalid); private tags carry the
  //               exclusive flag in bit 63 (kExclBit) — probes compare under
  //               kTagMask, so duplicate copies with different exclusivity
  //               still match as the same line
  //   [ways]      nibble-packed recency word (see IdentityOrder)
  //   [ways + 1]  last-hit way hint
  static constexpr uint64_t kExclBit = uint64_t{1} << 63;
  static constexpr uint64_t kTagMask = kExclBit - 1;
  unsigned priv_stride_ = 0;
  unsigned llc_stride_ = 0;
  std::vector<uint64_t> priv_;      // [core][set] colocated block
  std::vector<LlcEntry> llc_;       // [set][way] coherence state
  std::vector<uint64_t> llc_tags_;  // [set] colocated block (no excl bit)

  uint32_t EffectiveMask(ClosId clos) const {
    const uint32_t m = clos_masks_[clos] & ~stolen_mask_;
    return m != 0 ? m : clos_masks_[clos];
  }

  uint32_t clos_masks_[kMaxClos] = {};
  uint32_t stolen_mask_ = 0;  // LLC ways held by a simulated noisy neighbor
  bool fast_forward_ = false;  // sampled simulation: functional mode active
  std::vector<CoreCounters> counters_;
  uint64_t io_writes_ = 0;
  uint64_t io_write_misses_ = 0;
  uint64_t io_reads_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_CACHE_H_
