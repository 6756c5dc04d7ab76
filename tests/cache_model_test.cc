// Tests for the LLC/private-cache model: hit/miss behaviour, LRU, CAT way
// masks, DDIO allocation policy, and coherence.
#include <gtest/gtest.h>

#include "sim/arena.h"
#include "sim/cache.h"

namespace utps::sim {
namespace {

MachineConfig SmallConfig() {
  MachineConfig cfg;
  cfg.num_cores = 4;
  cfg.priv_sets_log2 = 4;  // 16 sets
  cfg.priv_ways = 2;
  cfg.llc_sets_log2 = 6;  // 64 sets
  cfg.llc_ways = 4;
  cfg.ddio_ways = 2;
  return cfg;
}

class CacheModelTest : public ::testing::Test {
 protected:
  CacheModelTest() : arena_(8 << 20), mem_(SmallConfig()) {}

  // Returns a pointer whose line maps to the given LLC set.
  void* AddrAtSet(unsigned set, unsigned stride_idx = 0) {
    const uintptr_t period = 64ull << SmallConfig().llc_sets_log2;
    return reinterpret_cast<void*>(arena_.base() + set * 64ull +
                                   stride_idx * period);
  }

  Arena arena_;
  MemoryModel mem_;
};

TEST_F(CacheModelTest, FirstAccessMissesThenHits) {
  void* p = AddrAtSet(3);
  auto r1 = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r1.latency, SmallConfig().dram_ns);
  EXPECT_FALSE(r1.private_hit);
  auto r2 = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_TRUE(r2.private_hit);
  EXPECT_EQ(r2.latency, SmallConfig().priv_hit_ns);
  const auto& c = mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kData)];
  EXPECT_EQ(c.llc_misses, 1u);
  EXPECT_EQ(c.priv_hits, 1u);
}

TEST_F(CacheModelTest, LlcHitAfterPrivateEviction) {
  // Fill the private set (2 ways) with 3 lines mapping to the same private
  // set but different LLC sets... simpler: same LLC set, different tags.
  void* a = AddrAtSet(5, 0);
  void* b = AddrAtSet(5, 1);
  void* c = AddrAtSet(5, 2);
  mem_.Access(0, 0, Stage::kData, a, 8, false);
  mem_.Access(0, 0, Stage::kData, b, 8, false);
  mem_.Access(0, 0, Stage::kData, c, 8, false);  // evicts `a` from private
  auto r = mem_.Access(0, 0, Stage::kData, a, 8, false);
  EXPECT_FALSE(r.private_hit);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns);  // still resident in LLC
}

TEST_F(CacheModelTest, LlcEvictionRespectsLru) {
  // 4 LLC ways: touch 5 distinct lines in one set; the first should be gone.
  for (unsigned i = 0; i < 5; i++) {
    mem_.Access(0, 0, Stage::kData, AddrAtSet(7, i), 8, false);
  }
  auto r = mem_.Access(0, 0, Stage::kData, AddrAtSet(7, 0), 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);  // was evicted
}

TEST_F(CacheModelTest, CatMaskConfinesVictimSelection) {
  // CLOS 1 may only allocate in ways {2,3}; CLOS 0 in ways {0,1}.
  mem_.SetClosMask(0, 0b0011);
  mem_.SetClosMask(1, 0b1100);
  // Core 0 (CLOS 0) fills its two ways.
  mem_.Access(0, 0, Stage::kData, AddrAtSet(9, 0), 8, false);
  mem_.Access(0, 0, Stage::kData, AddrAtSet(9, 1), 8, false);
  // Core 1 (CLOS 1) streams many lines; must not evict CLOS 0's lines.
  for (unsigned i = 2; i < 12; i++) {
    mem_.Access(1, 1, Stage::kData, AddrAtSet(9, i), 8, false);
  }
  // CLOS 0's lines still hit in LLC (they were evicted from core 0's private
  // cache? no — private cache of core 0 untouched, so force LLC check via
  // core 2 which never cached them privately).
  auto r0 = mem_.Access(2, 0, Stage::kData, AddrAtSet(9, 0), 8, false);
  auto r1 = mem_.Access(2, 0, Stage::kData, AddrAtSet(9, 1), 8, false);
  EXPECT_EQ(r0.latency, SmallConfig().llc_hit_ns);
  EXPECT_EQ(r1.latency, SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, DdioAllocatesOnlyInIoWays) {
  // CPU fills all 4 ways of a set.
  for (unsigned i = 0; i < 4; i++) {
    mem_.Access(0, 0, Stage::kData, AddrAtSet(11, i), 8, false);
  }
  // NIC writes two new lines: they may only displace ways 0/1 (DDIO ways).
  mem_.IoWrite(AddrAtSet(11, 4), 8);
  mem_.IoWrite(AddrAtSet(11, 5), 8);
  // Exactly two of the CPU's lines were displaced (DDIO ways 0 and 1 held
  // the two LRU CPU lines); the other two must remain. Probe with IoRead,
  // which does not perturb cache state.
  unsigned llc_hits = 0;
  for (unsigned i = 0; i < 4; i++) {
    if (mem_.IoRead(AddrAtSet(11, i), 8) == SmallConfig().llc_hit_ns) {
      llc_hits++;
    }
  }
  EXPECT_EQ(llc_hits, 2u);
  // And the IO lines are present.
  EXPECT_EQ(mem_.IoRead(AddrAtSet(11, 4), 8), SmallConfig().llc_hit_ns);
  EXPECT_EQ(mem_.IoRead(AddrAtSet(11, 5), 8), SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, DdioUpdatesInPlaceOnHit) {
  // CPU caches a line in way outside DDIO range (LRU will pick way 0 first
  // though); regardless, an IoWrite to a cached line must not be a miss.
  void* p = AddrAtSet(13);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(mem_.IoWrite(p, 8), SmallConfig().llc_hit_ns);
  // And the CPU's private copy was invalidated: next access is not a
  // private hit.
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_FALSE(r.private_hit);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, WriteInvalidatesOtherCoresPrivateCopies) {
  void* p = AddrAtSet(15);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  mem_.Access(1, 0, Stage::kData, p, 8, false);
  // Core 1 writes: core 0's private copy must be invalidated and a coherence
  // transfer charged.
  auto w = mem_.Access(1, 0, Stage::kData, p, 8, true);
  EXPECT_EQ(w.latency, SmallConfig().llc_hit_ns + SmallConfig().coherence_ns);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_FALSE(r.private_hit);
}

TEST_F(CacheModelTest, ReadAfterRemoteDirtyWriteChargesTransfer) {
  void* p = AddrAtSet(16);
  mem_.Access(0, 0, Stage::kData, p, 8, true);  // core 0 owns dirty
  auto r = mem_.Access(1, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns + SmallConfig().coherence_ns);
}

TEST_F(CacheModelTest, MultiLineAccessChargesStreamCost) {
  void* p = AddrAtSet(20);
  auto r = mem_.Access(0, 0, Stage::kData, p, 256, false);  // 4 lines
  const auto& cfg = SmallConfig();
  EXPECT_EQ(r.latency, cfg.dram_ns + 3 * cfg.stream_line_ns);
}

TEST_F(CacheModelTest, IoReadDoesNotAllocate) {
  void* p = AddrAtSet(22);
  mem_.IoRead(p, 8);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);  // still not cached
}

TEST_F(CacheModelTest, FlushAllResetsState) {
  void* p = AddrAtSet(24);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  mem_.FlushAll();
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);
}

TEST_F(CacheModelTest, RmwAddsAtomicCost) {
  void* p = AddrAtSet(26);
  // A prior write makes the line exclusive, so the RMW is a private hit plus
  // the atomic surcharge.
  mem_.Access(0, 0, Stage::kData, p, 8, true);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, true, /*rmw=*/true);
  EXPECT_EQ(r.latency, SmallConfig().priv_hit_ns + SmallConfig().atomic_extra_ns);
  EXPECT_FALSE(r.private_hit);  // atomics always serialize through the engine

  // After only a shared read, the RMW needs an LLC write upgrade.
  void* q = AddrAtSet(27);
  mem_.Access(0, 0, Stage::kData, q, 8, false);
  auto r2 = mem_.Access(0, 0, Stage::kData, q, 8, true, /*rmw=*/true);
  EXPECT_EQ(r2.latency, SmallConfig().llc_hit_ns + SmallConfig().atomic_extra_ns);
}

TEST_F(CacheModelTest, StageAttribution) {
  mem_.Access(0, 0, Stage::kPoll, AddrAtSet(28), 8, false);
  mem_.Access(0, 0, Stage::kIndex, AddrAtSet(29), 8, false);
  EXPECT_EQ(mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kPoll)].accesses,
            1u);
  EXPECT_EQ(
      mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kIndex)].accesses, 1u);
  EXPECT_EQ(mem_.Counters(0).Total().accesses, 2u);
}

}  // namespace
}  // namespace utps::sim
