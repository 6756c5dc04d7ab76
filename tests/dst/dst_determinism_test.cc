// Determinism regression: the simulator must be a pure function of the seed,
// including under schedule perturbation. Each server type is run twice
// in-process and once in a fresh subprocess with the same seed; the formatted
// result rows must be byte-identical.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "../fresh_process.h"
#include "dst_harness.h"

namespace utps::dst {
namespace {

constexpr uint64_t kSeed = 12345;

DstConfig RowConfig(Sys sys) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = kYcsbA;
  cfg.seed = kSeed;
  cfg.jitter_ns = 48;  // perturbation fully on: permuted ties + jitter
  cfg.inject_split = true;
  return cfg;
}

std::string RowFor(Sys sys) {
  const DstResult r = RunDst(RowConfig(sys));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu digest=%016llx issued=%llu completed=%llu "
                "checked=%zu ok=%d",
                SysName(sys), static_cast<unsigned long long>(kSeed),
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.ops_issued),
                static_cast<unsigned long long>(r.ops_completed),
                r.ops_checked, r.ok ? 1 : 0);
  return buf;
}

std::string AllRows() {
  std::string rows;
  for (Sys sys : kAllSystems) {
    rows += RowFor(sys);
    rows += '\n';
  }
  return rows;
}

// Child-side emitter: skipped unless the parent test set the output path.
TEST(DstDeterminism, ChildEmit) {
  const char* path = std::getenv("MUTPS_DST_CHILD_OUT");
  if (path == nullptr) {
    GTEST_SKIP() << "subprocess helper (driven by SubprocessIdentical)";
  }
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f << AllRows();
}

TEST(DstDeterminism, InProcessRepeatIdentical) {
  for (Sys sys : kAllSystems) {
    const std::string a = RowFor(sys);
    const std::string b = RowFor(sys);
    EXPECT_EQ(a, b) << SysName(sys) << ": repeat run diverged";
  }
}

TEST(DstDeterminism, DifferentSeedsDiverge) {
  DstConfig a = RowConfig(Sys::kBaseKv);
  DstConfig b = a;
  b.seed = kSeed + 1;
  EXPECT_NE(RunDst(a).digest, RunDst(b).digest);
}

// DELETEs, which only the two RPC servers serve.
DstConfig DeleteCell(Sys sys) {
  DstConfig cfg = RowConfig(sys);
  cfg.mix = kDeleteMix;
  return cfg;
}

// BaseKV crashes mid-run on a lossy, duplicating network; a rebuilt instance
// replays the group-commit WAL (DELETEs included) and re-seeds its dedup
// window from the logged request ids.
DstConfig WalCrashCell() {
  DstConfig cfg = DeleteCell(Sys::kBaseKv);
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.delay_prob = 0.10;
  cfg.wal.enabled = true;
  cfg.wal.mode = wal::CommitMode::kGroup;
  cfg.server_crash_at_ns = 60 * sim::kUsec;
  return cfg;
}

// Single-node behaviour pinned across commits: the history digest and
// counters each cell produced when this table was generated. The tests above
// compare runs within one build only; this table catches drift between
// commits in the paths no golden row covers: perturbed schedules, faults and
// dedup replay, worker crash stalls, DELETEs and WAL crash recovery. A change
// meant to preserve behaviour keeps every row; one that moves simulated
// behaviour regenerates the table (a mismatch prints it in paste-ready form)
// and says why. The cluster's table is DstCluster.DigestsMatchCommitted.
TEST(DstDeterminism, DigestsMatchCommitted) {
  const struct {
    const char* name;
    DstConfig cfg;
    uint64_t digest;
    uint64_t ops_completed;
    uint64_t retries;
  } cells[] = {
      {DST_CELL(RowConfig(Sys::kMuTpsH)), 0x436e6735a18ccc73ULL, 160, 0},
      {DST_CELL(RowConfig(Sys::kMuTpsT)), 0xff1d7264586604a4ULL, 160, 0},
      {DST_CELL(RowConfig(Sys::kBaseKv)), 0xefb0b44ccf507fd9ULL, 160, 0},
      {DST_CELL(RowConfig(Sys::kErpcKv)), 0xc4d54e08cc077c22ULL, 160, 0},
      {DST_CELL(RowConfig(Sys::kSherman)), 0xf555c0a0cb2dbf3fULL, 160, 0},
      {DST_CELL(KitchenSink(Sys::kMuTpsH)), 0xa7b0eb08d2ab7493ULL, 160, 5},
      {DST_CELL(KitchenSink(Sys::kMuTpsT)), 0xa29c45a14236e20bULL, 160, 5},
      {DST_CELL(KitchenSink(Sys::kBaseKv)), 0x348f987e0c8aaa41ULL, 160, 13},
      {DST_CELL(KitchenSink(Sys::kErpcKv)), 0xf6b0d6a38fe95d9cULL, 160, 16},
      {DST_CELL(KitchenSink(Sys::kSherman)), 0x2618345c8457d7d9ULL, 160, 0},
      {DST_CELL(DeleteCell(Sys::kBaseKv)), 0x58da2a4e7bff4544ULL, 160, 0},
      {DST_CELL(DeleteCell(Sys::kErpcKv)), 0xf860d5851e99a5b6ULL, 160, 0},
      {DST_CELL(WalCrashCell()), 0xd9ac94dd151ab082ULL, 160, 22},
  };
  std::string table;
  bool moved = false;
  for (const auto& c : cells) {
    const DstResult r = RunDst(c.cfg);
    EXPECT_TRUE(r.ok) << c.name << ": " << r.error;
    EXPECT_EQ(r.digest, c.digest) << c.name;
    EXPECT_EQ(r.ops_completed, c.ops_completed) << c.name;
    EXPECT_EQ(r.retries, c.retries) << c.name;
    moved |= r.digest != c.digest || r.ops_completed != c.ops_completed ||
             r.retries != c.retries;
    char row[160];
    std::snprintf(row, sizeof(row),
                  "      {DST_CELL(%s), 0x%016llxULL, %llu, %llu},\n", c.name,
                  static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(r.ops_completed),
                  static_cast<unsigned long long>(r.retries));
    table += row;
  }
  if (moved) {
    ADD_FAILURE() << "cells as this build runs them:\n" << table;
  }
}

TEST(DstDeterminism, SubprocessIdentical) {
  const std::string expected = AllRows();

  std::string got;
  ASSERT_TRUE(RunFreshProcess("MUTPS_DST_CHILD_OUT", "DstDeterminism.ChildEmit",
                              &got));
  EXPECT_EQ(expected, got)
      << "fresh-process run produced different result rows";
}

}  // namespace
}  // namespace utps::dst
