// Range-query demo: μTPS-T's cache-resident layer forwards every scan whole
// to the memory-resident layer, which walks the B-link leaf chain and copies
// the range into the response in key order. (The paper's §4 collaborative
// path, which served hot items from the CR layer first, measured slower
// here and was removed; DESIGN.md §7.)
//
// This example runs a YCSB-E-style mix, then makes keys inside a few ranges
// hot and verifies scans of those ranges byte for byte, in order, against
// the index's host-side plane.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "index/btree.h"

using namespace utps;

namespace {

// Issues `rounds` GETs of every third key in [lo, lo + count), so the CR
// layer samples them into the hot-set tracker.
sim::Fiber TouchRange(sim::ExecCtx* ctx, sim::Nic* nic, Key lo, uint32_t count,
                      uint32_t vsize, int rounds, bool* done) {
  std::vector<uint8_t> value(vsize);
  sim::RpcGate gate;
  for (int r = 0; r < rounds; r++) {
    for (Key k = lo + 1; k < lo + count; k += 3) {
      sim::NicMessage m = EncodeRequest(OpType::kGet, k, vsize, 0, 0);
      m.gate = &gate;
      m.copy_out = value.data();
      co_await RpcCall(*ctx, *nic, 0, m, nullptr);
    }
  }
  *done = true;
}

// A verification client: issues one scan with payload copy-out and checks
// it byte for byte, in key order, against the host-plane ScanDirect result.
sim::Fiber VerifyScan(sim::ExecCtx* ctx, sim::Nic* nic, BTreeIndex* tree, Key lo,
                      uint32_t count, uint32_t vsize, int* mismatches,
                      bool* done) {
  std::vector<uint8_t> wire(count * (vsize + 64));
  sim::RpcGate gate;
  sim::NicMessage m =
      EncodeRequest(OpType::kScan, lo, vsize, count, lo + count - 1);
  m.gate = &gate;
  m.copy_out = wire.data();
  uint32_t resp_len = 0;
  m.resp_len_out = &resp_len;
  co_await RpcCall(*ctx, *nic, 0, m, nullptr);
  std::vector<Item*> items(count);
  const uint32_t n = tree->ScanDirect(lo, lo + count - 1, count, items.data());
  std::string expected;
  for (uint32_t i = 0; i < n; i++) {
    expected.append(reinterpret_cast<const char*>(items[i]->value()),
                    items[i]->value_len);
  }
  if (expected.size() != resp_len ||
      std::memcmp(expected.data(), wire.data(), resp_len) != 0) {
    (*mismatches)++;
  }
  *done = true;
}

}  // namespace

int main(int argc, char** argv) {
  //   ./examples/range_scan_demo [num_keys]
  const uint64_t keys =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500000;
  const uint32_t vsize = 32;
  const WorkloadSpec spec = WorkloadSpec::YcsbE(keys, vsize);

  std::printf("populating %llu keys...\n", static_cast<unsigned long long>(keys));
  TestBed bed(IndexType::kTree, spec);

  // Throughput under the scan-heavy mix.
  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = spec;
  cfg.client_threads = 32;
  cfg.pipeline_depth = 4;
  cfg.warmup_ns = 2 * sim::kMsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.mutps.tune_llc = false;
  cfg.mutps.cache_sizes = {0, 4000};
  cfg.mutps.tune_window_ns = 200 * sim::kUsec;
  cfg.mutps.refresh_period_ns = 2 * sim::kMsec;
  std::printf("running YCSB-E (95%% scans of ~50 items) on uTPS-T...\n");
  const ExperimentResult r = bed.Run(cfg);
  std::printf("throughput %.2f Mops/s, p50 %.1f us, p99 %.1f us, "
              "%u CR / %u MR workers\n\n",
              r.mops, r.p50_ns / 1000.0, r.p99_ns / 1000.0, r.ncr, r.nmr);

  // Byte-exact, in-order verification of scans over ranges with hot keys.
  std::printf("verifying scan payloads against the host plane...\n");
  sim::Engine eng;
  sim::Arena run_arena(512ull << 20);
  bed.mem()->FlushAll();
  sim::Nic nic(bed.mem(), sim::NicConfig{}, 1);
  ServerEnv env;
  env.eng = &eng;
  env.mem = bed.mem();
  env.nic = &nic;
  env.arena = &run_arena;
  env.index = bed.index();
  env.num_workers = 8;
  SlabAllocator slab(&run_arena);
  env.slab = &slab;
  MuTpsServer::Options opt;
  opt.autotune = false;
  opt.initial_ncr = 3;
  opt.refresh_period_ns = 1 * sim::kMsec;
  MuTpsServer server(env, opt);
  server.Start();
  constexpr int kScans = 16;
  constexpr uint32_t kScanLen = 40;
  const auto range_lo = [](int i) { return Key{1000} + Key(i) * 177; };
  std::vector<sim::ExecCtx> ctxs(kScans);
  bool touched[kScans] = {};
  for (int i = 0; i < kScans; i++) {
    ctxs[i] = sim::ExecCtx{.eng = &eng, .mem = nullptr};
    eng.Spawn(TouchRange(&ctxs[i], &nic, range_lo(i), kScanLen, vsize,
                         /*rounds=*/16, &touched[i]));
  }
  // Run until every range is touched, then two refresh periods more: the
  // set is short of its target, so each refresh republishes it with every
  // sample drained so far.
  while (!std::all_of(touched, touched + kScans, [](bool d) { return d; }) &&
         eng.now() < 100 * sim::kMsec) {
    eng.Run(eng.now() + sim::kMsec);
  }
  eng.Run(eng.now() + 2 * opt.refresh_period_ns);
  std::printf("hot set: %u keys published\n", server.cache_items());
  int mismatches = 0;
  bool done[kScans] = {};
  auto* tree = static_cast<BTreeIndex*>(bed.index());
  for (int i = 0; i < kScans; i++) {
    eng.Spawn(VerifyScan(&ctxs[i], &nic, tree, range_lo(i), kScanLen, vsize,
                         &mismatches, &done[i]));
  }
  eng.Run(eng.now() + 50 * sim::kMsec);
  server.Stop();
  eng.Run(eng.now() + sim::kMsec);
  int completed = 0;
  for (bool d : done) {
    completed += d ? 1 : 0;
  }
  const bool ok =
      mismatches == 0 && completed == kScans && server.cache_items() > 0;
  std::printf("verified %d/%d scans: %s (%d mismatches)\n", completed, kScans,
              ok ? "all byte-exact, in key order" : "FAILED", mismatches);
  return ok ? 0 : 1;
}
