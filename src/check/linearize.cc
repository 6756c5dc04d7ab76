#include "check/linearize.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace utps::check {

namespace {

using sim::Tick;

constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

// One key's projection of the history: put/delete = write, get = read.
struct KOp {
  bool write;
  uint64_t stamp;  // write: value written (0 = delete); read: value returned
  Tick inv;
  Tick resp;
};

// Wing–Gong DFS over one key's operations against a register. `done` is a
// bitset over `ops`; search state is (done set, register value). States are
// memoized by a 64-bit hash — a collision could in principle mask a
// violation, but the state count per key is small enough (unique write
// stamps prune almost every branch) that the risk is negligible.
struct KeySearch {
  const std::vector<KOp>& ops;
  std::vector<uint64_t> done;
  size_t ndone = 0;
  std::unordered_set<uint64_t> memo;
  uint64_t* budget;
  bool out_of_budget = false;

  explicit KeySearch(const std::vector<KOp>& o, uint64_t* b)
      : ops(o), done((o.size() + 63) / 64, 0), budget(b) {}

  bool IsDone(size_t i) const { return (done[i / 64] >> (i % 64)) & 1; }
  void Mark(size_t i) {
    done[i / 64] |= uint64_t{1} << (i % 64);
    ndone++;
  }
  void Unmark(size_t i) {
    done[i / 64] &= ~(uint64_t{1} << (i % 64));
    ndone--;
  }

  uint64_t StateHash(uint64_t value) const {
    uint64_t h = Mix64(value ^ 0x5851f42d4c957f2dULL);
    for (uint64_t w : done) {
      h = Mix64(h ^ w);
    }
    return h;
  }

  bool Dfs(uint64_t value) {
    if (ndone == ops.size()) {
      return true;
    }
    if (*budget == 0) {
      out_of_budget = true;
      return false;
    }
    (*budget)--;
    if (!memo.insert(StateHash(value)).second) {
      return false;
    }
    // An op is minimal if no other pending op's response strictly precedes
    // its invocation. Equal ticks count as concurrent (virtual-time ties
    // carry no order), which can only make the checker more permissive.
    Tick min_resp = kTickMax;
    for (size_t i = 0; i < ops.size(); i++) {
      if (!IsDone(i) && ops[i].resp < min_resp) {
        min_resp = ops[i].resp;
      }
    }
    // A minimal read of the current value goes next, with no other order
    // tried: any valid completion stays valid with that read moved to its
    // front (a read changes nothing, and taking it out of the pending set
    // only relaxes every other op's minimality). Without this the search
    // backtracks through the orders of a hot key's reads, and histories
    // whose reads overlap long write chains take seconds to check.
    for (size_t i = 0; i < ops.size(); i++) {
      if (!IsDone(i) && ops[i].inv <= min_resp && !ops[i].write &&
          ops[i].stamp == value) {
        Mark(i);
        if (Dfs(value)) {
          return true;
        }
        Unmark(i);
        return false;
      }
    }
    for (size_t i = 0; i < ops.size(); i++) {
      if (IsDone(i) || ops[i].inv > min_resp) {
        continue;
      }
      const KOp& op = ops[i];
      if (!op.write && op.stamp != value) {
        continue;  // read not satisfiable at this point
      }
      Mark(i);
      if (Dfs(op.write ? op.stamp : value)) {
        return true;
      }
      Unmark(i);
      if (out_of_budget) {
        return false;
      }
    }
    return false;
  }
};

struct WriteEv {
  uint64_t stamp;  // 0 = delete
  Tick inv;
  Tick resp;
};

std::string TickStr(Tick t) { return std::to_string(t); }

}  // namespace

CheckResult CheckLinearizability(const History& h, const CheckOptions& opts) {
  CheckResult res;
  res.ops_checked = h.ops.size();
  uint64_t budget = opts.node_budget;

  auto fail = [&res](Key key, std::string msg) -> CheckResult& {
    res.ok = false;
    res.bad_key = key;
    res.error = std::move(msg);
    return res;
  };

  // ---- partition by key --------------------------------------------------
  std::unordered_map<Key, std::vector<KOp>> per_key;
  std::unordered_map<Key, std::vector<WriteEv>> writes;  // puts + deletes
  std::unordered_map<Key, std::unordered_set<uint64_t>> valid_stamps;
  for (const auto& [key, stamp] : h.initial) {
    valid_stamps[key].insert(stamp);
  }
  for (const OpRecord& op : h.ops) {
    switch (op.kind) {
      case OpKind::kPut:
        per_key[op.key].push_back(KOp{true, op.stamp, op.inv, op.resp});
        writes[op.key].push_back(WriteEv{op.stamp, op.inv, op.resp});
        valid_stamps[op.key].insert(op.stamp);
        break;
      case OpKind::kDelete:
        per_key[op.key].push_back(KOp{true, 0, op.inv, op.resp});
        writes[op.key].push_back(WriteEv{0, op.inv, op.resp});
        break;
      case OpKind::kGet:
        if (op.corrupt) {
          return fail(op.key, "get returned a torn/corrupt value for key " +
                                  std::to_string(op.key) + " at t=" +
                                  TickStr(op.resp));
        }
        per_key[op.key].push_back(KOp{false, op.stamp, op.inv, op.resp});
        break;
      case OpKind::kScan:
        break;  // handled below
    }
  }

  // ---- cheap pre-checks, then Wing–Gong per key --------------------------
  for (auto& [key, kops] : per_key) {
    const auto vs_it = valid_stamps.find(key);
    const auto init_it = h.initial.find(key);
    const uint64_t init = init_it != h.initial.end() ? init_it->second : 0;
    const bool has_delete =
        std::any_of(kops.begin(), kops.end(),
                    [](const KOp& o) { return o.write && o.stamp == 0; });
    for (const KOp& op : kops) {
      if (op.write) {
        continue;
      }
      if (op.stamp != 0 &&
          (vs_it == valid_stamps.end() || !vs_it->second.contains(op.stamp))) {
        return fail(key, "get returned stamp " + std::to_string(op.stamp) +
                             " never written to key " + std::to_string(key));
      }
      if (op.stamp == 0 && init != 0 && !has_delete) {
        return fail(key, "get returned absent for key " + std::to_string(key) +
                             " which was populated and never deleted");
      }
    }
    std::sort(kops.begin(), kops.end(), [](const KOp& a, const KOp& b) {
      return a.inv != b.inv ? a.inv < b.inv : a.resp < b.resp;
    });
    KeySearch search(kops, &budget);
    if (!search.Dfs(init)) {
      if (search.out_of_budget) {
        res.inconclusive = true;
        return res;
      }
      return fail(key, "no valid linearization for key " + std::to_string(key) +
                           " (" + std::to_string(kops.size()) + " ops)");
    }
  }

  // ---- scans: possibly-visible-window rule -------------------------------
  // Each returned entry's producing write must not begin after the scan
  // responded, and must not be *definitely* overwritten before the scan was
  // invoked (another write on the key strictly after it and strictly before
  // the scan). This is sound for any scan implementation that reads each key
  // at some instant within the scan's interval.
  for (const OpRecord& op : h.ops) {
    if (op.kind != OpKind::kScan) {
      continue;
    }
    if (op.corrupt) {
      return fail(op.key, "scan [" + std::to_string(op.key) + "," +
                              std::to_string(op.upper) +
                              "] returned a torn/corrupt entry at t=" +
                              TickStr(op.resp));
    }
    std::unordered_set<Key> seen_keys;
    Key prev_key = 0;
    bool first = true;
    for (uint64_t s : op.scan_stamps) {
      const Key k = StampKey(s);
      if (k < op.key || k > op.upper) {
        return fail(k, "scan entry key " + std::to_string(k) +
                           " outside range [" + std::to_string(op.key) + "," +
                           std::to_string(op.upper) + "]");
      }
      if (!seen_keys.insert(k).second) {
        return fail(k, "scan returned key " + std::to_string(k) + " twice");
      }
      if (!first && k <= prev_key) {
        return fail(k, "scan entries not in ascending key order");
      }
      prev_key = k;
      first = false;
      const auto vs_it = valid_stamps.find(k);
      if (vs_it == valid_stamps.end() || !vs_it->second.contains(s)) {
        return fail(k, "scan returned stamp " + std::to_string(s) +
                           " never written to key " + std::to_string(k));
      }
      // Locate the producing write's interval. Population writes complete
      // before the simulation starts (interval [0,0]).
      Tick w_inv = 0;
      Tick w_resp = 0;
      const auto wit = writes.find(k);
      const auto init_it = h.initial.find(k);
      const bool is_initial = init_it != h.initial.end() && init_it->second == s;
      if (!is_initial && wit != writes.end()) {
        for (const WriteEv& w : wit->second) {
          if (w.stamp == s) {
            w_inv = w.inv;
            w_resp = w.resp;
            break;
          }
        }
      }
      if (w_inv > op.resp) {
        return fail(k, "scan returned stamp " + std::to_string(s) +
                           " written after the scan responded");
      }
      if (wit != writes.end()) {
        for (const WriteEv& w : wit->second) {
          if (w.stamp != s && w.inv > w_resp && w.resp < op.inv) {
            return fail(k, "scan returned stamp " + std::to_string(s) +
                               " for key " + std::to_string(k) +
                               " definitely overwritten before the scan began");
          }
        }
      }
    }
    // Completeness: only checkable when the range's membership is static
    // over the run (no deletes, no inserts of initially-absent keys).
    bool static_membership = true;
    uint64_t live_in_range = 0;
    for (const auto& [k, stamp] : h.initial) {
      if (k >= op.key && k <= op.upper) {
        live_in_range++;
      }
    }
    for (const OpRecord& o : h.ops) {
      if ((o.kind == OpKind::kDelete ||
           (o.kind == OpKind::kPut && !h.initial.contains(o.key))) &&
          o.key >= op.key && o.key <= op.upper) {
        static_membership = false;
        break;
      }
    }
    if (static_membership) {
      const uint64_t expect =
          std::min<uint64_t>(op.scan_count, live_in_range);
      const uint64_t got = op.scan_stamps.size();
      if (got != expect) {
        return fail(op.key,
                    "scan [" + std::to_string(op.key) + "," +
                        std::to_string(op.upper) + "] count=" +
                        std::to_string(op.scan_count) + " returned " +
                        std::to_string(got) + " entries, expected " +
                        std::to_string(expect));
      }
    }
  }
  return res;
}

}  // namespace utps::check
