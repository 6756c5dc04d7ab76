// Post-run store audit for kvbench: after a run has quiesced, every key the
// TestBed populated must still be present and hold a value some client could
// have produced.
#ifndef KVBENCH_AUDIT_H_
#define KVBENCH_AUDIT_H_

#include <cstdint>
#include <string>

#include "index/index.h"
#include "workload/workload.h"

namespace kvbench {

// True if `it` holds key `key`'s populate pattern (byte b = key + b) or a
// client fill (every byte equal: each client writes one repeated byte).
inline bool ValueIsLegal(const utps::Item& it, utps::Key key) {
  const uint8_t* v = it.value();
  bool populate = true;
  bool uniform = true;
  for (uint32_t b = 0; b < it.value_len; b++) {
    populate = populate && v[b] == static_cast<uint8_t>(key + b);
    uniform = uniform && v[b] == v[0];
  }
  return populate || uniform;
}

// Returns "" when the index and every item are consistent, else a
// description of the first violation.
inline std::string AuditStore(const utps::KvIndex& index,
                              const utps::WorkloadSpec& spec) {
  std::string err;
  if (!index.AuditDirect(&err)) {
    return "index audit: " + err;
  }
  if (index.SizeDirect() != spec.num_keys) {
    return "index holds " + std::to_string(index.SizeDirect()) +
           " keys, expected " + std::to_string(spec.num_keys);
  }
  for (utps::Key k = 0; k < spec.num_keys; k++) {
    const utps::Item* it = index.GetDirect(k);
    const std::string at = "key " + std::to_string(k) + ": ";
    if (it == nullptr) {
      return at + "missing";
    }
    if ((it->ctrl & 1) != 0) {
      return at + "seqlock odd after quiesce";
    }
    if (it->key != k) {
      return at + "item holds key " + std::to_string(it->key);
    }
    if (it->value_len != utps::ValueSizeOfKey(spec, k)) {
      return at + "value_len " + std::to_string(it->value_len);
    }
    if (!ValueIsLegal(*it, k)) {
      return at + "value bytes are neither the populate pattern nor a "
                  "client fill";
    }
  }
  return "";
}

}  // namespace kvbench

#endif  // KVBENCH_AUDIT_H_
