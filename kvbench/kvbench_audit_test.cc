// The kvbench store audit passes a bed that a real run has written to, and
// catches each kind of damage it exists to catch.
#include <gtest/gtest.h>

#include "audit.h"
#include "harness/experiment.h"

namespace kvbench {
namespace {

using utps::Item;
using utps::Key;
using utps::WorkloadSpec;

class AuditTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 4096;

  void SetUp() override {
    spec_ = WorkloadSpec::YcsbA(kKeys, 64);
    bed_ = std::make_unique<utps::TestBed>(utps::IndexType::kHash, spec_);
    utps::ExperimentConfig cfg;
    cfg.system = utps::SystemKind::kMuTps;
    cfg.workload = spec_;
    cfg.client_threads = 4;
    cfg.pipeline_depth = 4;
    cfg.warmup_ns = 100 * utps::sim::kUsec;
    cfg.measure_ns = 200 * utps::sim::kUsec;
    cfg.sim_threads = 1;
    cfg.mutps.autotune = false;
    ASSERT_GT(bed_->Run(cfg).ops, 0u);
  }

  Item* ItemOf(Key k) { return bed_->index()->GetDirect(k); }

  WorkloadSpec spec_;
  std::unique_ptr<utps::TestBed> bed_;
};

TEST_F(AuditTest, PassesACleanBedAfterARun) {
  uint64_t overwritten = 0;
  for (Key k = 0; k < kKeys; k++) {
    overwritten += ItemOf(k)->value()[1] != static_cast<uint8_t>(k + 1);
  }
  EXPECT_GT(overwritten, 0u) << "the run should have stored client values";
  EXPECT_EQ(AuditStore(*bed_->index(), spec_), "");
}

TEST_F(AuditTest, CatchesAFlippedValueByte) {
  for (Key k : {Key{0}, Key{kKeys / 2}, Key{kKeys - 1}}) {
    Item* it = ItemOf(k);
    it->value()[5] ^= 0x40;
    EXPECT_NE(AuditStore(*bed_->index(), spec_), "") << "key " << k;
    it->value()[5] ^= 0x40;
  }
  EXPECT_EQ(AuditStore(*bed_->index(), spec_), "");
}

TEST_F(AuditTest, CatchesAnOddSeqlock) {
  Item* it = ItemOf(17);
  it->ctrl |= 1;
  EXPECT_NE(AuditStore(*bed_->index(), spec_), "");
}

TEST_F(AuditTest, CatchesAnErasedKey) {
  ASSERT_TRUE(bed_->index()->EraseDirect(kKeys / 3));
  EXPECT_NE(AuditStore(*bed_->index(), spec_), "");
}

}  // namespace
}  // namespace kvbench
