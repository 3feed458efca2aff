// GPU cost-model substrate tests: cache simulator, transaction coalescing,
// matmul utilization, device specs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalesce.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timeline.hpp"

namespace ts {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 4, false), 1u);
  EXPECT_EQ(c.access(0, 4, false), 0u);
  EXPECT_EQ(c.access(64, 4, false), 0u);  // same 128B line
  EXPECT_EQ(c.access(128, 4, false), 1u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.read_misses(), 2u);
}

TEST(CacheSim, MultiLineAccessCountsEachLine) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 512, false), 4u);  // 4 lines of 128B
  EXPECT_EQ(c.access(0, 512, false), 0u);
}

TEST(CacheSim, WriteMissDoesNotFetchButWritebackCounts) {
  CacheSim c(1024, /*ways=*/2);  // tiny: 4 sets x 2 ways
  c.access(0, 4, true);          // write miss: no DRAM fill
  EXPECT_EQ(c.dram_bytes(), 0.0);
  // Evict the dirty line by filling its set.
  for (uint64_t i = 1; i <= 8; ++i) c.access(i * 1024, 4, false);
  EXPECT_GT(c.writebacks(), 0u);
  EXPECT_GT(c.dram_bytes(), 0.0);
}

TEST(CacheSim, LruEvictsOldest) {
  CacheSim c(2 * 128, /*ways=*/2, /*line=*/128);  // 1 set, 2 ways
  c.access(0, 1, false);
  c.access(128, 1, false);
  c.access(0, 1, false);      // refresh line 0
  c.access(256, 1, false);    // evicts line 128 (LRU)
  EXPECT_EQ(c.access(0, 1, false), 0u);   // still cached
  EXPECT_EQ(c.access(128, 1, false), 1u); // was evicted
}

TEST(CacheSim, WorkingSetLargerThanCapacityThrashes) {
  // The §4.3.2 argument: a > L2 working set streamed twice has ~0 reuse.
  CacheSim c(64 * 1024);
  const std::size_t n = 4096;  // 512 KB >> 64 KB
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_LT(c.hit_rate(), 0.01);
}

TEST(CacheSim, WorkingSetFittingInCapacityReuses) {
  CacheSim c(1 << 20);
  const std::size_t n = 1024;  // 128 KB << 1 MB
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_GT(c.hit_rate(), 0.74);  // 3 of 4 passes hit
}

TEST(CacheSim, ResetClearsState) {
  CacheSim c(1 << 16);
  c.access(0, 256, true);
  c.reset();
  EXPECT_EQ(c.hits() + c.read_misses() + c.write_misses(), 0u);
  EXPECT_EQ(c.dram_bytes(), 0.0);
}

// --- Differential check against a naive LRU reference. ---

/// Textbook set-associative LRU: per-way valid/tag/dirty plus a
/// last-use tick, linear scans, invalid-way-first victims. Same write
/// semantics as CacheSim (write misses allocate without a fill; dirty
/// victims count a write-back).
class ReferenceLru {
 public:
  ReferenceLru(std::size_t sets, std::size_t ways, std::size_t line)
      : sets_(sets), line_(line), ways_(sets * ways), per_set_(ways) {}

  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    std::size_t misses = 0;
    for (uint64_t l = addr / line_; l <= (addr + bytes - 1) / line_; ++l)
      misses += access_line(l, is_write);
    return misses;
  }

  void reset() { *this = ReferenceLru(sets_, per_set_, line_); }

  std::size_t hits = 0, read_misses = 0, write_misses = 0, writebacks = 0;

 private:
  struct Way {
    bool valid = false, dirty = false;
    uint64_t tag = 0, last_use = 0;
  };

  std::size_t access_line(uint64_t l, bool is_write) {
    Way* set = ways_.data() + (l % sets_) * per_set_;
    const uint64_t tag = l / sets_;
    ++tick_;
    for (std::size_t w = 0; w < per_set_; ++w) {
      if (set[w].valid && set[w].tag == tag) {
        set[w].last_use = tick_;
        set[w].dirty = set[w].dirty || is_write;
        ++hits;
        return 0;
      }
    }
    ++(is_write ? write_misses : read_misses);
    Way* victim = nullptr;
    for (std::size_t w = 0; w < per_set_ && !victim; ++w)
      if (!set[w].valid) victim = &set[w];
    if (!victim) {
      victim = &set[0];
      for (std::size_t w = 1; w < per_set_; ++w)
        if (set[w].last_use < victim->last_use) victim = &set[w];
    }
    if (victim->valid && victim->dirty) ++writebacks;
    *victim = Way{true, is_write, tag, tick_};
    return 1;
  }

  std::size_t sets_, line_;
  std::vector<Way> ways_;
  std::size_t per_set_;
  uint64_t tick_ = 0;
};

void expect_same_counters(const CacheSim& c, const ReferenceLru& r,
                          std::size_t step) {
  ASSERT_EQ(c.hits(), r.hits) << "step " << step;
  ASSERT_EQ(c.read_misses(), r.read_misses) << "step " << step;
  ASSERT_EQ(c.write_misses(), r.write_misses) << "step " << step;
  ASSERT_EQ(c.writebacks(), r.writebacks) << "step " << step;
}

/// Replays `steps` seeded accesses through both caches, asserting equal
/// return values and counters after every access. Addresses span a few
/// times the capacity (so sets both hit and thrash), are unaligned, and
/// cover up to three lines; roughly a third are writes. With
/// `range_touches`, a quarter of the accesses are instead long range
/// touches (like matmul_touch's slab sweeps) of 0.5-5x the capacity,
/// half of them writes.
void replay_against_reference(CacheSim& c, ReferenceLru& r,
                              std::mt19937_64& rng, std::size_t capacity,
                              std::size_t line, std::size_t steps,
                              bool range_touches = false) {
  for (std::size_t i = 0; i < steps; ++i) {
    if (range_touches && rng() % 4 == 0) {
      const uint64_t addr = rng() % (8 * capacity);
      const std::size_t bytes =
          capacity / 2 + rng() % (4 * capacity + capacity / 2 + 1);
      const bool is_write = rng() % 2 == 0;
      ASSERT_EQ(c.access(addr, bytes, is_write),
                r.access(addr, bytes, is_write))
          << "step " << i << " range addr " << addr << " bytes " << bytes;
      expect_same_counters(c, r, i);
      continue;
    }
    // Mostly a hot quarter of the span, so LRU order is exercised.
    const uint64_t span = rng() % 4 == 0 ? 4 * capacity : capacity / 4 + 1;
    const uint64_t addr = rng() % span;
    const std::size_t bytes = rng() % (3 * line) + (rng() % 16 == 0 ? 0 : 1);
    const bool is_write = rng() % 3 == 0;
    ASSERT_EQ(c.access(addr, bytes, is_write), r.access(addr, bytes, is_write))
        << "step " << i << " addr " << addr << " bytes " << bytes;
    expect_same_counters(c, r, i);
  }
}

TEST(CacheSim, MatchesNaiveLruReference) {
  for (const std::size_t line : {std::size_t{64}, std::size_t{128}}) {
    for (const int ways : {1, 2, 3, 5, 16, 17, 64}) {
      SCOPED_TRACE("line " + std::to_string(line) + " ways " +
                   std::to_string(ways));
      const std::size_t sets = 8;
      const std::size_t capacity = sets * line * static_cast<std::size_t>(ways);
      CacheSim c(capacity, ways, line);
      ReferenceLru r(sets, static_cast<std::size_t>(ways), line);
      std::mt19937_64 rng(1000 * line + static_cast<uint64_t>(ways));
      replay_against_reference(c, r, rng, capacity, line, 4000);
      ASSERT_GT(c.hits(), 0u);
      ASSERT_GT(c.writebacks(), 0u);
      // reset() restores the cold state: the replay continues in lockstep.
      c.reset();
      r.reset();
      expect_same_counters(c, r, 0);
      replay_against_reference(c, r, rng, capacity, line, 4000);
      // Long range touches mixed with row touches: the sweeps evict the
      // hot rows, and dirty lines they leave behind are written back.
      const std::size_t before = c.writebacks();
      replay_against_reference(c, r, rng, capacity, line, 400,
                               /*range_touches=*/true);
      ASSERT_GT(c.writebacks(), before);
    }
  }
}

TEST(CacheSim, TagOverflowThrowsBeforeAnyStateChange) {
  // One set, so a line's tag is its address + 1: the last representable
  // tag belongs to line 2^32 - 2.
  const std::size_t line = 128;
  CacheSim c(4 * line, /*ways=*/4, line);
  ReferenceLru r(1, 4, line);
  const uint64_t last_line = 0xfffffffeull;
  for (const uint64_t l : {uint64_t{0}, uint64_t{1}, last_line}) {
    ASSERT_EQ(c.access(l * line, 1, true), r.access(l * line, 1, true));
  }
  // Spans line 2^32 - 2 (fine) and 2^32 - 1 (overflows): nothing may be
  // touched, including the first line.
  EXPECT_THROW(c.access(last_line * line, 2 * line, false),
               std::runtime_error);
  EXPECT_THROW(c.access((last_line + 5) * line, 1, true), std::runtime_error);
  expect_same_counters(c, r, 0);
  // The LRU order is untouched too: line 0 is still the eviction victim.
  for (const uint64_t l : {uint64_t{1}, last_line, uint64_t{7}, uint64_t{0}})
    ASSERT_EQ(c.access(l * line, 1, false), r.access(l * line, 1, false));
  expect_same_counters(c, r, 1);
}

// --- Transaction coalescing (paper Fig. 8). ---

TEST(Coalesce, Fp32ScalarIsFullyUtilized) {
  EXPECT_EQ(transactions_per_row(32, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(256, Precision::kFP32, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kFP32, false), 1.0);
}

TEST(Coalesce, Fp16ScalarSameCountHalfUtilization) {
  // The paper's key observation: scalar FP16 issues the same NUMBER of
  // transactions as FP32 at 50% utilization.
  for (std::size_t c : {32u, 64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, false),
              transactions_per_row(c, Precision::kFP32, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, false), 0.5);
}

TEST(Coalesce, Fp16VectorizedHalvesTransactions) {
  for (std::size_t c : {64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, true) * 2,
              transactions_per_row(c, Precision::kFP16, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, true), 1.0);
}

TEST(Coalesce, Int8VectorizedQuartersTransactions) {
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, true), 2u);
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kINT8, false), 0.25);
}

TEST(Coalesce, PartialRowsRoundUp) {
  EXPECT_EQ(transactions_per_row(1, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(33, Precision::kFP32, false), 2u);
}

// --- Matmul utilization / kernel cost. ---

TEST(CostModel, UtilizationIncreasesWithEveryDimension) {
  const CostModel cm(rtx2080ti());
  const Precision p = Precision::kFP16;
  EXPECT_LT(cm.mm_utilization(1000, 64, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 16, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 64, 16, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LE(cm.mm_utilization(1e9, 1e9, 1e9, p), rtx2080ti().max_mm_util);
}

TEST(CostModel, Table2UtilizationAnchors) {
  // Calibration anchors from the paper's Table 2 (2080Ti, FP16):
  // separate per-offset GEMMs run at ~30% utilization, adaptive grouping
  // at ~44% — a ~1.4-1.5x ratio. The absolute fractions here sit slightly
  // above the paper's (to keep narrow-channel layers at credible absolute
  // TFLOP/s); the ratio is the anchor that must hold.
  const CostModel cm(rtx2080ti());
  const double separate = cm.mm_utilization(1e4, 64, 64, Precision::kFP16);
  const double grouped = cm.mm_utilization(1e5, 64, 64, Precision::kFP16);
  EXPECT_NEAR(separate, 0.38, 0.10);
  EXPECT_NEAR(grouped, 0.56, 0.12);
  EXPECT_GT(grouped / separate, 1.3);
  EXPECT_LT(grouped / separate, 1.7);
}

TEST(CostModel, Fp16UtilizationFractionBelowFp32AtSameShape) {
  // A faster unit needs a bigger workload to saturate: at the same GEMM
  // shape the FP16 utilization *fraction* is lower (the achieved TFLOP/s
  // is still never lower).
  const CostModel cm(rtx2080ti());
  const double u32 = cm.mm_utilization(2e4, 64, 64, Precision::kFP32);
  const double u16 = cm.mm_utilization(2e4, 64, 64, Precision::kFP16);
  EXPECT_LT(u16, u32);
  EXPECT_GE(u16 * cm.peak_tflops(Precision::kFP16),
            u32 * cm.peak_tflops(Precision::kFP32) * 0.999);
}

TEST(CostModel, SmallGemmFp16GivesAlmostNoSpeedup) {
  // Why the 1080Ti loses only ~11% of the speedup (§5.2): small irregular
  // GEMMs can't exploit the tensor-core peak.
  const CostModel cm(rtx2080ti());
  const double t32 = cm.mm(2000, 32, 32, Precision::kFP32).seconds;
  const double t16 = cm.mm(2000, 32, 32, Precision::kFP16).seconds;
  EXPECT_LT(t32 / t16, 1.35);
  // Large regular GEMMs do benefit substantially.
  const double b32 = cm.mm(500000, 256, 256, Precision::kFP32).seconds;
  const double b16 = cm.mm(500000, 256, 256, Precision::kFP16).seconds;
  EXPECT_GT(b32 / b16, 1.5);
}

TEST(CostModel, SmallGemmsAreLaunchBound) {
  const CostModel cm(rtx2080ti());
  const KernelCost kc = cm.mm(16, 16, 16, Precision::kFP16);
  EXPECT_GT(kc.seconds, cm.launch_seconds() * 0.99);
  EXPECT_LT(kc.seconds, cm.launch_seconds() * 1.5);
}

TEST(CostModel, BmmOneBatchEqualsMm) {
  const CostModel cm(rtx3090());
  const KernelCost a = cm.mm(5000, 64, 64, Precision::kFP16);
  const KernelCost b = cm.bmm(1, 5000, 64, 64, Precision::kFP16);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
}

TEST(CostModel, BatchingSmallGemmsBeatsSeparate) {
  // The heart of Fig. 7: 8 equal small GEMMs run faster as one bmm.
  const CostModel cm(rtx2080ti());
  const double separate =
      8 * cm.mm(2000, 64, 64, Precision::kFP16).seconds;
  const double batched = cm.bmm(8, 2000, 64, 64, Precision::kFP16).seconds;
  EXPECT_LT(batched, separate);
}

TEST(CostModel, PaddingWasteCanMakeBmmLose) {
  // One huge problem + 7 tiny ones padded to it: bmm wastes ~7x FLOPs.
  const CostModel cm(rtx2080ti());
  double separate = cm.mm(400000, 128, 128, Precision::kFP16).seconds;
  for (int i = 0; i < 7; ++i)
    separate += cm.mm(2000, 128, 128, Precision::kFP16).seconds;
  const double batched =
      cm.bmm(8, 400000, 128, 128, Precision::kFP16).seconds;
  EXPECT_GT(batched, separate);
}

TEST(CostModel, Fp16PeaksOnlyOnTensorCoreDevices) {
  EXPECT_GT(CostModel(rtx2080ti()).peak_tflops(Precision::kFP16),
            CostModel(rtx2080ti()).peak_tflops(Precision::kFP32));
  EXPECT_EQ(CostModel(gtx1080ti()).peak_tflops(Precision::kFP16),
            CostModel(gtx1080ti()).peak_tflops(Precision::kFP32));
}

TEST(CostModel, FlopsAccountPadding) {
  const CostModel cm(rtx3090());
  const KernelCost kc = cm.bmm(4, 1000, 32, 32, Precision::kFP32);
  EXPECT_DOUBLE_EQ(kc.flops, 2.0 * 4 * 1000 * 32 * 32);
}

TEST(CostModel, ZeroSizedKernelsAreFree) {
  const CostModel cm(rtx3090());
  EXPECT_EQ(cm.mm(0, 64, 64, Precision::kFP32).seconds, 0.0);
  EXPECT_EQ(cm.bmm(0, 10, 64, 64, Precision::kFP32).seconds, 0.0);
}

TEST(DeviceSpecs, PaperOrderingsHold) {
  // Bandwidth and compute both increase 1080Ti -> 2080Ti -> 3090.
  const auto d1 = gtx1080ti(), d2 = rtx2080ti(), d3 = rtx3090();
  EXPECT_LT(d1.dram_bandwidth_gbps, d2.dram_bandwidth_gbps);
  EXPECT_LT(d2.dram_bandwidth_gbps, d3.dram_bandwidth_gbps);
  EXPECT_LT(d1.peak_fp32_tflops, d2.peak_fp32_tflops);
  EXPECT_FALSE(d1.has_fp16_tensor_cores);
  EXPECT_TRUE(d2.has_fp16_tensor_cores);
  // 2080Ti L2 is 5.5MB (the paper quotes this).
  EXPECT_DOUBLE_EQ(d2.l2_bytes, 5.5 * 1024 * 1024);
}

TEST(DeviceSpecs, DefaultInitializationZeroesEveryField) {
  // Default-initialize into storage filled with a non-zero pattern: a
  // field without a default member initializer would keep the pattern,
  // and copying such a spec (a default ServerConfig holds one) would
  // read indeterminate values.
  alignas(DeviceSpec) unsigned char buf[sizeof(DeviceSpec)];
  std::memset(buf, 0xAB, sizeof buf);
  DeviceSpec* d = new (buf) DeviceSpec;
  EXPECT_EQ(d->dram_bandwidth_gbps, 0.0);
  EXPECT_EQ(d->peak_fp32_tflops, 0.0);
  EXPECT_EQ(d->peak_fp16_tflops, 0.0);
  EXPECT_FALSE(d->has_fp16_tensor_cores);
  EXPECT_EQ(d->l2_bytes, 0.0);
  EXPECT_EQ(d->launch_overhead_us, 0.0);
  EXPECT_EQ(d->core_clock_ghz, 0.0);
  EXPECT_EQ(d->num_sms, 0);
  d->~DeviceSpec();
}

TEST(Timeline, AccumulatesAndAggregates) {
  Timeline t;
  t.add(Stage::kGather, 0.001);
  t.add(Stage::kScatter, 0.002);
  t.add(Stage::kMatMul, 0.004);
  t.add_flops(8e9);
  EXPECT_DOUBLE_EQ(t.data_movement_seconds(), 0.003);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.007);
  EXPECT_NEAR(t.matmul_tflops(), 2.0, 1e-9);
  Timeline u;
  u.add(Stage::kGather, 0.001);
  t += u;
  EXPECT_DOUBLE_EQ(t.stage_seconds(Stage::kGather), 0.002);
  EXPECT_NEAR(t.fps(), 1.0 / 0.008, 1e-9);
}

}  // namespace
}  // namespace ts
