// Adaptive group search (Alg. 5) tests.
#include <gtest/gtest.h>

#include <random>

#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "tune/group_tuner.hpp"

namespace ts {
namespace {

LayerRecord make_record(int id, std::vector<std::size_t> sizes,
                        std::size_t c, bool sub = true) {
  LayerRecord r;
  r.layer_id = id;
  r.map_sizes = std::move(sizes);
  r.c_in = r.c_out = c;
  r.submanifold = sub;
  return r;
}

std::vector<std::size_t> submanifold_sizes(std::size_t base, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> sizes(27);
  for (int i = 0; i < 13; ++i) {
    sizes[static_cast<std::size_t>(i)] = base / 2 + rng() % base;
    sizes[static_cast<std::size_t>(26 - i)] =
        sizes[static_cast<std::size_t>(i)];
  }
  sizes[13] = base * 3;
  return sizes;
}

TEST(Tuner, SearchSpaceIsBoundedLikeThePaper) {
  const auto space = default_search_space();
  EXPECT_GT(space.size(), 20u);
  EXPECT_LT(space.size(), 1000u);  // paper: ~1000 configurations
}

TEST(Tuner, TunedNeverWorseThanAnySearchedConfig) {
  const CostModel cost(rtx2080ti());
  const LayerRecord rec = make_record(0, submanifold_sizes(3000, 1), 64);
  const TuneResult res = tune_groups({{rec}}, cost, Precision::kFP16);
  ASSERT_TRUE(res.params.count(0));
  const double tuned_cost = grouped_matmul_seconds(
      rec, GroupingStrategy::kAdaptive, res.params.at(0), cost,
      Precision::kFP16);
  for (const GroupParams& p : default_search_space()) {
    EXPECT_LE(tuned_cost, grouped_matmul_seconds(
                              rec, GroupingStrategy::kAdaptive, p, cost,
                              Precision::kFP16) +
                              1e-12);
  }
}

TEST(Tuner, AdaptiveBeatsSeparateOnSmallWorkloads) {
  // Small per-offset maps underutilize the GPU; tuned adaptive grouping
  // must win (the Fig. 7 effect).
  const CostModel cost(rtx2080ti());
  const LayerRecord rec = make_record(0, submanifold_sizes(1500, 2), 64);
  const TuneResult res = tune_groups({{rec}}, cost, Precision::kFP16);
  const double adaptive = grouped_matmul_seconds(
      rec, GroupingStrategy::kAdaptive, res.params.at(0), cost,
      Precision::kFP16);
  const double separate = grouped_matmul_seconds(
      rec, GroupingStrategy::kSeparate, GroupParams{}, cost,
      Precision::kFP16);
  EXPECT_LT(adaptive, separate);
  EXPECT_GT(separate / adaptive, 1.15);
}

TEST(Tuner, TunesEveryLayerIndependently) {
  const CostModel cost(rtx3090());
  std::vector<LayerRecord> sample = {
      make_record(10, submanifold_sizes(500, 3), 32),
      make_record(11, submanifold_sizes(50000, 4), 128),
      make_record(12, {100, 110, 95, 105, 100, 98, 102, 99}, 64, false),
  };
  const TuneResult res = tune_groups({sample}, cost, Precision::kFP16);
  EXPECT_EQ(res.params.size(), 3u);
  EXPECT_TRUE(res.params.count(10));
  EXPECT_TRUE(res.params.count(12));
}

TEST(Tuner, AggregatesAcrossSamples) {
  // Tuning on two samples optimizes the sum, not either alone.
  const CostModel cost(rtx2080ti());
  const LayerRecord a = make_record(0, submanifold_sizes(800, 5), 64);
  const LayerRecord b = make_record(0, submanifold_sizes(8000, 6), 64);
  const TuneResult both = tune_groups({{a}, {b}}, cost, Precision::kFP16);
  const GroupParams p = both.params.at(0);
  double best_sum = 1e9;
  for (const GroupParams& q : default_search_space()) {
    const double c =
        grouped_matmul_seconds(a, GroupingStrategy::kAdaptive, q, cost,
                               Precision::kFP16) +
        grouped_matmul_seconds(b, GroupingStrategy::kAdaptive, q, cost,
                               Precision::kFP16);
    best_sum = std::min(best_sum, c);
  }
  const double chosen =
      grouped_matmul_seconds(a, GroupingStrategy::kAdaptive, p, cost,
                             Precision::kFP16) +
      grouped_matmul_seconds(b, GroupingStrategy::kAdaptive, p, cost,
                             Precision::kFP16);
  EXPECT_NEAR(chosen, best_sum, best_sum * 1e-9);
}

TEST(Tuner, EndToEndTuningImprovesModeledMatmul) {
  // Table 1's diagonal: a strategy tuned for (dataset, device) is at
  // least as good there as the default parameters.
  Workload w = make_minkunet_workload("tiny", "SemanticKITTI", 0.5, 1,
                                      /*seed=*/31, /*scale=*/0.25, 2);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  const auto tuned = tune_for(w.model, w.tune_samples, dev, cfg);
  EXPECT_GT(tuned.size(), 20u);  // every conv layer got parameters

  RunOptions with_tuned;
  with_tuned.tuned = tuned;
  with_tuned.simulate_cache = false;
  RunOptions without;
  without.simulate_cache = false;
  const Timeline t_tuned =
      run_model(w.model, w.input, dev, cfg, with_tuned);
  const Timeline t_plain = run_model(w.model, w.input, dev, cfg, without);
  EXPECT_LE(t_tuned.stage_seconds(Stage::kMatMul),
            t_plain.stage_seconds(Stage::kMatMul) * 1.02);
}

TEST(Tuner, TunedParamsTransferToAnotherInstanceOfTheModel) {
  // Layer ids are per-model construction ordinals, so parameters tuned
  // on one instance apply to every instance built the same way (the
  // serving store hands one tuning to any same-named model).
  Workload a = make_minkunet_workload("a", "SemanticKITTI", 1.0, 1,
                                      /*seed=*/41, /*scale=*/0.25, 2);
  Workload b = make_minkunet_workload("b", "SemanticKITTI", 1.0, 1,
                                      /*seed=*/41, /*scale=*/0.25, 2);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();
  RunOptions tuned;
  tuned.tuned = tune_for(a.model, a.tune_samples, dev, cfg);
  const double untuned_a =
      run_model(a.model, a.input, dev, cfg, RunOptions{}).total_seconds();
  const double tuned_a =
      run_model(a.model, a.input, dev, cfg, tuned).total_seconds();
  const double tuned_b =
      run_model(b.model, b.input, dev, cfg, tuned).total_seconds();
  ASSERT_LT(tuned_a, untuned_a);  // the tuning matters on this workload
  EXPECT_EQ(tuned_b, tuned_a);
}

}  // namespace
}  // namespace ts
