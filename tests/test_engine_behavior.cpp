// Engine behavioral tests: fetch-on-demand switching, FP16 pipeline
// accuracy at network scale, and timeline bookkeeping invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <unordered_set>

#include "core/conv3d.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/dense2d.hpp"
#include "nn/layers.hpp"
#include "nn/minkunet.hpp"
#include "nn/pooling.hpp"
#include "nn/second.hpp"

namespace ts {
namespace {

SparseTensor random_tensor(int n, int extent, std::size_t channels,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(coords.size(), channels);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = f(rng);
  return SparseTensor(std::move(coords), std::move(feats));
}

TEST(EngineBehavior, FetchOnDemandSkipsExplicitMovement) {
  // A tiny workload under the MinkowskiEngine preset falls below the
  // fetch-on-demand threshold: the layer runs as one implicit-GEMM
  // kernel with zero gather/scatter time.
  const SparseTensor x = random_tensor(40, 12, 8, 1);
  std::mt19937_64 rng(2);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 8, rng);

  ExecContext me(rtx2080ti(), minkowski_config());
  me.compute_numerics = false;
  sparse_conv3d(x, p, me);
  EXPECT_EQ(me.timeline.data_movement_seconds(), 0.0);
  EXPECT_GT(me.timeline.stage_seconds(Stage::kMatMul), 0.0);

  ExecContext base(rtx2080ti(), baseline_config());
  base.compute_numerics = false;
  SparseTensor fresh(x.coords(), x.feats());
  sparse_conv3d(fresh, p, base);
  EXPECT_GT(base.timeline.data_movement_seconds(), 0.0);
}

TEST(EngineBehavior, FetchOnDemandNotUsedAboveThreshold) {
  const SparseTensor x = random_tensor(4000, 18, 8, 3);  // dense block
  std::mt19937_64 rng(4);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 8, rng);
  ExecContext me(rtx2080ti(), minkowski_config());
  me.compute_numerics = false;
  sparse_conv3d(x, p, me);
  // Mean map size exceeds the threshold: explicit movement happens.
  EXPECT_GT(me.timeline.data_movement_seconds(), 0.0);
}

TEST(EngineBehavior, FetchOnDemandNumericsMatchGatherScatter) {
  const SparseTensor x = random_tensor(200, 10, 8, 5);
  std::mt19937_64 rng(6);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 8, rng);

  EngineConfig gs = torchsparse_config();
  gs.precision = Precision::kFP32;
  EngineConfig fod = gs;
  fod.dataflow = Dataflow::kFetchOnDemand;

  ExecContext c1(rtx2080ti(), gs), c2(rtx2080ti(), fod);
  c1.compute_numerics = c2.compute_numerics = true;
  const SparseTensor a = sparse_conv3d(x, p, c1);
  SparseTensor fresh(x.coords(), x.feats());
  const SparseTensor b = sparse_conv3d(fresh, p, c2);
  EXPECT_LT(max_abs_diff(a.feats(), b.feats()), 1e-4f);
}

TEST(EngineBehavior, Fp16NetworkStaysCloseToFp32) {
  // Network-scale precision check: a small MinkUNet in FP16 storage must
  // track the FP32 result within accumulated-rounding bounds.
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 70;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 7);
  spnn::MinkUNet net(0.25, 4, 8, 8);

  EngineConfig fp32 = torchsparse_config();
  fp32.precision = Precision::kFP32;
  ExecContext c32(rtx2080ti(), fp32);
  c32.compute_numerics = true;
  const SparseTensor y32 = net.forward(fresh_input(x), c32);

  ExecContext c16(rtx2080ti(), torchsparse_config());
  c16.compute_numerics = true;
  const SparseTensor y16 = net.forward(fresh_input(x), c16);

  ASSERT_EQ(y32.num_points(), y16.num_points());
  // Relative tolerance against the output scale.
  float scale = 0;
  for (std::size_t i = 0; i < y32.feats().size(); ++i)
    scale = std::max(scale, std::fabs(y32.feats().data()[i]));
  EXPECT_LT(max_abs_diff(y32.feats(), y16.feats()), 0.05f * scale + 0.05f);
}

TEST(EngineBehavior, TimelineCountsKernelsAndBytes) {
  const SparseTensor x = random_tensor(500, 12, 8, 9);
  std::mt19937_64 rng(10);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 8, rng);
  ExecContext ctx(rtx3090(), torchsparse_config());
  ctx.compute_numerics = false;
  sparse_conv3d(x, p, ctx);
  EXPECT_GT(ctx.timeline.kernel_launches(), 3u);   // map, gather, mm, scatter
  EXPECT_GT(ctx.timeline.dram_bytes(), 1000.0);
  EXPECT_GT(ctx.timeline.flops(), 1000.0);
}

TEST(EngineBehavior, TunedParamsOnlyAffectAdaptiveEngines) {
  const SparseTensor x = random_tensor(2000, 16, 8, 11);
  std::mt19937_64 rng(12);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 8, rng);

  // Baseline (separate grouping) ignores tuned parameters entirely.
  EngineConfig cfg = baseline_config();
  ExecContext a(rtx2080ti(), cfg), b(rtx2080ti(), cfg);
  a.compute_numerics = b.compute_numerics = false;
  b.tuned[0] = GroupParams{1.0, 1e18};
  b.layer_id = 0;
  SparseTensor f1(x.coords(), x.feats()), f2(x.coords(), x.feats());
  sparse_conv3d(f1, p, a);
  sparse_conv3d(f2, p, b);
  EXPECT_DOUBLE_EQ(a.timeline.stage_seconds(Stage::kMatMul),
                   b.timeline.stage_seconds(Stage::kMatMul));
}

TEST(EngineBehavior, CacheSimTogglePreservesOrdering) {
  // The analytic fallback must preserve the engine ranking even if the
  // absolute numbers shift.
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 150;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 13);
  spnn::MinkUNet net(0.25, 4, 8, 14);
  auto total = [&](const EngineConfig& cfg, bool sim) {
    ExecContext ctx(rtx2080ti(), cfg);
    ctx.compute_numerics = false;
    ctx.simulate_cache = sim;
    net.forward(fresh_input(x), ctx);
    return ctx.timeline.total_seconds();
  };
  for (bool sim : {true, false}) {
    EXPECT_LT(total(torchsparse_config(), sim),
              total(baseline_config(), sim))
        << "sim=" << sim;
  }
}

// --- Cost-only passes: numerics off changes host work, never the model. --

void expect_same_timeline(const Timeline& a, const Timeline& b,
                          const std::string& what) {
  for (std::size_t s = 0; s < kNumStages; ++s)
    EXPECT_EQ(a.stage_seconds(static_cast<Stage>(s)),
              b.stage_seconds(static_cast<Stage>(s)))
        << what << " stage " << s;
  EXPECT_EQ(a.dram_bytes(), b.dram_bytes()) << what;
  EXPECT_EQ(a.kernel_launches(), b.kernel_launches()) << what;
  EXPECT_EQ(a.flops(), b.flops()) << what;
}

TEST(CostOnly, TimelinesBitEqualWithNumericsOnAndOff) {
  // A compact cube keeps the detectors' dense BEV tails small enough to
  // run with real numerics.
  const SparseTensor seg_in = random_tensor(3000, 40, 4, 31);
  const SparseTensor det_in = random_tensor(3000, 40, 5, 32);
  spnn::MinkUNet unet(0.25, 4, 8, 33);
  spnn::CenterPoint centerpoint(5, 34);
  spnn::SecondDetector second(5, 35);
  const std::vector<std::pair<std::string,
                              std::function<void(ExecContext&)>>>
      models = {
          {"MinkUNet",
           [&](ExecContext& ctx) {
             const SparseTensor y = unet.forward(fresh_input(seg_in), ctx);
             EXPECT_EQ(y.feats().has_storage(), ctx.compute_numerics);
           }},
          {"CenterPoint",
           [&](ExecContext& ctx) {
             const auto out = centerpoint.run(fresh_input(det_in), ctx);
             EXPECT_EQ(out.backbone_out.feats().has_storage(),
                       ctx.compute_numerics);
           }},
          {"SECOND",
           [&](ExecContext& ctx) {
             const auto out = second.run(fresh_input(det_in), ctx);
             EXPECT_EQ(out.middle_out.feats().has_storage(),
                       ctx.compute_numerics);
           }},
      };
  for (const EngineConfig& cfg : paper_engines()) {
    for (const auto& [name, run] : models) {
      ExecContext on(rtx3090(), cfg), off(rtx3090(), cfg);
      on.compute_numerics = true;
      off.compute_numerics = false;
      run(on);
      run(off);
      expect_same_timeline(on.timeline, off.timeline, cfg.name + " " + name);
      EXPECT_GT(off.timeline.total_seconds(), 0.0) << cfg.name << " " << name;
    }
  }
}

TEST(CostOnly, ProducersReturnStorageFreeFeatures) {
  const SparseTensor x = random_tensor(500, 12, 8, 41);
  std::mt19937_64 rng(42);
  Conv3dParams p;
  p.geom = ConvGeometry{3, 1, false};
  p.weights = spnn::make_conv_weights(3, 8, 16, rng);
  for (const bool numerics : {false, true}) {
    ExecContext ctx(rtx3090(), torchsparse_config());
    ctx.compute_numerics = numerics;
    const SparseTensor y = sparse_conv3d(fresh_input(x), p, ctx);
    EXPECT_EQ(y.feats().rows(), y.num_points());
    EXPECT_EQ(y.feats().cols(), 16u);
    EXPECT_EQ(y.feats().has_storage(), numerics);

    const SparseTensor cat = spnn::concat_features(y, y, ctx);
    EXPECT_EQ(cat.feats().rows(), y.num_points());
    EXPECT_EQ(cat.feats().cols(), 32u);
    EXPECT_EQ(cat.feats().has_storage(), numerics);

    const spnn::DenseBEV bev = spnn::sparse_to_bev(cat, ctx);
    EXPECT_EQ(bev.data.rows(), 32u);
    EXPECT_EQ(bev.data.cols(), static_cast<std::size_t>(bev.h * bev.w));
    EXPECT_EQ(bev.data.has_storage(), numerics);

    spnn::BuildContext b(43);
    const spnn::Conv2d conv2d(32, 4, b);
    const spnn::DenseBEV head = conv2d.forward(bev, ctx);
    EXPECT_EQ(head.data.rows(), 4u);
    EXPECT_EQ(head.data.cols(), bev.data.cols());
    EXPECT_EQ(head.data.has_storage(), numerics);
    // A cost-only forward never draws the layer's weights.
    EXPECT_EQ(conv2d.weights_drawn(), numerics);
  }
}

TEST(CostOnly, GlobalPoolOfStorageFreeTensorIsZero) {
  // Cost-only features once were zero-filled; pooling them must still
  // give the zeros (and the charge) it gave then.
  SparseTensor zeros = random_tensor(300, 10, 6, 51);
  std::vector<Coord> coords = zeros.coords();
  for (std::size_t i = 0; i < coords.size(); ++i)
    coords[i].b = static_cast<int32_t>(i % 3);
  zeros = SparseTensor(coords, Matrix(coords.size(), 6));
  const SparseTensor shape_only(coords, Matrix::shape_only(coords.size(), 6));
  ASSERT_FALSE(shape_only.feats().has_storage());
  for (const auto kind : {spnn::PoolKind::kAvg, spnn::PoolKind::kMax}) {
    ExecContext a(rtx3090(), torchsparse_config());
    ExecContext b(rtx3090(), torchsparse_config());
    a.compute_numerics = b.compute_numerics = false;
    const Matrix want = spnn::global_pool(zeros, kind, a);
    const Matrix got = spnn::global_pool(shape_only, kind, b);
    ASSERT_TRUE(got.has_storage());
    EXPECT_EQ(got.rows(), 3u);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got, Matrix(3, 6));
    expect_same_timeline(a.timeline, b.timeline, "global_pool");
    // The declared-count overload pads with zero rows the same way.
    EXPECT_EQ(spnn::global_pool(shape_only, kind, 5, b), Matrix(5, 6));
  }
}

}  // namespace
}  // namespace ts
