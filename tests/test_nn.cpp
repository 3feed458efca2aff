// spnn layer and model tests: BatchNorm/ReLU numerics, residual blocks,
// U-Net wiring, CenterPoint pipeline, dense 2-D substrate.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <unordered_set>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/dense2d.hpp"
#include "nn/minkunet.hpp"

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

ExecContext fp32_ctx() {
  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kFP32;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = true;
  return ctx;
}

TEST(Layers, ReluClampsNegatives) {
  SparseTensor x = random_tensor(50, 8, 4, 1);
  ExecContext ctx = fp32_ctx();
  spnn::ReLU relu;
  const SparseTensor y = relu.forward(x, ctx);
  for (std::size_t i = 0; i < y.feats().size(); ++i) {
    EXPECT_GE(y.feats().data()[i], 0.0f);
    EXPECT_EQ(y.feats().data()[i], std::max(0.0f, x.feats().data()[i]));
  }
}

TEST(Layers, BatchNormAffine) {
  SparseTensor x = random_tensor(40, 8, 6, 2);
  spnn::BuildContext b(3);
  spnn::BatchNorm bn(6, b);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = bn.forward(x, ctx);
  // Affine per channel: equal inputs map to equal outputs; order-preserving
  // per channel (positive scale).
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t r = 1; r < x.num_points(); ++r) {
      const bool lt_in = x.feats().at(r - 1, c) < x.feats().at(r, c);
      const bool lt_out = y.feats().at(r - 1, c) < y.feats().at(r, c);
      if (x.feats().at(r - 1, c) != x.feats().at(r, c)) {
        EXPECT_EQ(lt_in, lt_out);
      }
    }
  }
}

TEST(Layers, AddAndConcatFeatures) {
  SparseTensor a = random_tensor(30, 6, 4, 4);
  SparseTensor b(a.coords_ptr(), a.feats(), a.stride(), a.cache());
  ExecContext ctx = fp32_ctx();
  const SparseTensor sum = spnn::add_features(a, b, ctx);
  for (std::size_t i = 0; i < sum.feats().size(); ++i)
    EXPECT_FLOAT_EQ(sum.feats().data()[i], 2.0f * a.feats().data()[i]);

  const SparseTensor cat = spnn::concat_features(a, b, ctx);
  EXPECT_EQ(cat.channels(), 8u);
  EXPECT_EQ(cat.feats().at(5, 2), a.feats().at(5, 2));
  EXPECT_EQ(cat.feats().at(5, 6), a.feats().at(5, 2));
}

TEST(Layers, ResidualBlockPreservesCoordsAndChannels) {
  SparseTensor x = random_tensor(80, 8, 8, 5);
  spnn::BuildContext b(6);
  spnn::ResidualBlock block(8, 16, 3, b);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = block.forward(x, ctx);
  EXPECT_EQ(y.coords(), x.coords());
  EXPECT_EQ(y.channels(), 16u);
  // ReLU at the end: nonnegative.
  for (std::size_t i = 0; i < y.feats().size(); ++i)
    EXPECT_GE(y.feats().data()[i], 0.0f);
}

TEST(Layers, ConvCollectionFindsAllConvs) {
  spnn::BuildContext b(7);
  spnn::ResidualBlock with_shortcut(8, 16, 3, b);
  spnn::ResidualBlock identity(16, 16, 3, b);
  std::vector<spnn::Conv3d*> convs;
  with_shortcut.collect_convs(convs);
  EXPECT_EQ(convs.size(), 3u);  // conv1, conv2, 1x1 shortcut
  convs.clear();
  identity.collect_convs(convs);
  EXPECT_EQ(convs.size(), 2u);  // identity shortcut has no conv
}

TEST(Layers, LayerIdsAreConstructionOrdinals) {
  // Ids are structural: numbered per model in construction order, so a
  // second model built the same way numbers its convs identically.
  spnn::BuildContext first(8);
  spnn::Conv3d a(4, 4, 3, 1, false, first), b(4, 4, 3, 1, false, first);
  EXPECT_EQ(a.layer_id(), 0);
  EXPECT_EQ(b.layer_id(), 1);
  spnn::BuildContext second(8);
  spnn::Conv3d c(4, 4, 3, 1, false, second);
  EXPECT_EQ(c.layer_id(), 0);
}

TEST(MinkUNet, ForwardPreservesInputCoordinates) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 80;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 9);
  spnn::MinkUNet net(0.25, 4, 19, 10);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = net.forward(x, ctx);
  EXPECT_EQ(y.coords(), x.coords());  // U-Net returns to stride 1
  EXPECT_EQ(y.channels(), 19u);
  EXPECT_EQ(y.stride(), 1);
  // 4 encoder levels built coordinate sets for strides 2..16.
  for (int s : {1, 2, 4, 8, 16})
    EXPECT_TRUE(x.cache()->coords_at_stride.count(s)) << s;
}

TEST(MinkUNet, ConvOrdinalsFollowConstructionOrder) {
  spnn::MinkUNet net(0.25, 4, 19, 11);
  const std::vector<spnn::Conv3d*> convs = net.convs();
  for (std::size_t i = 0; i < convs.size(); ++i)
    EXPECT_EQ(convs[i]->layer_id(), static_cast<int>(i));
}

TEST(MinkUNet, WidthScalesConvCount) {
  spnn::MinkUNet half(0.5, 4, 19, 11);
  spnn::MinkUNet full(1.0, 4, 19, 12);
  EXPECT_EQ(half.convs().size(), full.convs().size());
  EXPECT_GT(full.convs().size(), 30u);  // stem + 4 down + 4 up + head
}

TEST(MinkUNet, TimelineCoversAllSparseStages) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 80;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 13);
  spnn::MinkUNet net(0.25, 4, 16, 14);
  ExecContext ctx(rtx3090(), torchsparse_config());
  ctx.compute_numerics = false;
  net.forward(x, ctx);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMapping), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kGather), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kScatter), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMatMul), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMisc), 0.0);
  EXPECT_EQ(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
  EXPECT_EQ(ctx.timeline.stage_seconds(Stage::kNMS), 0.0);
}

TEST(Dense2d, SparseToBevSumsOverZ) {
  std::vector<Coord> coords = {{0, 1, 2, 0}, {0, 1, 2, 5}, {0, 3, 0, 1}};
  Matrix feats(3, 2);
  feats.at(0, 0) = 1.0f;
  feats.at(1, 0) = 2.0f;
  feats.at(2, 1) = 7.0f;
  SparseTensor x(coords, feats);
  ExecContext ctx = fp32_ctx();
  const spnn::DenseBEV bev = spnn::sparse_to_bev(x, ctx);
  EXPECT_EQ(bev.w, 4);
  EXPECT_EQ(bev.h, 3);
  EXPECT_EQ(bev.data.at(0, 2 * 4 + 1), 3.0f);  // z-collapsed sum
  EXPECT_EQ(bev.data.at(1, 0 * 4 + 3), 7.0f);
}

TEST(Dense2d, Conv2dChargesDense2DStage) {
  spnn::BuildContext b(15);
  spnn::Conv2d conv(4, 8, b);
  spnn::DenseBEV bev;
  bev.h = bev.w = 16;
  bev.data.resize(4, 256);
  for (std::size_t i = 0; i < bev.data.size(); ++i)
    bev.data.data()[i] = 0.1f * static_cast<float>(i % 7);
  ExecContext ctx = fp32_ctx();
  const spnn::DenseBEV out = conv.forward(bev, ctx);
  EXPECT_EQ(out.channels(), 8);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
}

/// The direct per-output 3x3 loop Conv2d used to run: for each output,
/// taps in (dy, dx) order, then input channels ascending. Kept as the
/// reference conv3x3_numeric must match bit for bit.
Matrix direct_conv3x3(const spnn::DenseBEV& x, const Matrix& weight,
                      bool relu) {
  const int c_in = x.channels();
  const int c_out = static_cast<int>(weight.cols());
  Matrix out(static_cast<std::size_t>(c_out),
             static_cast<std::size_t>(x.h * x.w));
  for (int co = 0; co < c_out; ++co) {
    for (int yy = 0; yy < x.h; ++yy) {
      for (int xx = 0; xx < x.w; ++xx) {
        float acc = 0.0f;
        int tap = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx, ++tap) {
            const int sy = yy + dy, sx = xx + dx;
            if (sy < 0 || sy >= x.h || sx < 0 || sx >= x.w) continue;
            const auto cell = static_cast<std::size_t>(sy * x.w + sx);
            for (int ci = 0; ci < c_in; ++ci)
              acc += x.data.at(static_cast<std::size_t>(ci), cell) *
                     weight.at(static_cast<std::size_t>(tap * c_in + ci),
                               static_cast<std::size_t>(co));
          }
        }
        out.at(static_cast<std::size_t>(co),
               static_cast<std::size_t>(yy * x.w + xx)) =
            relu ? std::max(0.0f, acc) : acc;
      }
    }
  }
  return out;
}

TEST(Dense2d, Conv3x3MatchesDirectLoopBitForBit) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<float> val(-1.0f, 1.0f);
  const int shapes[][2] = {{1, 1}, {1, 7}, {7, 1}, {5, 9}, {9, 5}, {13, 11}};
  for (const auto& hw : shapes) {
    for (const int c_in : {1, 5}) {
      for (const bool relu : {false, true}) {
        SCOPED_TRACE(std::to_string(hw[0]) + "x" + std::to_string(hw[1]) +
                     " c_in " + std::to_string(c_in) +
                     (relu ? " relu" : ""));
        spnn::DenseBEV x;
        x.h = hw[0];
        x.w = hw[1];
        x.data.resize(static_cast<std::size_t>(c_in),
                      static_cast<std::size_t>(x.h * x.w));
        for (std::size_t i = 0; i < x.data.size(); ++i)
          x.data.data()[i] = val(rng);
        const std::size_t c_out = 3;
        Matrix weight(9 * static_cast<std::size_t>(c_in), c_out);
        for (std::size_t i = 0; i < weight.size(); ++i)
          weight.data()[i] = val(rng);
        Matrix got(c_out, x.data.cols(), 7.0f);  // overwritten, not summed
        spnn::conv3x3_numeric(x, weight, relu, got);
        const Matrix want = direct_conv3x3(x, weight, relu);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(Dense2d, IoUProperties) {
  spnn::Detection a{10, 10, 2, 2, 1.0f};
  EXPECT_FLOAT_EQ(spnn::bev_iou(a, a), 1.0f);
  spnn::Detection far{100, 100, 2, 2, 1.0f};
  EXPECT_FLOAT_EQ(spnn::bev_iou(a, far), 0.0f);
  spnn::Detection half{12, 10, 2, 2, 1.0f};  // 50% x-overlap
  EXPECT_NEAR(spnn::bev_iou(a, half), 1.0f / 3.0f, 1e-5f);
}

TEST(CenterPoint, RunsEndToEndAndDetects) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 120;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor x = make_input(spec, vox, 16);
  spnn::CenterPoint net(5, 17);
  ExecContext ctx = fp32_ctx();
  const spnn::CenterPointOutput out = net.run(x, ctx);
  EXPECT_EQ(out.backbone_out.stride(), 8);
  EXPECT_GT(out.backbone_out.num_points(), 0u);
  // Detection stages charged.
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kNMS), 0.0);
  // NMS postcondition: no two kept boxes overlap above threshold.
  for (std::size_t i = 0; i < out.detections.size(); ++i)
    for (std::size_t j = i + 1; j < out.detections.size(); ++j)
      EXPECT_LE(spnn::bev_iou(out.detections[i], out.detections[j]), 0.5f);
}

TEST(CenterPoint, DetectionsSortedByScore) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 100;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor x = make_input(spec, vox, 18);
  spnn::CenterPoint net(5, 19);
  ExecContext ctx = fp32_ctx();
  const auto out = net.run(x, ctx);
  for (std::size_t i = 1; i < out.detections.size(); ++i)
    EXPECT_GE(out.detections[i - 1].score, out.detections[i].score);
}

SparseTensor small_scan(uint64_t seed) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 80;
  return make_input(spec, segmentation_voxels(), seed);
}

std::size_t count_drawn(const std::vector<spnn::Conv3d*>& convs) {
  std::size_t n = 0;
  for (const spnn::Conv3d* c : convs) n += c->weights_drawn() ? 1 : 0;
  return n;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(LazyWeights, CostOnlyRunLeavesEveryConvUndrawn) {
  auto net = std::make_shared<spnn::MinkUNet>(0.25, 4, 19, 20);
  const ModelFn model = [net](const SparseTensor& x, ExecContext& ctx) {
    net->forward(x, ctx);
  };
  const SparseTensor x = small_scan(21);
  RunOptions cost_only;  // numerics off, as every bench runs
  run_model(model, x, rtx2080ti(), torchsparse_config(), cost_only);
  EXPECT_EQ(count_drawn(net->convs()), 0u);

  RunOptions numeric;
  numeric.numerics = true;
  run_model(model, x, rtx2080ti(), torchsparse_config(), numeric);
  EXPECT_EQ(count_drawn(net->convs()), net->convs().size());
}

TEST(LazyWeights, CostOnlyDetectorRunLeavesEveryConvUndrawn) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 100;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor x = make_input(spec, vox, 22);
  spnn::CenterPoint net(5, 23);
  ExecContext ctx(rtx2080ti(), torchsparse_config());
  ctx.compute_numerics = false;
  net.run(x, ctx);
  EXPECT_EQ(count_drawn(net.convs()), 0u);
}

TEST(LazyWeights, SameSeedIsBitIdenticalAndSeedsDiffer) {
  const SparseTensor x = small_scan(24);
  auto numeric_out = [&](uint64_t seed) {
    spnn::MinkUNet net(0.25, 4, 19, seed);
    ExecContext ctx = fp32_ctx();
    return net.forward(fresh_input(x), ctx).feats();
  };
  const Matrix a = numeric_out(25);
  const Matrix b = numeric_out(25);
  const Matrix c = numeric_out(26);
  EXPECT_TRUE(bit_equal(a, b));
  EXPECT_FALSE(bit_equal(a, c));

  // A cost-only forward first does not perturb what is drawn later.
  spnn::MinkUNet net(0.25, 4, 19, 25);
  ExecContext cost = fp32_ctx();
  cost.compute_numerics = false;
  net.forward(fresh_input(x), cost);
  ExecContext ctx = fp32_ctx();
  EXPECT_TRUE(bit_equal(net.forward(fresh_input(x), ctx).feats(), a));
}

}  // namespace
}  // namespace ts
