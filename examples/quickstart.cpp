// Quickstart: define a small sparse CNN with the spnn API (paper Fig. 5),
// run it on a synthetic LiDAR scan with the TorchSparse engine, and print
// the modeled per-stage timeline.
#include <cstdio>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

using namespace ts;

int main() {
  // 1. A synthetic 64-beam LiDAR scan, voxelized at 5 cm.
  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps = 300;  // keep the quickstart snappy
  SparseTensor input = make_input(lidar, segmentation_voxels(), /*seed=*/42);
  std::printf("input: %zu voxels, %zu channels\n", input.num_points(),
              input.channels());

  // 2. A small sparse CNN, composed exactly like the paper's Fig. 5
  //    SparseConvBlock: Conv3d + BatchNorm + ReLU.
  spnn::BuildContext b(7);
  spnn::Sequential net;
  net.emplace<spnn::ConvBlock>(4, 32, 3, 1, false, b);   // submanifold
  net.emplace<spnn::ConvBlock>(32, 64, 2, 2, false, b);  // downsample x2
  net.emplace<spnn::ConvBlock>(64, 64, 3, 1, false, b);  // submanifold
  net.emplace<spnn::ConvBlock>(64, 32, 2, 2, true, b);   // upsample x2
  net.emplace<spnn::ConvBlock>(32, 16, 3, 1, false, b);

  // 3. Run with the TorchSparse engine on a modeled RTX 2080Ti,
  //    computing real numerics.
  ExecContext ctx(rtx2080ti(), torchsparse_config());
  ctx.compute_numerics = true;
  SparseTensor out = net.forward(input, ctx);

  std::printf("output: %zu voxels, %zu channels at stride %d\n",
              out.num_points(), out.channels(), out.stride());
  std::printf("\nmodeled timeline (%s, %s):\n", "RTX 2080Ti", "TorchSparse");
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const Stage st = static_cast<Stage>(s);
    const double ms = ctx.timeline.stage_seconds(st) * 1e3;
    if (ms > 0) std::printf("  %-8s %8.3f ms\n", to_string(st).c_str(), ms);
  }
  std::printf("  %-8s %8.3f ms  (%.1f FPS)\n", "total",
              ctx.timeline.total_seconds() * 1e3, ctx.timeline.fps());
  std::printf("  kernels launched: %zu,  modeled DRAM: %.1f MB\n",
              ctx.timeline.kernel_launches(),
              ctx.timeline.dram_bytes() / 1e6);
  return 0;
}
