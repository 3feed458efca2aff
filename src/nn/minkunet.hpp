// MinkUNet (Choy et al. 2019) — the paper's segmentation workload,
// evaluated at 1.0x/0.5x width on SemanticKITTI and 1/3-frame on
// nuScenes-LiDARSeg. Standard U-Net over sparse tensors: a 2-conv stem,
// four downsample stages (stride-2 K=2 conv + two residual blocks), four
// transposed-conv upsample stages with skip concatenation, and a 1x1x1
// classifier head.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace ts::spnn {

class MinkUNet : public Module {
 public:
  /// `width` scales all hidden channel counts (1.0 or 0.5 in the paper).
  MinkUNet(double width, std::size_t in_channels, std::size_t num_classes,
           uint64_t seed);

  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override;

  /// All conv layers, in construction (ordinal) order.
  std::vector<Conv3d*> convs() {
    std::vector<Conv3d*> out;
    collect_convs(out);
    return out;
  }

 private:
  // Channel plan cs[0..8] as in the reference implementation:
  // {32, 32, 64, 128, 256, 256, 128, 96, 96} * width.
  std::unique_ptr<ConvBlock> stem1_, stem2_;
  struct Down {
    std::unique_ptr<ConvBlock> down;  // K=2, s=2
    std::unique_ptr<ResidualBlock> res1, res2;
  };
  struct Up {
    std::unique_ptr<ConvBlock> up;  // transposed K=2, s=2
    std::unique_ptr<ResidualBlock> res1, res2;
  };
  std::vector<Down> encoder_;
  std::vector<Up> decoder_;
  std::unique_ptr<Conv3d> classifier_;
};

}  // namespace ts::spnn
