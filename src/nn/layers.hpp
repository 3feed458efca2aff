// spnn layers: Conv3d, BatchNorm, ReLU, residual blocks (paper Fig. 5).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/conv3d.hpp"
#include "nn/build_context.hpp"
#include "nn/module.hpp"

namespace ts::spnn {

/// Deterministic weight initialization (He-style fan-in scaling).
Matrix random_weight(std::size_t rows, std::size_t cols,
                     std::mt19937_64& rng, float scale);
std::vector<Matrix> make_conv_weights(int kernel_size, std::size_t c_in,
                                      std::size_t c_out,
                                      std::mt19937_64& rng);

/// Sparse 3-D convolution layer; `transposed` selects the decoder-style
/// inverse convolution that upsamples to the cached finer coordinates.
/// Cost-only forwards run on shape-only weights; the first forward that
/// computes numerics draws the real weights from the layer's seed.
class Conv3d : public Module {
 public:
  Conv3d(std::size_t c_in, std::size_t c_out, int kernel_size, int stride,
         bool transposed, BuildContext& b, int dilation = 1);

  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(this);
  }

  /// Structural ordinal within the model (construction order); keys the
  /// Alg. 5 tuned parameters and LayerRecord.
  int layer_id() const { return id_; }
  /// Whether a numeric forward has drawn the real weights yet.
  bool weights_drawn() const { return drawn_.drawn(); }

 private:
  Conv3dParams params_;  // shape-only weights: what cost-only passes read
  LazyWeights<Conv3dParams> drawn_;
  uint64_t seed_;
  int id_;
};

/// Per-channel affine normalization with fixed (inference-time) stats.
class BatchNorm : public Module {
 public:
  BatchNorm(std::size_t channels, BuildContext& b);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;

 private:
  std::vector<float> scale_;  // gamma / sqrt(var + eps)
  std::vector<float> shift_;  // beta - mean * scale
};

class ReLU : public Module {
 public:
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
};

/// Conv-BN-ReLU block (the paper's Fig. 5 SparseConvBlock).
class ConvBlock : public Module {
 public:
  ConvBlock(std::size_t c_in, std::size_t c_out, int kernel_size, int stride,
            bool transposed, BuildContext& b);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(conv_.get());
  }
  Conv3d& conv() { return *conv_; }

 private:
  std::unique_ptr<Conv3d> conv_;
  std::unique_ptr<BatchNorm> bn_;
  ReLU relu_;
};

/// MinkowskiNet residual block: (conv-bn-relu-conv-bn) + shortcut, ReLU.
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t c_in, std::size_t c_out, int kernel_size,
                BuildContext& b);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(conv1_.get());
    out.push_back(conv2_.get());
    if (shortcut_conv_) out.push_back(shortcut_conv_.get());
  }

 private:
  std::unique_ptr<Conv3d> conv1_;
  std::unique_ptr<BatchNorm> bn1_;
  std::unique_ptr<Conv3d> conv2_;
  std::unique_ptr<BatchNorm> bn2_;
  std::unique_ptr<Conv3d> shortcut_conv_;  // null for identity shortcut
  std::unique_ptr<BatchNorm> shortcut_bn_;
  ReLU relu_;
};

/// Adds the features of two tensors over identical coordinates.
SparseTensor add_features(const SparseTensor& a, const SparseTensor& b,
                          ExecContext& ctx);

/// Concatenates feature channels over identical coordinates (U-Net skip).
SparseTensor concat_features(const SparseTensor& a, const SparseTensor& b,
                             ExecContext& ctx);

}  // namespace ts::spnn
