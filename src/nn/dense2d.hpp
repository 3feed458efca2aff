// Dense BEV (bird's-eye-view) 2-D substrate for detection heads.
//
// CenterPoint's pipeline ends with dense 2-D convolutions and
// non-maximum suppression over the flattened BEV map; the paper's Fig. 4b
// shows this "Conv2D/NMS" tail is ~10-12% of detector runtime and is the
// part TorchSparse does NOT accelerate (§5.2). We implement it so the
// detection benchmarks carry the same unaccelerated tail.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"
#include "nn/build_context.hpp"
#include "tensor/matrix.hpp"

namespace ts::spnn {

/// Dense channel-major BEV feature map: data[c][y*w + x].
struct DenseBEV {
  int h = 0, w = 0;
  Matrix data;  // rows = channels, cols = h*w
  int channels() const { return static_cast<int>(data.rows()); }
};

/// Flattens a sparse tensor to BEV by summing features over z per (x, y)
/// cell (SECOND-style "to dense + reshape"). Charged to Stage::kMisc.
DenseBEV sparse_to_bev(const SparseTensor& x, ExecContext& ctx);

/// Dense 3x3 conv + ReLU over a BEV map (im2col + GEMM numerics; cost is
/// one GEMM of [h*w, 9*c_in, c_out] charged to Stage::kDense2D). The
/// weights are drawn from the layer's seed on the first numeric forward.
class Conv2d {
 public:
  Conv2d(int c_in, int c_out, BuildContext& b, bool relu = true);
  DenseBEV forward(const DenseBEV& x, ExecContext& ctx) const;
  /// Whether a numeric forward has drawn the real weights yet.
  bool weights_drawn() const { return weight_->drawn(); }

 private:
  int c_in_, c_out_;
  bool relu_;
  uint64_t seed_;
  // Behind a pointer so Conv2d stays movable (models hold it by value in
  // a vector) while its once-state does not move.
  std::unique_ptr<LazyWeights<Matrix>> weight_;  // [9*c_in, c_out]
};

/// The numerics of Conv2d: a zero-padded 3x3 convolution of `x` with
/// `weight` ([9*c_in, c_out], row tap*c_in + ci, taps in (dy, dx)
/// row-major order), then an optional ReLU, written to `out` (c_out rows
/// of x.h*x.w cells). Every output sums its in-bounds taps in (dy, dx)
/// order and, within a tap, input channels in ascending order, as the
/// direct per-output loop does, so the floats are identical to it.
void conv3x3_numeric(const DenseBEV& x, const Matrix& weight, bool relu,
                     Matrix& out);

/// An axis-aligned BEV detection box.
struct Detection {
  float x = 0, y = 0;      // center, in BEV cells
  float half_w = 0, half_l = 0;
  float score = 0;
};

/// Decodes peaks of a 1-channel heatmap + 4-channel box regression into
/// detections and applies IoU-threshold NMS. Top-k selection is charged
/// to Stage::kMisc; the O(k^2) suppression to Stage::kNMS (NMS is the
/// classic serial bottleneck on GPUs).
std::vector<Detection> decode_and_nms(const DenseBEV& heatmap,
                                      const DenseBEV& boxes, int top_k,
                                      float score_thresh, float iou_thresh,
                                      ExecContext& ctx);

/// BEV IoU of two axis-aligned boxes.
float bev_iou(const Detection& a, const Detection& b);

}  // namespace ts::spnn
