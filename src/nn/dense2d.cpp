#include "nn/dense2d.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "nn/layers.hpp"

namespace ts::spnn {

DenseBEV sparse_to_bev(const SparseTensor& x, ExecContext& ctx) {
  int max_x = 0, max_y = 0;
  for (const Coord& c : x.coords()) {
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
  }
  DenseBEV bev;
  bev.w = max_x + 1;
  bev.h = max_y + 1;
  const auto cells = static_cast<std::size_t>(bev.h * bev.w);
  bev.data = ctx.compute_numerics ? Matrix(x.channels(), cells)
                                  : Matrix::shape_only(x.channels(), cells);

  // Scatter-to-dense: one read + one accumulate write per point-channel.
  const double bytes =
      2.0 * static_cast<double>(x.num_points()) *
      static_cast<double>(x.channels()) *
      static_cast<double>(bytes_per_channel(ctx.cfg.precision));
  ctx.timeline.add(Stage::kMisc,
                   ctx.cost.launch_seconds() + ctx.cost.dram_seconds(bytes));
  ctx.timeline.add_dram_bytes(bytes);
  ctx.timeline.add_kernel_launches(1);

  if (ctx.compute_numerics) {
    for (std::size_t i = 0; i < x.num_points(); ++i) {
      const Coord& c = x.coords()[i];
      const float* row = x.feats().row(i);
      const std::size_t cell = static_cast<std::size_t>(c.y) *
                                   static_cast<std::size_t>(bev.w) +
                               static_cast<std::size_t>(c.x);
      for (std::size_t ch = 0; ch < x.channels(); ++ch)
        bev.data.at(ch, cell) += row[ch];
    }
  }
  return bev;
}

Conv2d::Conv2d(int c_in, int c_out, BuildContext& b, bool relu)
    : c_in_(c_in),
      c_out_(c_out),
      relu_(relu),
      seed_(b.next_seed()),
      weight_(std::make_unique<LazyWeights<Matrix>>()) {}

void conv3x3_numeric(const DenseBEV& x, const Matrix& weight, bool relu,
                     Matrix& out) {
  const auto h = static_cast<std::size_t>(x.h);
  const auto w = static_cast<std::size_t>(x.w);
  const std::size_t c_in = x.data.rows();
  const std::size_t c_out = weight.cols();
  if (h == 0 || w == 0) return;
  for (std::size_t co = 0; co < c_out; ++co) {
    float* out_co = out.row(co);
    std::fill(out_co, out_co + h * w, 0.0f);
    // One output row at a time, so it stays in L1 while each (tap, ci)
    // adds a contiguous, vectorizable span of an input row to it.
    for (std::size_t yy = 0; yy < h; ++yy) {
      float* acc = out_co + yy * w;
      std::size_t tap = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        const std::size_t sy = yy + static_cast<std::size_t>(dy);
        if (sy >= h) {  // also catches yy + dy == -1, which wraps
          tap += 3;
          continue;
        }
        for (int dx = -1; dx <= 1; ++dx, ++tap) {
          // Outputs [x0, x1) read input columns [x0 + dx, x1 + dx); the
          // edge column whose source falls outside is skipped.
          const std::size_t x0 = dx < 0 ? 1 : 0;
          const std::size_t x1 = dx > 0 ? w - 1 : w;
          if (x0 >= x1) continue;
          const std::size_t n = x1 - x0;
          const std::size_t src0 = sy * w + x0 + static_cast<std::size_t>(dx);
          float* dst = acc + x0;
          for (std::size_t ci = 0; ci < c_in; ++ci) {
            const float wv = weight.at(tap * c_in + ci, co);
            const float* src = x.data.row(ci) + src0;
            for (std::size_t k = 0; k < n; ++k) dst[k] += src[k] * wv;
          }
        }
      }
      if (relu)
        for (std::size_t xx = 0; xx < w; ++xx)
          acc[xx] = std::max(0.0f, acc[xx]);
    }
  }
}

DenseBEV Conv2d::forward(const DenseBEV& x, ExecContext& ctx) const {
  DenseBEV y;
  y.h = x.h;
  y.w = x.w;
  const auto c_out = static_cast<std::size_t>(c_out_);
  const auto cells = static_cast<std::size_t>(x.h * x.w);
  y.data = ctx.compute_numerics ? Matrix(c_out, cells)
                                : Matrix::shape_only(c_out, cells);

  // Cost: one implicit-GEMM kernel [h*w, 9*c_in] x [9*c_in, c_out].
  const KernelCost kc =
      ctx.cost.mm(static_cast<std::size_t>(x.h * x.w),
                  static_cast<std::size_t>(9 * c_in_),
                  static_cast<std::size_t>(c_out_), ctx.cfg.precision);
  ctx.timeline.add(Stage::kDense2D, kc.seconds);
  ctx.timeline.add_dram_bytes(kc.dram_bytes);
  ctx.timeline.add_kernel_launches(1);

  if (ctx.compute_numerics) {
    const Matrix& weight = weight_->get([this] {
      std::mt19937_64 rng(seed_);
      const float scale =
          std::sqrt(2.0f / (9.0f * static_cast<float>(c_in_)));
      return random_weight(static_cast<std::size_t>(9 * c_in_),
                           static_cast<std::size_t>(c_out_), rng, scale);
    });
    conv3x3_numeric(x, weight, relu_, y.data);
  }
  return y;
}

float bev_iou(const Detection& a, const Detection& b) {
  const float ax0 = a.x - a.half_w, ax1 = a.x + a.half_w;
  const float ay0 = a.y - a.half_l, ay1 = a.y + a.half_l;
  const float bx0 = b.x - b.half_w, bx1 = b.x + b.half_w;
  const float by0 = b.y - b.half_l, by1 = b.y + b.half_l;
  const float ix = std::max(0.0f, std::min(ax1, bx1) - std::max(ax0, bx0));
  const float iy = std::max(0.0f, std::min(ay1, by1) - std::max(ay0, by0));
  const float inter = ix * iy;
  const float uni = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) -
                    inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

std::vector<Detection> decode_and_nms(const DenseBEV& heatmap,
                                      const DenseBEV& boxes, int top_k,
                                      float score_thresh, float iou_thresh,
                                      ExecContext& ctx) {
  // Top-k peak extraction: streams the heatmap once (Stage::kMisc).
  const double scan_bytes = static_cast<double>(heatmap.h * heatmap.w) * 4.0;
  ctx.timeline.add(Stage::kMisc, ctx.cost.launch_seconds() +
                                     ctx.cost.dram_seconds(scan_bytes));
  ctx.timeline.add_kernel_launches(1);

  std::vector<Detection> cand;
  if (ctx.compute_numerics) {
    const float* hm = heatmap.data.row(0);
    for (int yy = 1; yy + 1 < heatmap.h; ++yy) {
      for (int xx = 1; xx + 1 < heatmap.w; ++xx) {
        const std::size_t cell =
            static_cast<std::size_t>(yy) *
                static_cast<std::size_t>(heatmap.w) +
            static_cast<std::size_t>(xx);
        const float v = hm[cell];
        if (v < score_thresh) continue;
        // 3x3 local maximum = peak.
        bool peak = true;
        for (int dy = -1; dy <= 1 && peak; ++dy)
          for (int dx = -1; dx <= 1; ++dx) {
            if (dy == 0 && dx == 0) continue;
            const std::size_t n =
                cell + static_cast<std::size_t>(dy * heatmap.w + dx);
            if (hm[n] > v) {
              peak = false;
              break;
            }
          }
        if (!peak) continue;
        Detection d;
        d.x = static_cast<float>(xx) + boxes.data.at(0, cell);
        d.y = static_cast<float>(yy) + boxes.data.at(1, cell);
        d.half_w = 1.0f + std::fabs(boxes.data.at(2, cell));
        d.half_l = 1.0f + std::fabs(boxes.data.at(3, cell));
        d.score = v;
        cand.push_back(d);
      }
    }
    std::sort(cand.begin(), cand.end(),
              [](const Detection& a, const Detection& b) {
                return a.score > b.score;
              });
    if (static_cast<int>(cand.size()) > top_k)
      cand.resize(static_cast<std::size_t>(top_k));
  }

  // NMS cost: O(k^2) pairwise IoUs with poor parallelism (the serial
  // suppression dependency limits it to roughly one SM's throughput).
  const double k = static_cast<double>(top_k);
  const double nms_ops = k * k * 24.0;
  const double serial_ops_per_s =
      ctx.cost.device().core_clock_ghz * 1e9 * 64.0;
  ctx.timeline.add(Stage::kNMS,
                   ctx.cost.launch_seconds() + nms_ops / serial_ops_per_s);
  ctx.timeline.add_kernel_launches(1);

  std::vector<Detection> kept;
  for (const Detection& d : cand) {
    bool suppressed = false;
    for (const Detection& kd : kept) {
      if (bev_iou(d, kd) > iou_thresh) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

}  // namespace ts::spnn
