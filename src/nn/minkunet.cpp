#include "nn/minkunet.hpp"

#include <algorithm>
#include <cmath>

namespace ts::spnn {

namespace {
std::size_t scaled(double width, int base) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(width * static_cast<double>(base))));
}
}  // namespace

MinkUNet::MinkUNet(double width, std::size_t in_channels,
                   std::size_t num_classes, uint64_t seed) {
  BuildContext b(seed);
  const int base[9] = {32, 32, 64, 128, 256, 256, 128, 96, 96};
  std::size_t cs[9];
  for (int i = 0; i < 9; ++i) cs[i] = scaled(width, base[i]);

  stem1_ = std::make_unique<ConvBlock>(in_channels, cs[0], 3, 1, false, b);
  stem2_ = std::make_unique<ConvBlock>(cs[0], cs[0], 3, 1, false, b);

  // Encoder: channels cs[0] -> cs[1..4], tensor strides 2/4/8/16.
  std::size_t ch = cs[0];
  for (int s = 0; s < 4; ++s) {
    Down d;
    d.down = std::make_unique<ConvBlock>(ch, ch, 2, 2, false, b);
    d.res1 = std::make_unique<ResidualBlock>(ch, cs[s + 1], 3, b);
    d.res2 = std::make_unique<ResidualBlock>(cs[s + 1], cs[s + 1], 3, b);
    ch = cs[s + 1];
    encoder_.push_back(std::move(d));
  }

  // Decoder: transposed conv to cs[5..8], concat skip, 2 residual blocks.
  // Skip channels by level (deepest first): cs[3], cs[2], cs[1], cs[0].
  const std::size_t skip_ch[4] = {cs[3], cs[2], cs[1], cs[0]};
  for (int s = 0; s < 4; ++s) {
    Up u;
    u.up = std::make_unique<ConvBlock>(ch, cs[5 + s], 2, 2, true, b);
    u.res1 = std::make_unique<ResidualBlock>(cs[5 + s] + skip_ch[s],
                                             cs[5 + s], 3, b);
    u.res2 = std::make_unique<ResidualBlock>(cs[5 + s], cs[5 + s], 3, b);
    ch = cs[5 + s];
    decoder_.push_back(std::move(u));
  }

  classifier_ = std::make_unique<Conv3d>(ch, num_classes, 1, 1, false, b);
}

void MinkUNet::collect_convs(std::vector<Conv3d*>& out) {
  stem1_->collect_convs(out);
  stem2_->collect_convs(out);
  for (auto& d : encoder_) {
    d.down->collect_convs(out);
    d.res1->collect_convs(out);
    d.res2->collect_convs(out);
  }
  for (auto& u : decoder_) {
    u.up->collect_convs(out);
    u.res1->collect_convs(out);
    u.res2->collect_convs(out);
  }
  out.push_back(classifier_.get());
}

SparseTensor MinkUNet::forward(const SparseTensor& x, ExecContext& ctx) {
  SparseTensor s0 = stem2_->forward(stem1_->forward(x, ctx), ctx);

  std::vector<SparseTensor> skips;  // stride 1, 2, 4, 8 feature maps
  skips.push_back(s0);
  SparseTensor y = s0;
  for (std::size_t i = 0; i < encoder_.size(); ++i) {
    y = encoder_[i].down->forward(y, ctx);
    y = encoder_[i].res1->forward(y, ctx);
    y = encoder_[i].res2->forward(y, ctx);
    if (i + 1 < encoder_.size()) skips.push_back(y);
  }

  for (std::size_t i = 0; i < decoder_.size(); ++i) {
    y = decoder_[i].up->forward(y, ctx);
    const SparseTensor& skip = skips[skips.size() - 1 - i];
    y = concat_features(y, skip, ctx);
    y = decoder_[i].res1->forward(y, ctx);
    y = decoder_[i].res2->forward(y, ctx);
  }
  return classifier_->forward(y, ctx);
}

}  // namespace ts::spnn
