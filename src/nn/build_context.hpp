// Model construction context and lazily drawn layer weights.
//
// A model's modeled cost depends on map sizes, channel counts and data
// movement, never on weight values, so layers draw their weights only on
// the first forward that computes numerics. A cost-only model (every
// bench and the serving stack) therefore allocates no weights at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>

namespace ts::spnn {

/// Threaded through a model's constructor to every layer it builds. Each
/// conv layer takes one weight seed from `rng` (BatchNorm draws its fixed
/// statistics from it directly), and each Conv3d takes the next
/// structural ordinal. Two models built the same way therefore number
/// their convs identically, which is what ExecContext::tuned and
/// LayerRecord::layer_id are keyed by.
class BuildContext {
 public:
  explicit BuildContext(uint64_t seed) : rng_(seed) {}

  std::mt19937_64& rng() { return rng_; }
  /// One 64-bit seed for a layer's lazily drawn weights.
  uint64_t next_seed() { return rng_(); }
  /// The next Conv3d ordinal, in construction order from 0.
  int next_ordinal() { return next_ordinal_++; }

 private:
  std::mt19937_64 rng_;
  int next_ordinal_ = 0;
};

/// A layer's weights, drawn on first use. Thread-safe: serving workers
/// share one model, so concurrent first uses draw exactly once and every
/// caller sees the same drawn value.
template <typename W>
class LazyWeights {
 public:
  template <typename Draw>
  const W& get(Draw&& draw) {
    std::call_once(once_, [&] {
      value_ = draw();
      drawn_.store(true, std::memory_order_release);
    });
    return value_;
  }
  bool drawn() const { return drawn_.load(std::memory_order_acquire); }

 private:
  std::once_flag once_;
  std::atomic<bool> drawn_{false};
  W value_;
};

}  // namespace ts::spnn
