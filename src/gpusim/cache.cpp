#include "gpusim/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ts {

namespace {

/// Largest power of two <= v (v >= 1).
std::size_t floor_pow2(std::size_t v) {
  std::size_t s = 1;
  while (s * 2 <= v) s *= 2;
  return s;
}

unsigned log2_exact(std::size_t v) {
  unsigned n = 0;
  while ((std::size_t(1) << n) < v) ++n;
  return n;
}

}  // namespace

CacheSim::CacheSim(std::size_t capacity_bytes, int ways,
                   std::size_t line_bytes)
    : line_bytes_(floor_pow2(std::max<std::size_t>(line_bytes, 1))),
      ways_(static_cast<std::size_t>(std::clamp(ways, 1, 64))),
      blocks_((ways_ + kLanes - 1) / kLanes),
      oldest_age_(static_cast<uint8_t>(ways_ - 1)) {
  line_shift_ = log2_exact(line_bytes_);
  num_sets_ = std::max<std::size_t>(1, capacity_bytes / (line_bytes_ * ways_));
  // Power-of-two sets for cheap indexing.
  num_sets_ = floor_pow2(num_sets_);
  set_shift_ = log2_exact(num_sets_);
  tags_.resize(num_sets_ * blocks_);
  lanes_.resize(num_sets_ * blocks_);
  reset();
}

void CacheSim::reset() {
  TagLanes no_tags{};
  std::fill(std::begin(no_tags.tag), std::end(no_tags.tag), kInvalidTag);
  std::fill(tags_.begin(), tags_.end(), no_tags);
  // Every way starts invalid and clean. Way w gets age ways-1-w, so ways
  // fill from way 0; padding lanes get kPadAge.
  std::vector<WayLanes> fresh(blocks_);
  for (std::size_t i = 0; i < blocks_ * kLanes; ++i)
    fresh[i / kLanes].age[i % kLanes] =
        i < ways_ ? static_cast<uint8_t>(ways_ - 1 - i) : kPadAge;
  for (std::size_t s = 0; s < num_sets_; ++s)
    std::copy(fresh.begin(), fresh.end(), lanes_.begin() + s * blocks_);
  hits_ = read_misses_ = write_misses_ = writebacks_ = 0;
}

void CacheSim::throw_tag_overflow(uint64_t line_addr) const {
  throw std::runtime_error(
      "CacheSim: line address " + std::to_string(line_addr) +
      " exceeds the 32-bit tag range for a " +
      std::to_string(num_sets_) + "-set cache (address/capacity "
      "combination outside the simulated slab layout)");
}

}  // namespace ts
