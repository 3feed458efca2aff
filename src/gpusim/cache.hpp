// Set-associative LRU cache simulator (models the GPU L2).
//
// Paper §4.3.2 argues that the weight-stationary gather/scatter order
// cannot reuse cached features (the working set N1 > 40MB vastly exceeds
// the 5.5MB L2 of an RTX 2080Ti, and indices per weight are unique), while
// the fused locality-aware order achieves near-perfect reuse. We replay
// the engines' actual feature-row access streams through this simulator to
// *measure* those hit rates instead of assuming them.
//
// Write handling matches GPU L2 semantics: a write miss allocates the line
// and marks it dirty without fetching from DRAM (streaming stores don't
// read-modify-write whole lines); DRAM write traffic is counted at
// eviction time as write-backs.
//
// This replay is the profiled hot path of every simulate_cache run (tens
// of millions of line touches per forward pass), so each set is laid out
// for 16-lane vector work (age-rank LRU):
//
//  - Tags stay in fixed way slots. A hit test is one 16-lane compare of
//    the line's tag against a block of the set's tags.
//  - Each way has an age byte, its rank in recency order: 0 is the most
//    recently used way, ways-1 the least. Touching a way of age `a` adds
//    1 to every age below `a` (one compare + subtract per 16 lanes) and
//    sets the way's age to 0.
//  - The miss victim is the way whose age is ways-1. Invalid ways start
//    at the oldest ages and a hit only reorders ages below its own, so
//    every invalid way is filled before any valid line is evicted
//    (invalid-way-first victim choice).
//  - Dirty flags are one byte per way, indexed by way like the ages.
//  - The per-set stride is rounded up to a multiple of 16 lanes. Padding
//    lanes hold the invalid tag, which no lookup matches, and age 127,
//    which is never below a touched way's age and never equals ways-1,
//    so one code path serves every `ways` in [1, 64].
//  - Hits and misses run the same branch-free steps: the age to touch
//    (the hit way's, else ways-1) is found with lane-wise minima, and
//    exactly one way holds it. Replay streams mix hits and misses with
//    no pattern, so a hit/miss branch would mispredict constantly.
//
// An age is exactly a way's position in a most-recently-used-first list,
// so hits, misses, write-backs and DRAM bytes are those of a tick-counter
// LRU; only the host cost of computing them differs. Line/set arithmetic
// is shift/mask (line size and set count are powers of two), and the
// per-line step is header-inline so replay loops pay no call overhead.
// The lanes use SSE2, which every x86-64 compiler enables by default.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#if !defined(__SSE2__)
#error "CacheSim's 16-lane steps need SSE2 (baseline on every x86-64 target)"
#endif
#include <emmintrin.h>

namespace ts {

class CacheSim {
 public:
  /// `capacity_bytes` is rounded down to a power-of-two number of sets.
  /// 128-byte lines match the GPU memory transaction size (`line_bytes`
  /// is rounded down to a power of two for shift addressing; `ways` is
  /// clamped to [1, 64] so a set's lane masks fit 64 bits).
  CacheSim(std::size_t capacity_bytes, int ways = 16,
           std::size_t line_bytes = 128);

  /// Touches [addr, addr+bytes). Returns the number of line misses (of
  /// either kind). Throws std::runtime_error, before any state changes,
  /// if a line's tag does not fit the 32-bit tag store.
  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    // Always-on guard (a never-taken, perfectly predicted branch): a
    // truncated tag would silently alias distinct lines and corrupt the
    // modeled hit/miss counts, so overflow must be loud in Release too.
    // Tags grow with the line address, so checking the last line covers
    // the whole range.
    if ((last >> set_shift_) >= kTagLimit) throw_tag_overflow(last);
    std::size_t line_misses = 0;
    switch (blocks_) {
      case 1: line_misses = access_lines<1>(first, last, is_write); break;
      case 2: line_misses = access_lines<2>(first, last, is_write); break;
      case 3: line_misses = access_lines<3>(first, last, is_write); break;
      default: line_misses = access_lines<4>(first, last, is_write); break;
    }
    // A write miss allocates without a fill (streaming store).
    (is_write ? write_misses_ : read_misses_) += line_misses;
    hits_ += static_cast<std::size_t>(last - first + 1) - line_misses;
    return line_misses;
  }

  void reset();

  std::size_t hits() const { return hits_; }
  std::size_t read_misses() const { return read_misses_; }
  std::size_t write_misses() const { return write_misses_; }
  std::size_t writebacks() const { return writebacks_; }
  /// DRAM bytes moved: read-miss line fills plus dirty write-backs.
  double dram_bytes() const {
    return static_cast<double>((read_misses_ + writebacks_) * line_bytes_);
  }
  std::size_t line_bytes() const { return line_bytes_; }
  double hit_rate() const {
    const std::size_t total = hits_ + read_misses_ + write_misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }

 private:
  static constexpr std::size_t kLanes = 16;
  /// Stored tags are (line_addr >> set_shift_) + 1, so 0 can mean
  /// "invalid way". Tags are kept in 32 bits so a 16-way set's tags fill
  /// one 64-byte block: the simulated slabs live below 2^42, so real tags
  /// stay far below 2^32 (an overflowing tag throws — see access).
  static constexpr uint32_t kInvalidTag = 0;
  static constexpr uint64_t kTagLimit = 0xffffffffull;
  static constexpr uint8_t kPadAge = 127;
  static constexpr uint64_t kTopBit = uint64_t{1} << 63;

  /// One 16-lane block of a set: the ways' tags, and their ages (0-127)
  /// and dirty flags (0xff = dirty).
  struct alignas(64) TagLanes {
    uint32_t tag[kLanes];
  };
  struct alignas(32) WayLanes {
    uint8_t age[kLanes];
    uint8_t dirty[kLanes];
  };

  // Lane primitives. A LaneMask holds 0xff in selected lanes, 0 elsewhere.
  using LaneMask = __m128i;

  /// Every lane selected (each byte 0xff).
  static LaneMask all_lanes() { return _mm_set1_epi8(-1); }

  /// Lanes of `t` holding `tag`.
  static LaneMask match_tags(const TagLanes& t, uint32_t tag) {
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    const auto* p = reinterpret_cast<const __m128i*>(t.tag);
    const __m128i e0 = _mm_cmpeq_epi32(_mm_load_si128(p), key);
    const __m128i e1 = _mm_cmpeq_epi32(_mm_load_si128(p + 1), key);
    const __m128i e2 = _mm_cmpeq_epi32(_mm_load_si128(p + 2), key);
    const __m128i e3 = _mm_cmpeq_epi32(_mm_load_si128(p + 3), key);
    // Saturating packs keep each all-ones/zero lane mask as one byte.
    return _mm_packs_epi16(_mm_packs_epi32(e0, e1), _mm_packs_epi32(e2, e3));
  }

  /// Bit i set iff lane i is selected.
  static unsigned lane_bits(LaneMask m) {
    return static_cast<unsigned>(_mm_movemask_epi8(m));
  }

  /// Lane-wise min of `acc` and the ages of `w`, where lanes not in `hit`
  /// read 255.
  static LaneMask min_hit_age(LaneMask acc, const WayLanes& w,
                              LaneMask hit) {
    const __m128i age =
        _mm_load_si128(reinterpret_cast<const __m128i*>(w.age));
    const __m128i missed = _mm_xor_si128(hit, all_lanes());
    return _mm_min_epu8(acc, _mm_or_si128(age, missed));
  }

  /// min(every lane of `acc`, `oldest`), broadcast to all lanes.
  static LaneMask pivot_of(LaneMask acc, uint8_t oldest) {
    acc = _mm_min_epu8(acc, _mm_shuffle_epi32(acc, 0x4E));
    acc = _mm_min_epu8(acc, _mm_shuffle_epi32(acc, 0xB1));
    acc = _mm_min_epu8(
        acc, _mm_shufflehi_epi16(_mm_shufflelo_epi16(acc, 0xB1), 0xB1));
    acc = _mm_min_epu8(
        acc, _mm_or_si128(_mm_slli_epi16(acc, 8), _mm_srli_epi16(acc, 8)));
    return _mm_min_epu8(acc, _mm_set1_epi8(static_cast<char>(oldest)));
  }

  /// Touches the way of `w` whose age equals `pivot` (if it is in this
  /// block): ages every younger way, zeroes its age, and on a miss (the
  /// way is not in `hit`) evicts it, adding its dirty bit to
  /// `writeback`. Its dirty flag then gains `is_write`. Returns the
  /// touched way's bit. Ages never exceed 127, so the signed byte compare
  /// is exact.
  static unsigned touch_lanes(WayLanes& w, LaneMask hit, LaneMask pivot,
                              bool is_write, unsigned& writeback) {
    auto* ages = reinterpret_cast<__m128i*>(w.age);
    auto* dirty = reinterpret_cast<__m128i*>(w.dirty);
    const __m128i age = _mm_load_si128(ages);
    const __m128i d = _mm_load_si128(dirty);
    const __m128i at = _mm_cmpeq_epi8(age, pivot);
    const __m128i evict = _mm_andnot_si128(hit, at);
    writeback |= lane_bits(_mm_and_si128(evict, d));
    const __m128i write = _mm_set1_epi8(is_write ? -1 : 0);
    _mm_store_si128(dirty, _mm_or_si128(_mm_andnot_si128(evict, d),
                                        _mm_and_si128(at, write)));
    // cmplt yields -1 in the lanes to age; subtracting it adds 1.
    const __m128i aged = _mm_sub_epi8(age, _mm_cmplt_epi8(age, pivot));
    _mm_store_si128(ages, _mm_andnot_si128(at, aged));
    return lane_bits(at);
  }

  /// Touches lines [first, last] of a cache whose sets have `Blocks`
  /// 16-lane blocks and returns the number of misses. The pivot age is
  /// the hit way's age on a hit and the oldest age on a miss; either way
  /// exactly one way holds it — the way to touch — so hits and misses run
  /// the same branch-free steps (replay streams mix them with no pattern a
  /// branch predictor could learn). The block count is a template
  /// parameter so the per-block loops unroll; members are read into
  /// locals once, since the lane stores may alias them.
  template <std::size_t Blocks>
  std::size_t access_lines(uint64_t first, uint64_t last, bool is_write) {
    TagLanes* const all_tags = tags_.data();
    WayLanes* const all_ways = lanes_.data();
    const std::size_t set_mask = num_sets_ - 1;
    const unsigned set_shift = set_shift_;
    const uint8_t oldest = oldest_age_;
    std::size_t misses = 0;
    std::size_t writebacks = 0;
    for (uint64_t l = first; l <= last; ++l) {
      const std::size_t set = static_cast<std::size_t>(l) & set_mask;
      const auto tag = static_cast<uint32_t>((l >> set_shift) + 1);
      TagLanes* tags = all_tags + set * Blocks;
      WayLanes* ways = all_ways + set * Blocks;
      LaneMask hit[Blocks];
      LaneMask hit_age = all_lanes();
      unsigned any_hit = 0;
      for (std::size_t b = 0; b < Blocks; ++b) {
        hit[b] = match_tags(tags[b], tag);
        any_hit |= lane_bits(hit[b]);
        hit_age = min_hit_age(hit_age, ways[b], hit[b]);
      }
      const LaneMask pivot = pivot_of(hit_age, oldest);
      uint64_t touched = 0;
      unsigned writeback = 0;
      for (std::size_t b = 0; b < Blocks; ++b)
        touched |= uint64_t{touch_lanes(ways[b], hit[b], pivot, is_write,
                                        writeback)}
                   << (b * kLanes);
      // The top bit keeps countr_zero's argument nonzero, sparing it a
      // zero-input branch; exactly one way is touched, so the bit never
      // changes the answer.
      const std::size_t way =
          static_cast<std::size_t>(std::countr_zero(touched | kTopBit)) %
          (Blocks * kLanes);
      tags[way / kLanes].tag[way % kLanes] = tag;  // unchanged on a hit
      misses += any_hit == 0 ? 1 : 0;
      writebacks += writeback != 0 ? 1 : 0;
    }
    writebacks_ += writebacks;
    return misses;
  }

  [[noreturn]] void throw_tag_overflow(uint64_t line_addr) const;

  std::size_t line_bytes_;
  unsigned line_shift_ = 7;  // log2(line_bytes_)
  std::size_t num_sets_;
  unsigned set_shift_ = 0;   // log2(num_sets_)
  std::size_t ways_;
  std::size_t blocks_;           // 16-lane blocks per set
  uint8_t oldest_age_;           // ways_ - 1, the LRU way's age
  std::vector<TagLanes> tags_;   // [num_sets_ * blocks_]
  std::vector<WayLanes> lanes_;  // [num_sets_ * blocks_]
  std::size_t hits_ = 0;
  std::size_t read_misses_ = 0;
  std::size_t write_misses_ = 0;
  std::size_t writebacks_ = 0;
};

}  // namespace ts
