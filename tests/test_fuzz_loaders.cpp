// Seeded mutation fuzz over the three binary loaders (io::load_points,
// io::load_tensor, io::load_map_cache). Each starts from a valid image,
// applies a few random byte-level mutations — bit flips, random bytes,
// count-sized words overwritten with boundary values, truncation,
// insertion, deletion, chunk duplication — and loads the result. Every
// mutated image must either load or throw std::runtime_error (the
// loaders' typed error), and the load's peak heap growth must stay
// within a fixed slack plus a constant multiple of the image size: a
// count field is only a claim until its bytes arrive.
//
// Heap growth is measured by replacing the global operator new/delete
// in this test binary. Deterministic (fixed seeds), no libFuzzer needed;
// run standalone with `ctest -L fuzz` (also part of the sanitizer job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/lidar.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "nn/layers.hpp"

namespace {

// --- Heap accounting ----------------------------------------------------

std::atomic<std::size_t> g_live{0};  // bytes currently allocated
std::atomic<std::size_t> g_peak{0};  // high-water mark since last reset

/// Each block carries its size in a max-aligned header so the unsized
/// operator delete can account for it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  if (n > std::numeric_limits<std::size_t>::max() - kHeader)
    throw std::bad_alloc();
  void* raw = std::malloc(n + kHeader);
  if (!raw) throw std::bad_alloc();
  std::memcpy(raw, &n, sizeof(n));
  const std::size_t live = g_live.fetch_add(n) + n;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  char* raw = static_cast<char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, raw, sizeof(n));
  g_live.fetch_sub(n);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace ts {
namespace {

/// Peak heap growth allowed for loading an image of `bytes` bytes: each
/// loader reserves at most 1 MiB ahead of the data per container, and a
/// snapshot nests a few containers, so 4 MiB covers the read-ahead; the
/// rest must be backed by bytes actually present.
std::size_t memory_bound(std::size_t bytes) {
  return (std::size_t(4) << 20) + 16 * bytes;
}

enum class Outcome { kLoaded, kRejected };

/// Loads `bytes` through `load`, failing the test on any exception that
/// is not std::runtime_error or on heap growth past memory_bound.
Outcome load_bounded(const std::string& bytes,
                     const std::function<void(std::istream&)>& load) {
  std::istringstream is(bytes);
  const std::size_t base = g_live.load();
  g_peak.store(base);
  Outcome out = Outcome::kLoaded;
  try {
    load(is);
  } catch (const std::runtime_error&) {
    out = Outcome::kRejected;
  }
  const std::size_t grew = g_peak.load() - base;
  EXPECT_LE(grew, memory_bound(bytes.size()))
      << "image of " << bytes.size() << " bytes";
  return out;
}

// --- Mutations ----------------------------------------------------------

/// Boundary values a count, size or stride field is most likely to
/// mishandle.
constexpr uint64_t kInteresting[] = {
    0,
    1,
    2,
    0x7f,
    0xff,
    0x7fff,
    0xffff,
    0x7fffffffull,
    0x80000000ull,
    0xffffffffull,
    0x100000000ull,
    uint64_t(1) << 20,
    uint64_t(1) << 24,
    uint64_t(1) << 28,
    uint64_t(1) << 32,
    0x7fffffffffffffffull,
    0xffffffffffffffffull,
};

std::string mutate(std::string s, std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const int ops = 1 + static_cast<int>(pick(4));
  for (int op = 0; op < ops; ++op) {
    if (s.empty()) {
      s.push_back(static_cast<char>(rng()));
      continue;
    }
    switch (pick(7)) {
      case 0:  // flip one bit
        s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // one random byte
        s[pick(s.size())] = static_cast<char>(rng());
        break;
      case 2: {  // a 4- or 8-byte boundary value at a word offset
        const std::size_t width = pick(2) ? 8 : 4;
        if (s.size() < width) break;
        const std::size_t at = pick(s.size() - width + 1) & ~std::size_t(3);
        const uint64_t v =
            kInteresting[pick(std::size(kInteresting))];
        std::memcpy(&s[at], &v, width);
        break;
      }
      case 3:  // truncate
        s.resize(pick(s.size()));
        break;
      case 4: {  // insert a few random bytes
        const std::size_t at = pick(s.size() + 1);
        std::string ins(1 + pick(16), '\0');
        for (char& c : ins) c = static_cast<char>(rng());
        s.insert(at, ins);
        break;
      }
      case 5: {  // delete a chunk
        const std::size_t at = pick(s.size());
        s.erase(at, 1 + pick(64));
        break;
      }
      case 6: {  // duplicate a chunk in place
        const std::size_t at = pick(s.size());
        const std::string chunk = s.substr(at, 1 + pick(64));
        s.insert(at, chunk);
        break;
      }
    }
  }
  return s;
}

constexpr int kMutationsPerFormat = 1500;

/// Fuzzes one loader from one valid image; returns (loaded, rejected).
std::pair<int, int> fuzz(const std::string& image, uint64_t seed,
                         const std::function<void(std::istream&)>& load) {
  EXPECT_EQ(load_bounded(image, load), Outcome::kLoaded)
      << "the unmutated image must load";
  std::mt19937_64 rng(seed);
  int loaded = 0, rejected = 0;
  for (int i = 0; i < kMutationsPerFormat; ++i) {
    const std::string bytes = mutate(image, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    if (load_bounded(bytes, load) == Outcome::kLoaded)
      ++loaded;
    else
      ++rejected;
    if (testing::Test::HasFailure()) break;
  }
  return {loaded, rejected};
}

// --- Seed images --------------------------------------------------------

std::string points_image() {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 6;
  std::stringstream ss;
  io::save_points(ss, generate_scan(spec, 11));
  return ss.str();
}

SparseTensor small_tensor(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, 7);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (coords.size() < 40) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(coords.size(), 4);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = f(rng);
  return SparseTensor(std::move(coords), std::move(feats));
}

std::string tensor_image() {
  std::stringstream ss;
  io::save_tensor(ss, small_tensor(12));
  return ss.str();
}

/// A real snapshot: a small network's kernel maps and downsampled
/// coordinates, both payload kinds.
std::string map_cache_image() {
  spnn::BuildContext b(13);
  auto net = std::make_shared<spnn::Sequential>();
  net->emplace<spnn::ConvBlock>(4, 8, 3, 1, false, b);
  net->emplace<spnn::ConvBlock>(8, 8, 2, 2, false, b);
  const ModelFn model = [net](const SparseTensor& x, ExecContext& ctx) {
    net->forward(x, ctx);
  };
  RunOptions opt;
  opt.map_cache = std::make_shared<KernelMapCache>(std::size_t(1) << 20);
  run_model(model, small_tensor(14), rtx2080ti(), torchsparse_config(), opt);
  const MapCacheSnapshot snap = opt.map_cache->export_snapshot();
  EXPECT_GE(snap.entries.size(), 3u);
  std::stringstream ss;
  io::save_map_cache(ss, snap);
  return ss.str();
}

// --- Tests --------------------------------------------------------------

void expect_both_outcomes(std::pair<int, int> counts) {
  // Neither outcome may be vacuous: some mutations (a flipped feature
  // bit, a flipped key bit) keep the image valid, most break it.
  EXPECT_GT(counts.first, 0) << "no mutated image loaded";
  EXPECT_GT(counts.second, 0) << "no mutated image was rejected";
}

TEST(LoaderFuzz, PointsLoadOrThrowTypedErrorInBoundedMemory) {
  expect_both_outcomes(fuzz(points_image(), 101, [](std::istream& is) {
    io::load_points(is);
  }));
}

TEST(LoaderFuzz, TensorLoadOrThrowTypedErrorInBoundedMemory) {
  expect_both_outcomes(fuzz(tensor_image(), 102, [](std::istream& is) {
    io::load_tensor(is);
  }));
}

TEST(LoaderFuzz, MapCacheLoadOrThrowTypedErrorInBoundedMemory) {
  expect_both_outcomes(fuzz(map_cache_image(), 103, [](std::istream& is) {
    io::load_map_cache(is);
  }));
}

TEST(LoaderFuzz, HeapAccountingSeesAReadAheadClaim) {
  // Guards the harness itself: a header claiming 2^20 tensor channels
  // makes the loader reserve its capped read-ahead before truncation is
  // noticed, and the replaced allocator must observe that growth.
  std::string bytes = tensor_image();
  const uint64_t channels = uint64_t(1) << 20;
  std::memcpy(&bytes[16], &channels, sizeof(channels));
  std::istringstream is(bytes);
  const std::size_t base = g_live.load();
  g_peak.store(base);
  EXPECT_THROW(io::load_tensor(is), std::runtime_error);
  EXPECT_GE(g_peak.load() - base, std::size_t(1) << 19);
}

}  // namespace
}  // namespace ts
