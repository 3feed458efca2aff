// Synthetic LiDAR generator and voxelizer tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "data/lidar.hpp"
#include "data/voxelize.hpp"

namespace ts {
namespace {

TEST(Lidar, DeterministicInSeed) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 100;
  const auto a = generate_scan(spec, 7);
  const auto b = generate_scan(spec, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].z, b[i].z);
  }
}

TEST(Lidar, DifferentSeedsDifferentScenes) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 100;
  const auto a = generate_scan(spec, 1);
  const auto b = generate_scan(spec, 2);
  // Same ray grid but different scene geometry -> different points.
  int diff = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (a[i].x != b[i].x) ++diff;
  EXPECT_GT(diff, static_cast<int>(std::min(a.size(), b.size()) / 4));
}

TEST(Lidar, PointsWithinRangeAndScene) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 200;
  for (const Point3& p : generate_scan(spec, 3)) {
    const double r = std::sqrt(p.x * p.x + p.y * p.y);
    EXPECT_LT(r, spec.max_range_m + 1.0);
    EXPECT_GT(p.z, -1.0);   // nothing below ground
    EXPECT_LT(p.z, 10.0);   // nothing above buildings
    EXPECT_GE(p.intensity, 0.0f);
  }
}

TEST(Lidar, BeamCountsMatchDatasets) {
  EXPECT_EQ(semantic_kitti_spec().beams, 64);
  EXPECT_EQ(nuscenes_spec(1).beams, 32);
  EXPECT_EQ(waymo_spec(1).beams, 64);
  EXPECT_EQ(nuscenes_spec(10).frames, 10);
}

TEST(Lidar, MultiFrameAggregationGrowsPointCount) {
  LidarSpec one = nuscenes_spec(1);
  one.azimuth_steps = 150;
  LidarSpec three = nuscenes_spec(3);
  three.azimuth_steps = 150;
  const auto a = generate_scan(one, 5);
  const auto b = generate_scan(three, 5);
  EXPECT_GT(b.size(), 2 * a.size());
  // Older frames carry a positive time tag.
  float max_time = 0;
  for (const Point3& p : b) max_time = std::max(max_time, p.time);
  EXPECT_GT(max_time, 0.1f);
}

/// FNV-1a over `n` bytes, continuing from `h`.
uint64_t fnv1a(uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Lidar, ScanBytesMatchGoldenDigests) {
  // Digests of the exhaustive (every ray against every box) generator:
  // for seeds 1, 2, 3 in turn, the point count as a uint64 and then the
  // raw Point3 bytes. The culled generator must reproduce every byte.
  struct Golden {
    const char* name;
    LidarSpec spec;
    double scale;
    uint64_t digest;
  };
  const Golden goldens[] = {
      {"semantic_kitti", semantic_kitti_spec(), 1.0, 0x338f7f8d7c0c8756ull},
      {"semantic_kitti", semantic_kitti_spec(), 0.25, 0x115e5553fb3c89edull},
      {"nuscenes x1", nuscenes_spec(1), 1.0, 0x90d8b1870e2a0598ull},
      {"nuscenes x1", nuscenes_spec(1), 0.25, 0xe6d7ab9f1d279dacull},
      {"nuscenes x3", nuscenes_spec(3), 1.0, 0x9112d1bad422982dull},
      {"nuscenes x3", nuscenes_spec(3), 0.25, 0x4ad6bc144afdf86eull},
      {"nuscenes x10", nuscenes_spec(10), 1.0, 0x86677d0872ab7c82ull},
      {"nuscenes x10", nuscenes_spec(10), 0.25, 0x0ba69835a0e3e600ull},
      {"waymo x1", waymo_spec(1), 1.0, 0xc04886a9369b4fd3ull},
      {"waymo x1", waymo_spec(1), 0.25, 0x639265fe2275cec4ull},
      {"waymo x3", waymo_spec(3), 1.0, 0xc29b2482d4a8b0d7ull},
      {"waymo x3", waymo_spec(3), 0.25, 0x8f77c62b1d616a19ull},
  };
  for (const Golden& g : goldens) {
    LidarSpec spec = g.spec;
    spec.azimuth_steps =
        std::max(32, static_cast<int>(spec.azimuth_steps * g.scale));
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<Point3> pts = generate_scan(spec, seed);
      const uint64_t n = pts.size();
      h = fnv1a(h, &n, sizeof n);
      h = fnv1a(h, pts.data(), pts.size() * sizeof(Point3));
    }
    EXPECT_EQ(h, g.digest) << g.name << " at azimuth scale " << g.scale;
  }
}

// --- Exhaustive reference: every ray tested against every box. ---

struct RefBox {
  float cx, cy, cz, hx, hy, hz;
};

float ref_ray_box(float ox, float oy, float oz, float dx, float dy, float dz,
                  const RefBox& b) {
  float tmin = 0.0f, tmax = 1e9f;
  const float o[3] = {ox, oy, oz}, d[3] = {dx, dy, dz};
  const float lo[3] = {b.cx - b.hx, b.cy - b.hy, b.cz - b.hz};
  const float hi[3] = {b.cx + b.hx, b.cy + b.hy, b.cz + b.hz};
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(d[i]) < 1e-9f) {
      if (o[i] < lo[i] || o[i] > hi[i]) return 1e9f;
      continue;
    }
    float t0 = (lo[i] - o[i]) / d[i];
    float t1 = (hi[i] - o[i]) / d[i];
    if (t0 > t1) std::swap(t0, t1);
    tmin = std::max(tmin, t0);
    tmax = std::min(tmax, t1);
    if (tmin > tmax) return 1e9f;
  }
  return tmin > 1e-4f ? tmin : 1e9f;
}

std::vector<Point3> exhaustive_scan(const LidarSpec& spec, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::uniform_real_distribution<float> uni(0.0f, 1.0f);
  std::normal_distribution<float> noise(
      0.0f, static_cast<float>(spec.range_noise_m));
  std::vector<RefBox> boxes;
  for (int i = 0; i < spec.num_vehicles; ++i) {
    const float r = 5.0f + 35.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    boxes.push_back(RefBox{r * std::cos(a), r * std::sin(a), 0.8f,
                           2.2f + uni(rng), 0.9f + 0.4f * uni(rng),
                           0.8f + 0.4f * uni(rng)});
  }
  for (int i = 0; i < spec.num_walls; ++i) {
    const float r = 12.0f + 40.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    const bool along_x = uni(rng) < 0.5f;
    boxes.push_back(RefBox{r * std::cos(a), r * std::sin(a), 3.0f,
                           along_x ? 8.0f + 10.0f * uni(rng) : 0.4f,
                           along_x ? 0.4f : 8.0f + 10.0f * uni(rng), 3.0f});
  }
  std::vector<Point3> points;
  const double fov_up = spec.fov_up_deg * M_PI / 180.0;
  const double fov_dn = spec.fov_down_deg * M_PI / 180.0;
  for (int f = 0; f < spec.frames; ++f) {
    const float ego_x = -static_cast<float>(spec.ego_speed_mps *
                                            spec.frame_dt_s * f);
    const float oz = static_cast<float>(spec.sensor_height_m);
    for (int b = 0; b < spec.beams; ++b) {
      const double pitch =
          fov_dn + (fov_up - fov_dn) * b / std::max(1, spec.beams - 1);
      const float cp = static_cast<float>(std::cos(pitch));
      const float sp = static_cast<float>(std::sin(pitch));
      for (int azi = 0; azi < spec.azimuth_steps; ++azi) {
        if (uni(rng) < spec.dropout) continue;
        const double yaw = 2.0 * M_PI * azi / spec.azimuth_steps;
        const float dx = cp * static_cast<float>(std::cos(yaw));
        const float dy = cp * static_cast<float>(std::sin(yaw));
        const float dz = sp;
        float t = 1e9f;
        if (dz < -1e-6f) t = std::min(t, -oz / dz);
        for (const RefBox& bx : boxes)
          t = std::min(t, ref_ray_box(ego_x, 0.0f, oz, dx, dy, dz, bx));
        if (t >= static_cast<float>(spec.max_range_m)) continue;
        t += noise(rng);
        Point3 p;
        p.x = ego_x + t * dx;
        p.y = t * dy;
        p.z = oz + t * dz;
        p.intensity = 0.2f + 0.8f * uni(rng);
        p.time = static_cast<float>(f * spec.frame_dt_s);
        points.push_back(p);
      }
    }
  }
  return points;
}

void expect_same_bytes(const std::vector<Point3>& got,
                       const std::vector<Point3>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Point3)), 0)
        << "point " << i << ": (" << got[i].x << ", " << got[i].y << ", "
        << got[i].z << ") vs (" << want[i].x << ", " << want[i].y << ", "
        << want[i].z << ")";
}

TEST(Lidar, CulledScanMatchesExhaustiveReference) {
  // Crowded scenes (more than 64 boxes), every ray kept, and fast ego
  // motion so later frames start near or inside boxes (the every-column
  // path). 32 columns are 11.25 degrees wide, so most boxes straddle
  // the 0/2pi wrap or a column edge.
  std::mt19937_64 pick(2024);
  for (int trial = 0; trial < 12; ++trial) {
    LidarSpec spec = waymo_spec(3);
    spec.num_vehicles = 60 + static_cast<int>(pick() % 20);
    spec.num_walls = 20 + static_cast<int>(pick() % 10);
    spec.dropout = trial % 3 == 0 ? 0.2 : 0.0;
    spec.beams = 16;
    spec.azimuth_steps =
        trial % 2 == 0 ? 32 : 33 + static_cast<int>(pick() % 700);
    spec.ego_speed_mps = 20.0 + static_cast<double>(pick() % 200);
    spec.fov_up_deg = 15.0;
    spec.fov_down_deg = -25.0;
    const uint64_t seed = pick();
    SCOPED_TRACE("trial " + std::to_string(trial) + " azimuth_steps " +
                 std::to_string(spec.azimuth_steps));
    expect_same_bytes(generate_scan(spec, seed), exhaustive_scan(spec, seed));
  }
  // Beams at +-90 degrees have a vanishing xy direction; the generator
  // tests them against every box instead of culling by column.
  LidarSpec spec = nuscenes_spec(2);
  spec.num_vehicles = 70;
  spec.num_walls = 10;
  spec.dropout = 0.0;
  spec.azimuth_steps = 32;
  spec.beams = 9;
  spec.fov_up_deg = 90.0;
  spec.fov_down_deg = -90.0;
  spec.ego_speed_mps = 60.0;
  for (const uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("near-vertical beams, seed " + std::to_string(seed));
    expect_same_bytes(generate_scan(spec, seed), exhaustive_scan(spec, seed));
  }
}

TEST(Lidar, ValidatesSpecBeforeAllocating) {
  auto expect_invalid = [](const LidarSpec& spec, const char* why) {
    EXPECT_THROW(generate_scan(spec, 1), std::invalid_argument) << why;
  };
  const LidarSpec base = nuscenes_spec(1);
  for (const int bad : {0, -1, INT_MIN}) {
    LidarSpec s = base;
    s.beams = bad;
    expect_invalid(s, "beams");
    s = base;
    s.azimuth_steps = bad;
    expect_invalid(s, "azimuth_steps");
    s = base;
    s.frames = bad;
    expect_invalid(s, "frames");
  }
  // Products that overflow int (and one that overflows 64 bits in a
  // naive size_t product of three INT_MAX factors) or pass the cap.
  LidarSpec s = base;
  s.beams = s.azimuth_steps = s.frames = INT_MAX;
  expect_invalid(s, "INT_MAX^3 rays");
  s = base;
  s.beams = 65536;
  s.azimuth_steps = 65536;
  s.frames = 1;
  expect_invalid(s, "2^32 rays");
  s = base;
  s.beams = 1 << 13;
  s.azimuth_steps = 1 << 13;
  s.frames = 2;
  expect_invalid(s, "just over kMaxScanRays");
  s = base;
  s.beams = -2;
  s.azimuth_steps = -3;
  expect_invalid(s, "two negative factors with a positive product");
  s = base;
  s.num_vehicles = -1;
  expect_invalid(s, "num_vehicles");
  s = base;
  s.num_walls = INT_MIN;
  expect_invalid(s, "num_walls");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {-0.01, 1.01, nan, inf}) {
    s = base;
    s.dropout = d;
    expect_invalid(s, "dropout");
  }
  for (const double d : {-1.0, nan, inf, -inf}) {
    s = base;
    s.max_range_m = d;
    expect_invalid(s, "max_range_m");
    s = base;
    s.range_noise_m = d;
    expect_invalid(s, "range_noise_m");
  }

  // Boundary values are valid. A zero range noise draws scaled-out noise
  // (normal_distribution itself needs a positive stddev).
  s = base;
  s.azimuth_steps = 40;
  s.beams = 1;
  s.range_noise_m = 0.0;
  EXPECT_FALSE(generate_scan(s, 6).empty());
  s.max_range_m = 0.0;
  EXPECT_TRUE(generate_scan(s, 6).empty());
  s = base;
  s.azimuth_steps = 40;
  s.num_vehicles = s.num_walls = 0;
  s.dropout = 1.0;
  EXPECT_TRUE(generate_scan(s, 6).empty());
}

TEST(Voxelize, CoordsNonNegativeAndUnique) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 150;
  const SparseTensor t = make_input(spec, segmentation_voxels(), 11);
  ASSERT_GT(t.num_points(), 100u);
  std::unordered_set<uint64_t> seen;
  for (const Coord& c : t.coords()) {
    EXPECT_GE(c.x, 0);
    EXPECT_GE(c.y, 0);
    EXPECT_GE(c.z, 0);
    EXPECT_EQ(c.b, 0);
    EXPECT_TRUE(seen.insert(pack_coord(c)).second) << "duplicate voxel";
  }
  EXPECT_EQ(t.stride(), 1);
  EXPECT_EQ(t.channels(), 4u);
}

TEST(Voxelize, FeatureOffsetsWithinVoxel) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 120;
  const SparseTensor t = make_input(spec, detection_voxels(), 13);
  for (std::size_t i = 0; i < t.num_points(); ++i) {
    const float* row = t.feats().row(i);
    // Mean in-voxel offsets, centered: within [-0.5, 0.5].
    EXPECT_GE(row[0], -0.51f);
    EXPECT_LE(row[0], 0.51f);
    EXPECT_GE(row[3], 0.0f);  // intensity
    EXPECT_LE(row[3], 1.0f);
  }
}

TEST(Voxelize, FiveChannelModeCarriesTime) {
  LidarSpec spec = nuscenes_spec(3);
  spec.azimuth_steps = 100;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor t = make_input(spec, vox, 17);
  EXPECT_EQ(t.channels(), 5u);
  float max_age = 0;
  for (std::size_t i = 0; i < t.num_points(); ++i)
    max_age = std::max(max_age, t.feats().row(i)[4]);
  EXPECT_GT(max_age, 0.05f);
}

TEST(Voxelize, CoarserVoxelsFewerPoints) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 200;
  const auto pts = generate_scan(spec, 19);
  VoxelSpec fine;
  fine.voxel_size_m = 0.05;
  VoxelSpec coarse;
  coarse.voxel_size_m = 0.2;
  EXPECT_GT(voxelize(pts, fine).num_points(),
            voxelize(pts, coarse).num_points());
}

TEST(Voxelize, DatasetSparsityOrdering) {
  // Fig. 12's premise: nuScenes (32-beam) workloads are much smaller than
  // SemanticKITTI (64-beam) at the segmentation voxel size.
  LidarSpec sk = semantic_kitti_spec();
  LidarSpec ns = nuscenes_spec(1);
  const double scale = 0.4;
  sk.azimuth_steps = static_cast<int>(sk.azimuth_steps * scale);
  ns.azimuth_steps = static_cast<int>(ns.azimuth_steps * scale);
  const auto t_sk = make_input(sk, segmentation_voxels(), 23);
  const auto t_ns = make_input(ns, segmentation_voxels(), 23);
  EXPECT_GT(t_sk.num_points(), 2 * t_ns.num_points());
}

}  // namespace
}  // namespace ts
