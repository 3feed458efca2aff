#include "data/lidar.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

namespace ts {

LidarSpec semantic_kitti_spec() {
  LidarSpec s;
  s.name = "SemanticKITTI";
  s.beams = 64;
  s.azimuth_steps = 900;
  s.fov_up_deg = 2.0;
  s.fov_down_deg = -24.8;
  s.max_range_m = 70.0;
  s.num_vehicles = 28;
  s.num_walls = 12;
  s.frames = 1;
  return s;
}

LidarSpec nuscenes_spec(int frames) {
  LidarSpec s;
  s.name = "nuScenes";
  s.beams = 32;
  s.azimuth_steps = 540;
  s.fov_up_deg = 10.0;
  s.fov_down_deg = -30.0;
  s.max_range_m = 55.0;
  s.num_vehicles = 20;
  s.num_walls = 8;
  s.dropout = 0.12;
  s.frames = frames;
  return s;
}

LidarSpec waymo_spec(int frames) {
  LidarSpec s;
  s.name = "Waymo";
  s.beams = 64;
  s.azimuth_steps = 1100;
  s.fov_up_deg = 2.4;
  s.fov_down_deg = -17.6;
  s.max_range_m = 75.0;
  s.num_vehicles = 36;
  s.num_walls = 14;
  s.frames = frames;
  return s;
}

VoxelSpec segmentation_voxels() {
  VoxelSpec v;
  v.voxel_size_m = 0.05;
  return v;
}

VoxelSpec detection_voxels() {
  VoxelSpec v;
  v.voxel_size_m = 0.1;
  return v;
}

namespace {

struct Box {
  float cx, cy, cz, hx, hy, hz;  // center + half extents
};

/// Ray/AABB slab intersection; returns hit distance or +inf.
float ray_box(float ox, float oy, float oz, float dx, float dy, float dz,
              const Box& b) {
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

void validate(const LidarSpec& spec) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("generate_scan: " + what);
  };
  if (spec.beams <= 0 || spec.azimuth_steps <= 0 || spec.frames <= 0)
    fail("beams, azimuth_steps and frames must be positive, got " +
         std::to_string(spec.beams) + ", " +
         std::to_string(spec.azimuth_steps) + ", " +
         std::to_string(spec.frames));
  // In size_t, one factor at a time: a*b > cap <=> a > cap / b.
  const auto beams = static_cast<std::size_t>(spec.beams);
  const auto azimuth = static_cast<std::size_t>(spec.azimuth_steps);
  const auto frames = static_cast<std::size_t>(spec.frames);
  if (beams > kMaxScanRays / azimuth ||
      frames > kMaxScanRays / (beams * azimuth))
    fail("beams * azimuth_steps * frames exceeds the cap of " +
         std::to_string(kMaxScanRays) + " rays");
  if (spec.num_vehicles < 0 || spec.num_walls < 0)
    fail("num_vehicles and num_walls must be non-negative");
  if (!(spec.dropout >= 0.0 && spec.dropout <= 1.0))
    fail("dropout must lie in [0, 1], got " + std::to_string(spec.dropout));
  if (!std::isfinite(spec.max_range_m) || spec.max_range_m < 0.0)
    fail("max_range_m must be finite and non-negative, got " +
         std::to_string(spec.max_range_m));
  if (!std::isfinite(spec.range_noise_m) || spec.range_noise_m < 0.0)
    fail("range_noise_m must be finite and non-negative, got " +
         std::to_string(spec.range_noise_m));
}

// Beams flatter than this cull by column; steeper ones (|pitch| within
// ~0.06 deg of vertical) test every box, since their xy direction is too
// short for ray_box's 1e-9 parallel cutoff to track the column's yaw.
constexpr float kMinCulledCosPitch = 1e-3f;

/// Candidate boxes per azimuth column for one ray origin, as CSR lists:
/// column c may hit only boxes[ids[start[c] .. start[c + 1])].
struct ColumnBins {
  std::vector<std::size_t> start;
  std::vector<uint32_t> ids;
};

/// Conservative range of azimuth columns whose rays, cast from
/// (ox, oy), can reach box `b`'s xy footprint: [first, last], unwrapped
/// (either end may lie outside [0, columns)), or [0, columns - 1] when
/// every column can. A ray's slab test computes in float, so it may
/// report a hit on a footprint it misses by a relative error of a few
/// ulp of the coordinates; the footprint is therefore grown by a margin
/// orders of magnitude above that, and a box whose grown footprint
/// contains the origin goes into every column. The angular range is then
/// padded by `pad` columns to absorb the float rounding of each column's
/// ray direction.
std::pair<long long, long long> column_range(const Box& b, float ox,
                                             float oy, double step,
                                             long long pad,
                                             long long columns) {
  const std::pair<long long, long long> every{0, columns - 1};
  // The same float corners ray_box tests against.
  double x0 = static_cast<double>(b.cx - b.hx) - ox;
  double x1 = static_cast<double>(b.cx + b.hx) - ox;
  double y0 = static_cast<double>(b.cy - b.hy) - oy;
  double y1 = static_cast<double>(b.cy + b.hy) - oy;
  const double scale = std::max({std::fabs(x0), std::fabs(x1),
                                 std::fabs(y0), std::fabs(y1)});
  const double margin = 1e-4 * scale + 1e-3;
  x0 -= margin;
  x1 += margin;
  y0 -= margin;
  y1 += margin;
  if (x0 <= 0.0 && x1 >= 0.0 && y0 <= 0.0 && y1 >= 0.0) return every;
  // The origin is outside a convex footprint, so the footprint subtends
  // less than pi and its corners bound its directions. Measuring each
  // corner against the center's direction unwraps the range at 0/2pi.
  const double ref = std::atan2(0.5 * (y0 + y1), 0.5 * (x0 + x1));
  double lo = 0.0, hi = 0.0;
  for (const double cx : {x0, x1}) {
    for (const double cy : {y0, y1}) {
      double d = std::atan2(cy, cx) - ref;
      if (d > M_PI) d -= 2.0 * M_PI;
      if (d < -M_PI) d += 2.0 * M_PI;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  const long long first =
      static_cast<long long>(std::floor((ref + lo) / step)) - pad;
  const long long last =
      static_cast<long long>(std::ceil((ref + hi) / step)) + pad;
  if (last - first + 1 >= columns) return every;
  return {first, last};
}

ColumnBins bin_boxes(const std::vector<Box>& boxes, float ox, float oy,
                     int azimuth_steps) {
  const long long columns = azimuth_steps;
  const double step = 2.0 * M_PI / azimuth_steps;
  // One column, plus enough columns to cover 1e-5 rad: a column ray's
  // float direction differs from its exact yaw by well under 1e-5 rad
  // once cos(pitch) >= kMinCulledCosPitch.
  const long long pad = 1 + static_cast<long long>(1e-5 / step);
  std::vector<std::pair<long long, long long>> ranges;
  ranges.reserve(boxes.size());
  for (const Box& b : boxes)
    ranges.push_back(column_range(b, ox, oy, step, pad, columns));

  // Visits (column, box) for every candidate pair, in box order.
  auto for_each_pair = [&](auto&& visit) {
    for (std::size_t i = 0; i < boxes.size(); ++i)
      for (long long c = ranges[i].first; c <= ranges[i].second; ++c)
        visit(static_cast<std::size_t>(((c % columns) + columns) % columns),
              i);
  };
  ColumnBins bins;
  bins.start.assign(static_cast<std::size_t>(columns) + 1, 0);
  for_each_pair([&](std::size_t c, std::size_t) { ++bins.start[c + 1]; });
  for (std::size_t c = 0; c < static_cast<std::size_t>(columns); ++c)
    bins.start[c + 1] += bins.start[c];
  bins.ids.resize(bins.start.back());
  std::vector<std::size_t> fill(bins.start.begin(), bins.start.end() - 1);
  for_each_pair([&](std::size_t c, std::size_t i) {
    bins.ids[fill[c]++] = static_cast<uint32_t>(i);
  });
  return bins;
}

}  // namespace

std::vector<Point3> generate_scan(const LidarSpec& spec, uint64_t seed) {
  validate(spec);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::uniform_real_distribution<float> uni(0.0f, 1.0f);
  // normal_distribution needs a positive stddev: a noise-free spec draws
  // unit noise and scales it by 0, which keeps the RNG draw order.
  const auto noise_m = static_cast<float>(spec.range_noise_m);
  const float noise_gate = noise_m > 0.0f ? 1.0f : 0.0f;
  std::normal_distribution<float> noise(0.0f,
                                        noise_m > 0.0f ? noise_m : 1.0f);

  // Static scene: vehicles near the road, building walls further out.
  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(spec.num_vehicles) +
                static_cast<std::size_t>(spec.num_walls));
  for (int i = 0; i < spec.num_vehicles; ++i) {
    const float r = 5.0f + 35.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    boxes.push_back(Box{r * std::cos(a), r * std::sin(a), 0.8f,
                        2.2f + uni(rng), 0.9f + 0.4f * uni(rng),
                        0.8f + 0.4f * uni(rng)});
  }
  for (int i = 0; i < spec.num_walls; ++i) {
    const float r = 12.0f + 40.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    const bool along_x = uni(rng) < 0.5f;
    boxes.push_back(Box{r * std::cos(a), r * std::sin(a), 3.0f,
                        along_x ? 8.0f + 10.0f * uni(rng) : 0.4f,
                        along_x ? 0.4f : 8.0f + 10.0f * uni(rng), 3.0f});
  }

  // Per-column direction, with the exact expression each ray used to
  // evaluate, so dx and dy are bit-equal.
  const auto columns = static_cast<std::size_t>(spec.azimuth_steps);
  std::vector<float> cos_yaw(columns), sin_yaw(columns);
  for (int azi = 0; azi < spec.azimuth_steps; ++azi) {
    const double yaw = 2.0 * M_PI * azi / spec.azimuth_steps;
    cos_yaw[static_cast<std::size_t>(azi)] = static_cast<float>(std::cos(yaw));
    sin_yaw[static_cast<std::size_t>(azi)] = static_cast<float>(std::sin(yaw));
  }

  std::vector<Point3> points;
  points.reserve(static_cast<std::size_t>(spec.beams) * columns *
                 static_cast<std::size_t>(spec.frames));
  const double fov_up = spec.fov_up_deg * M_PI / 180.0;
  const double fov_dn = spec.fov_down_deg * M_PI / 180.0;

  for (int f = 0; f < spec.frames; ++f) {
    // Ego moves forward along +x; older frames are transformed into the
    // newest frame (standard multi-sweep aggregation).
    const float ego_x = -static_cast<float>(spec.ego_speed_mps *
                                            spec.frame_dt_s * f);
    const float oz = static_cast<float>(spec.sensor_height_m);
    const ColumnBins bins =
        bin_boxes(boxes, ego_x, 0.0f, spec.azimuth_steps);
    for (int b = 0; b < spec.beams; ++b) {
      const double pitch =
          fov_dn + (fov_up - fov_dn) * b / std::max(1, spec.beams - 1);
      const float cp = static_cast<float>(std::cos(pitch));
      const float sp = static_cast<float>(std::sin(pitch));
      const bool culled = cp >= kMinCulledCosPitch;
      for (std::size_t azi = 0; azi < columns; ++azi) {
        if (uni(rng) < spec.dropout) continue;
        const float dx = cp * cos_yaw[azi];
        const float dy = cp * sin_yaw[azi];
        const float dz = sp;

        // Nearest hit among ground plane (z=0) and boxes. min is
        // order-free, and a box outside the column's bin would return
        // 1e9f, so the candidates give the every-box answer.
        float t = 1e9f;
        if (dz < -1e-6f) t = std::min(t, -oz / dz);
        if (culled) {
          for (std::size_t k = bins.start[azi]; k < bins.start[azi + 1]; ++k)
            t = std::min(t, ray_box(ego_x, 0.0f, oz, dx, dy, dz,
                                    boxes[bins.ids[k]]));
        } else {
          for (const Box& bx : boxes)
            t = std::min(t, ray_box(ego_x, 0.0f, oz, dx, dy, dz, bx));
        }
        if (t >= static_cast<float>(spec.max_range_m)) continue;
        t += noise_gate * noise(rng);

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

}  // namespace ts
