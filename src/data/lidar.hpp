// Synthetic rotating-LiDAR scan generation.
//
// The paper evaluates on SemanticKITTI (64-beam, ~0.05m voxels),
// nuScenes-LiDARSeg (32-beam, ~0.1m voxels, 1/3/10-frame aggregation) and
// Waymo Open (64-beam, long range). Those datasets are not available
// offline, so we synthesize scans with the same structure: a ray-cast
// scene (ground plane + parked vehicles + building walls) sampled by a
// spinning multi-beam sensor. What matters for the paper's performance
// results is the voxel count, sparsity pattern, and the per-offset kernel
// map size distribution (Fig. 12) — all of which are functions of the
// scan geometry this generator reproduces. Scene scale is reduced
// relative to the real datasets so the CPU-based engines stay fast; all
// engines see identical inputs, so relative results are unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ts {

struct Point3 {
  float x = 0, y = 0, z = 0;
  float intensity = 0;
  float time = 0;  // frame age in seconds (multi-frame aggregation)
};

/// Sensor + scene parameters for one synthetic dataset.
struct LidarSpec {
  std::string name;
  int beams = 64;
  int azimuth_steps = 900;       // columns per revolution
  double fov_up_deg = 2.0;
  double fov_down_deg = -24.8;
  double max_range_m = 80.0;
  double sensor_height_m = 1.73;
  int num_vehicles = 24;
  int num_walls = 10;
  double dropout = 0.08;          // fraction of rays returning nothing
  double range_noise_m = 0.006;   // range noise stddev (0 = none)
  int frames = 1;                 // multi-frame aggregation count
  double ego_speed_mps = 5.0;     // ego motion between frames
  double frame_dt_s = 0.1;
};

/// Voxelization parameters (paper §2: coordinates are quantized points).
struct VoxelSpec {
  double voxel_size_m = 0.1;
  int feature_channels = 4;  // [x,y,z offsets within voxel, intensity]
};

/// Dataset presets roughly matching the paper's three benchmarks.
LidarSpec semantic_kitti_spec();
LidarSpec nuscenes_spec(int frames);
LidarSpec waymo_spec(int frames);

VoxelSpec segmentation_voxels();  // 0.05 m, MinkUNet configs
VoxelSpec detection_voxels();     // 0.1 m, CenterPoint configs

/// Upper bound on beams * azimuth_steps * frames for one scan (the point
/// buffer reserves one Point3 per ray, 1.25 GiB at the cap).
inline constexpr std::size_t kMaxScanRays = std::size_t{1} << 26;

/// Generates one (possibly multi-frame aggregated) scan. Deterministic in
/// `seed`; different seeds give different scenes (the "samples" of the
/// paper's tuning subset).
///
/// Each ray takes the nearest hit among the ground plane and every scene
/// box. The result is computed with azimuth culling, under a contract
/// that keeps every output byte equal to the exhaustive every-box loop:
/// - *Conservative.* Per frame, each box is binned into the azimuth
///   columns whose rays can cross its xy footprint, padded by at least
///   one column and wrapped at 0/2pi; a box whose (slightly grown)
///   footprint contains the ray origin is in every column. A skipped box
///   would have returned "no hit", and the min over hits is order-free,
///   so the nearest hit is bit-identical. Near-vertical beams
///   (cos(pitch) < 1e-3) test every box.
/// - *Same directions.* Each column's cos/sin(yaw) comes from a table
///   filled with the per-ray expression (yaw in double, then cast).
/// - *Same RNG order.* Every ray draws its dropout uniform first; a ray
///   whose hit is in range then draws its range noise (scaled by 0 when
///   range_noise_m is 0) and then its intensity uniform.
///
/// Throws std::invalid_argument when beams, azimuth_steps or frames is
/// not positive, their product exceeds kMaxScanRays, num_vehicles or
/// num_walls is negative, dropout is outside [0, 1], or max_range_m or
/// range_noise_m is negative or not finite.
std::vector<Point3> generate_scan(const LidarSpec& spec, uint64_t seed);

}  // namespace ts
