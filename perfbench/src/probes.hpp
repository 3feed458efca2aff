// Per-layer probes run only in traced runs: each drives one library
// layer (data, hash, core, gpusim) directly through its public calls on
// the workload's own frames, under spans named after those calls.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/sparse_tensor.hpp"
#include "data/lidar.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"

namespace perfbench {

/// generate_scan + voxelize for `count` scans of one sensor setup.
/// Spans: data.generate_scan, data.voxelize.
void probe_data(const ts::LidarSpec& lidar, const ts::VoxelSpec& voxels,
                std::uint64_t seed, int count, Tracer& tracer);

/// CoordIndex construction over each frame's coordinates on both
/// backends. Spans: hash.grid_index, hash.hashmap_index. Returns the
/// mean grid-index footprint in MB.
double probe_hash(const std::vector<const ts::SparseTensor*>& frames,
                  Tracer& tracer);

struct LayerWalk {
  double kernel_map_entries = 0;  // per frame, both maps
  double matmul_useful_frac = 0;  // theoretical / planned FLOPs
  bool maps_consistent = true;    // kernel-map invariants held
  std::string detail;
};

/// One representative layer pair per frame: downsample_coords (k2 s2),
/// build_kernel_map (3^3 submanifold and k2 s2), charge_gather_scatter of
/// a 32->32 submanifold layer into a make_run_context context on `dev`,
/// and plan_groups with the adaptive strategy. Spans: the call names
/// under core.*. Also checks map invariants: the center offset maps every
/// point to itself, mirrored offsets have equal sizes, and the k2 s2 map
/// has exactly one entry per input point.
LayerWalk layer_walk(const std::vector<const ts::SparseTensor*>& frames,
                     const ts::DeviceSpec& dev, Tracer& tracer);

/// Host time and modeled L2 traffic of frames run with and without L2
/// replay; probe_l2 accumulates into it across calls.
struct L2Probe {
  double replay_seconds = 0;    // host, simulate_cache = true
  double analytic_seconds = 0;  // host, simulate_cache = false
  double hits = 0;              // modeled L2 line hits (replay on)
  double accesses = 0;          // modeled L2 line accesses (replay on)

  double replay_share() const {
    return replay_seconds > 0 ? 1.0 - analytic_seconds / replay_seconds
                              : 0.0;
  }
  double hit_rate() const { return accesses > 0 ? hits / accesses : 0.0; }
};

/// Runs each frame through `model` twice in fresh contexts, once with
/// L2 replay (simulate_cache = true) and once analytic. Spans:
/// gpusim.l2_replay, gpusim.l2_analytic.
void probe_l2(const ts::ModelFn& model,
              const std::vector<const ts::SparseTensor*>& frames,
              const ts::DeviceSpec& dev, const ts::EngineConfig& cfg,
              const ts::RunOptions& run, Tracer& tracer, L2Probe& out);

/// Appends a timeline's stage times and traffic counters to `b`.
void add_bits(Bits& b, const ts::Timeline& t);

/// Prints the modeled gpusim metrics of `frames` frames whose timelines
/// sum to `sum`: DRAM traffic, launches, matmul rate and stage split.
void report_timeline_metrics(Report& report, const ts::Timeline& sum,
                             std::size_t frames);

/// Prints the per-layer metrics every workload shares (data, hash, core
/// layer walk, L2 probe), read back from the tracer's spans.
void report_layer_metrics(Report& report, const Tracer& tracer,
                          std::size_t frames, double voxels_per_frame,
                          double index_mb, const LayerWalk& walk,
                          const L2Probe& l2);

}  // namespace perfbench
