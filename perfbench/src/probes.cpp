#include "probes.hpp"

#include "core/downsample.hpp"
#include "core/gather_scatter.hpp"
#include "core/kernel_map.hpp"
#include "core/kernel_offsets.hpp"
#include "core/matmul_group.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "hash/grid_hashmap.hpp"

namespace perfbench {

using namespace ts;

void probe_data(const LidarSpec& lidar, const VoxelSpec& voxels,
                std::uint64_t seed, int count, Tracer& tracer) {
  for (int i = 0; i < count; ++i) {
    std::vector<Point3> points;
    {
      Scope s(tracer, "data.generate_scan", i);
      points = generate_scan(lidar, seed + static_cast<std::uint64_t>(i));
    }
    Scope s(tracer, "data.voxelize", i);
    voxelize(points, voxels);
  }
}

double probe_hash(const std::vector<const SparseTensor*>& frames,
                  Tracer& tracer) {
  double bytes = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto id = static_cast<long long>(i);
    {
      Scope s(tracer, "hash.grid_index", id);
      bytes += static_cast<double>(
          CoordIndex(frames[i]->coords(), MapBackend::kGrid).memory_bytes());
    }
    Scope s(tracer, "hash.hashmap_index", id);
    CoordIndex index(frames[i]->coords(), MapBackend::kHashMap);
  }
  return frames.empty() ? 0.0 : bytes / 1048576.0 / frames.size();
}

LayerWalk layer_walk(const std::vector<const SparseTensor*>& frames,
                     const DeviceSpec& dev, Tracer& tracer) {
  constexpr std::size_t kChannels = 32;
  LayerWalk out;
  double theoretical = 0, planned = 0, entries = 0;
  const int volume = kernel_volume(3);
  const int center = center_offset_index(3);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto id = static_cast<long long>(i);
    const std::vector<Coord>& coords = frames[i]->coords();
    const std::size_t n = coords.size();
    std::vector<Coord> down;
    {
      Scope s(tracer, "core.downsample_coords", id);
      down = downsample_coords(coords, 2, 2, /*fused=*/true,
                               /*simplified_control=*/true);
    }
    KernelMap sub, strided;
    {
      Scope s(tracer, "core.build_kernel_map", id);
      sub = build_kernel_map(coords, coords, ConvGeometry{3, 1, false, 1},
                             MapSearchOptions{MapBackend::kGrid, true});
    }
    {
      Scope s(tracer, "core.build_kernel_map", id);
      strided =
          build_kernel_map(coords, down, ConvGeometry{2, 2, false, 1},
                           MapSearchOptions{MapBackend::kGrid, false});
    }
    entries += static_cast<double>(sub.total() + strided.total());

    const std::vector<std::size_t> sizes = sub.sizes();
    std::vector<int> move;
    for (int k = 0; k < volume; ++k)
      if (k != center && sizes[static_cast<std::size_t>(k)] > 0)
        move.push_back(k);
    ExecContext ctx = make_run_context(dev, torchsparse_config());
    {
      Scope s(tracer, "core.charge_gather_scatter", id);
      charge_gather_scatter(sub, move, n, n, kChannels, kChannels, ctx);
    }
    std::vector<MMGroup> groups;
    {
      Scope s(tracer, "core.plan_groups", id);
      groups = plan_groups(sizes, /*submanifold=*/true,
                           GroupingStrategy::kAdaptive, GroupParams{});
    }
    theoretical += theoretical_flops(sizes, kChannels, kChannels);
    planned += planned_flops(groups, sizes, kChannels, kChannels);

    bool ok = sub.size(center) == n && strided.total() == n;
    for (const MapEntry& e : sub.maps[static_cast<std::size_t>(center)])
      ok = ok && e.in == e.out;
    for (int k = 0; k < volume; ++k)
      ok = ok && sub.size(k) == sub.size(mirror_offset_index(volume, k));
    if (!ok && out.maps_consistent)
      out.detail = "frame " + std::to_string(i);
    out.maps_consistent = out.maps_consistent && ok;
  }
  out.kernel_map_entries = frames.empty() ? 0.0 : entries / frames.size();
  out.matmul_useful_frac = planned > 0 ? theoretical / planned : 0.0;
  return out;
}

void probe_l2(const ModelFn& model,
              const std::vector<const SparseTensor*>& frames,
              const DeviceSpec& dev, const EngineConfig& cfg,
              const RunOptions& run, Tracer& tracer, L2Probe& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto id = static_cast<long long>(i);
    for (const bool replay : {true, false}) {
      RunOptions opt = run;
      opt.simulate_cache = replay;
      ExecContext ctx = make_run_context(dev, cfg, opt);
      const double t0 = now_seconds();
      {
        Scope s(tracer, replay ? "gpusim.l2_replay" : "gpusim.l2_analytic",
                id);
        run_in_context(model, *frames[i], ctx);
      }
      const double host = now_seconds() - t0;
      if (!replay) {
        out.analytic_seconds += host;
        continue;
      }
      out.replay_seconds += host;
      out.hits += static_cast<double>(ctx.l2.hits());
      out.accesses += static_cast<double>(
          ctx.l2.hits() + ctx.l2.read_misses() + ctx.l2.write_misses());
    }
  }
}

void add_bits(Bits& b, const Timeline& t) {
  for (std::size_t s = 0; s < kNumStages; ++s)
    b.add(t.stage_seconds(static_cast<Stage>(s)));
  b.add(t.dram_bytes());
  b.add(t.kernel_launches());
  b.add(t.flops());
}

void report_timeline_metrics(Report& report, const Timeline& sum,
                             std::size_t frames) {
  const double per_frame = frames ? 1.0 / static_cast<double>(frames) : 0.0;
  report.metric("gpusim.dram_mb_per_frame", sum.dram_bytes() / 1e6 * per_frame,
                "MB", Better::kLower, Clock::kModeled);
  report.metric("gpusim.launches_per_frame",
                static_cast<double>(sum.kernel_launches()) * per_frame,
                "count", Better::kLower, Clock::kModeled);
  report.metric("gpusim.matmul_tflops", sum.matmul_tflops(), "TFLOP/s",
                Better::kHigher, Clock::kModeled);
  static const char* const kStages[] = {"mapping", "gather", "scatter",
                                        "matmul",  "dense2d", "nms", "misc"};
  for (std::size_t s = 0; s < kNumStages; ++s)
    report.metric(std::string("gpusim.stage_ms.") + kStages[s],
                  sum.stage_seconds(static_cast<Stage>(s)) * 1e3 * per_frame,
                  "ms", Better::kLower, Clock::kModeled);
}

void report_layer_metrics(Report& report, const Tracer& tracer,
                          std::size_t frames, double voxels_per_frame,
                          double index_mb, const LayerWalk& walk,
                          const L2Probe& l2) {
  const double per_frame = frames ? 1.0 / static_cast<double>(frames) : 0.0;
  report.metric("data.scan_ms", tracer.mean_seconds("data.generate_scan") * 1e3,
                "ms", Better::kLower, Clock::kHost);
  report.metric("data.voxelize_ms", tracer.mean_seconds("data.voxelize") * 1e3,
                "ms", Better::kLower, Clock::kHost);
  report.metric("data.voxels_per_frame", voxels_per_frame, "count",
                Better::kLower, Clock::kModeled);
  report.metric("hash.grid_index_ms",
                tracer.mean_seconds("hash.grid_index") * 1e3, "ms",
                Better::kLower, Clock::kHost);
  report.metric("hash.hashmap_index_ms",
                tracer.mean_seconds("hash.hashmap_index") * 1e3, "ms",
                Better::kLower, Clock::kHost);
  report.metric("hash.index_mb", index_mb, "MB", Better::kLower,
                Clock::kModeled);
  report.metric(
      "core.downsample_ms",
      tracer.total_seconds("core.downsample_coords") * per_frame * 1e3, "ms",
      Better::kLower, Clock::kHost);
  report.metric("core.kernel_map_ms",
                tracer.total_seconds("core.build_kernel_map") * per_frame * 1e3,
                "ms", Better::kLower, Clock::kHost);
  report.metric("core.kernel_map_entries", walk.kernel_map_entries, "count",
                Better::kLower, Clock::kModeled);
  report.metric(
      "core.gather_scatter_ms",
      tracer.total_seconds("core.charge_gather_scatter") * per_frame * 1e3,
      "ms", Better::kLower, Clock::kHost);
  report.metric("core.plan_groups_us",
                tracer.mean_seconds("core.plan_groups") * 1e6, "us",
                Better::kLower, Clock::kHost);
  report.metric("core.matmul_useful_frac", walk.matmul_useful_frac,
                "fraction", Better::kHigher, Clock::kModeled);
  report.metric("gpusim.l2_replay_share", l2.replay_share(), "fraction",
                Better::kLower, Clock::kHost);
  report.metric("gpusim.l2_hit_rate", l2.hit_rate(), "fraction",
                Better::kHigher, Clock::kModeled);
}

}  // namespace perfbench
