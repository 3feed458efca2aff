// Figure 20 (repo extension): warm-start serving — KernelMapCache
// snapshots across server restarts, and duplicate-aware batch formation
// on duplicate-heavy streams.
//
// The paper's map-construction bottleneck makes the kernel-map cache the
// serving state most worth keeping alive: this sweep measures (a) a
// restarted server warm-started from a .tsmc snapshot of its previous
// life's cache against the same server restarting cold, and (b) the
// DedupBatchingPolicy against the default SLO policy on a 50%-duplicate
// stream whose duplicate runs straddle the SLO policy's batch
// boundaries. Sanity anchors (nonzero exit on failure):
//   A1  warm restart => 0 modeled cold builds (hit rate 1.0) while the
//       cold restart pays the full first-occurrence ramp
//   A2  50% duplicates => dedup batching strictly fewer cold builds
//       than the SLO policy under cache-affinity routing
//   A3  0% duplicates => dedup batching bit-equal to the SLO policy
//       (same batches, same modeled stats)
//   A4  warm-started modeled stats worker-invariant (w1 == w4)
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

struct Cell {
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  std::size_t misses = 0;
  std::size_t batches = 0;
  double wall_ms = 0;
};

Cell run_cell(const std::vector<SparseTensor>& stream,
              serve::ServerConfig cfg) {
  cfg.with_queue_depth(stream.size() + 1);
  cfg.run.borrow_input = true;  // queue owns the stream copies
  serve::Server server(std::move(cfg));
  const bench::WallTimer wall;
  server.start();
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.002 * static_cast<double>(i));
  const serve::StreamReport rep = server.drain();
  Cell c;
  c.mapping_ms = rep.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = rep.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = rep.stats.map_cache.hit_rate();
  c.misses = rep.stats.map_cache.misses;
  c.batches = rep.stats.batches;
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace

int main() {
  bench::header(
      "Figure 20: warm-start serving",
      "repo extension — cache snapshots across restarts + duplicate-aware "
      "batch formation on a streaming MinkUNet serve");
  bench::note(
      "modeled columns are deterministic (snapshot-seeded submission-order "
      "cache accounting); wall ms is host time");

  const uint64_t seed = 20260808;
  const double scale = bench::env_scale(0.35);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/1);

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const int requests = 16;
  const int n_unique = 8;
  std::vector<SparseTensor> unique_scans;
  for (int i = 0; i < n_unique; ++i)
    unique_scans.push_back(make_input(lidar, segmentation_voxels(),
                                      seed + 7 + static_cast<uint64_t>(i)));
  std::printf("stream: %d requests over %d unique scans, ~%zu voxels each\n",
              requests, n_unique, unique_scans[0].num_points());

  const std::size_t kBudget = std::size_t(256) << 20;
  auto base_cfg = [&](int workers) {
    serve::ServerConfig cfg;
    cfg.with_model("seg", w.model)
        .with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_map_cache_bytes(kBudget);
    return cfg;
  };

  // --- Part 1: snapshot warm start across a server restart. -----------
  // First life: serve 16 requests cycling all 8 unique scans twice, then
  // snapshot the server's cache. Restarted lives replay the same stream
  // cold vs warm-started from that snapshot.
  std::vector<SparseTensor> cycle_stream;
  for (int i = 0; i < requests; ++i)
    cycle_stream.push_back(
        unique_scans[static_cast<std::size_t>(i % n_unique)]);

  std::shared_ptr<const MapCacheSnapshot> snapshot;
  Cell first_life;
  {
    serve::ServerConfig cfg = base_cfg(4);
    cfg.with_queue_depth(cycle_stream.size() + 1);
    cfg.run.borrow_input = true;
    serve::Server server(std::move(cfg));
    server.start();
    for (std::size_t i = 0; i < cycle_stream.size(); ++i)
      server.submit(cycle_stream[i], 0.002 * static_cast<double>(i));
    const serve::StreamReport rep = server.drain();
    first_life.hit_rate = rep.stats.map_cache.hit_rate();
    first_life.misses = rep.stats.map_cache.misses;
    // The restart hand-off: serialize the wall cache, load it back as the
    // next life's warm-start manifest (round-trips the .tsmc format).
    std::stringstream image;
    server.map_cache()->save_snapshot(image);
    snapshot = std::make_shared<const MapCacheSnapshot>(
        io::load_map_cache(image));
  }

  const Cell cold_restart = run_cell(cycle_stream, base_cfg(4));
  const Cell warm_restart =
      run_cell(cycle_stream, base_cfg(4).with_warm_snapshot(snapshot));
  const Cell warm_restart_w1 =
      run_cell(cycle_stream, base_cfg(1).with_warm_snapshot(snapshot));

  std::printf("\n%-22s %10s %10s %9s %8s %9s\n", "restart", "map ms",
              "total ms", "hit rate", "misses", "wall ms");
  auto row = [](const char* name, const Cell& c) {
    std::printf("%-22s %10.3f %10.3f %9.2f %8zu %9.1f\n", name, c.mapping_ms,
                c.total_ms, c.hit_rate, c.misses, c.wall_ms);
  };
  row("cold (no snapshot)", cold_restart);
  row("warm (snapshot)", warm_restart);
  row("warm, 1 worker", warm_restart_w1);

  // --- Part 2: duplicate-aware batch formation. -----------------------
  // 50%-duplicate stream whose runs of two straddle the SLO policy's
  // cap-4 batch boundaries ([a,b,b,c,c,d,d,...]): the SLO policy splits
  // duplicate pairs across batches — and under round-robin routing
  // across *devices*, so each split pair pays its cold map build twice.
  // Dedup batching keeps each digest group in one dispatch, bounding the
  // digest spread across the fleet. (Cache-affinity routing can already
  // reconsolidate straddlers through owner lookups; round-robin is the
  // placement-blind baseline where batch formation alone must do it.)
  std::vector<SparseTensor> straddle_stream;
  for (int i = 0; i < requests; ++i)
    straddle_stream.push_back(
        unique_scans[static_cast<std::size_t>((i + 1) / 2 % n_unique)]);

  auto dup_cfg = [&](bool dedup) {
    serve::ServerConfig cfg = base_cfg(2);
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kSloAware;
    b.max_batch = 4;
    b.slo_budget_seconds = 0.020;
    cfg.with_batcher(b)
        .with_fleet({{rtx2080ti(), 2}})
        .with_routing_policy(
            serve::make_routing_policy(serve::RoutePolicy::kRoundRobin))
        .with_dedup_batching(dedup);
    return cfg;
  };
  const Cell slo_dup = run_cell(straddle_stream, dup_cfg(false));
  const Cell dedup_dup = run_cell(straddle_stream, dup_cfg(true));
  // 0% duplicates: every digest unique, dedup must be bit-equal to slo.
  std::vector<SparseTensor> unique_stream(unique_scans.begin(),
                                          unique_scans.end());
  const Cell slo_uniq = run_cell(unique_stream, dup_cfg(false));
  const Cell dedup_uniq = run_cell(unique_stream, dup_cfg(true));

  std::printf("\n%-22s %10s %10s %9s %8s %8s\n", "batching", "map ms",
              "total ms", "hit rate", "misses", "batches");
  auto row2 = [](const char* name, const Cell& c) {
    std::printf("%-22s %10.3f %10.3f %9.2f %8zu %8zu\n", name, c.mapping_ms,
                c.total_ms, c.hit_rate, c.misses, c.batches);
  };
  row2("slo, 50% dup", slo_dup);
  row2("dedup, 50% dup", dedup_dup);
  row2("slo, 0% dup", slo_uniq);
  row2("dedup, 0% dup", dedup_uniq);

  bench::metric("fig20.cold_restart_misses",
                static_cast<double>(cold_restart.misses));
  bench::metric("fig20.warm_restart_misses",
                static_cast<double>(warm_restart.misses));
  bench::metric("fig20.warm_restart_hit_rate", warm_restart.hit_rate);
  bench::metric("fig20.warm_restart_mapping_ms", warm_restart.mapping_ms);
  bench::metric("fig20.slo_dup50_misses",
                static_cast<double>(slo_dup.misses));
  bench::metric("fig20.dedup_dup50_misses",
                static_cast<double>(dedup_dup.misses));
  bench::metric("fig20.dedup_dup50_mapping_ms", dedup_dup.mapping_ms);
  bench::metric("wall_fig20.warm_restart_ms", warm_restart.wall_ms);
  bench::metric("wall_fig20.cold_restart_ms", cold_restart.wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-58s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("A1: warm restart — 0 cold builds; cold pays the ramp",
         warm_restart.misses == 0 && warm_restart.hit_rate == 1.0 &&
             cold_restart.misses > 0 &&
             warm_restart.mapping_ms < cold_restart.mapping_ms);
  anchor("A2: 50% dup — dedup strictly fewer cold builds than slo",
         dedup_dup.misses < slo_dup.misses);
  anchor("A3: 0% dup — dedup bit-equal to slo",
         dedup_uniq.batches == slo_uniq.batches &&
             dedup_uniq.misses == slo_uniq.misses &&
             close_rel(dedup_uniq.mapping_ms, slo_uniq.mapping_ms, 1e-12) &&
             close_rel(dedup_uniq.total_ms, slo_uniq.total_ms, 1e-12));
  anchor("A4: warm-started modeled stats worker-invariant (w1 == w4)",
         warm_restart_w1.misses == warm_restart.misses &&
             close_rel(warm_restart_w1.mapping_ms, warm_restart.mapping_ms,
                       1e-12) &&
             close_rel(warm_restart_w1.total_ms, warm_restart.total_ms,
                       1e-12));
  return ok ? 0 : 1;
}
