// Figure 18 (repo extension): priority classes under overload — traffic
// mix x offered load x aging sweep on a streaming MinkUNet serve through
// the serve::Server session API.
//
// A serving fleet rarely has one traffic class. The Server's default
// batching policy implements strict priority with optional aging
// (serve_policies.hpp): high-class requests win batch slots, lows ride
// the SLO deadline, and aging promotes a waiting request one class per
// interval so sustained high-class pressure cannot starve the backfill.
// Because batching, routing, and placement all run on the modeled
// clock, every per-class percentile below is deterministic. Sanity
// anchors pin the contract:
//   A1  the fig17-style 2-device cache_affinity configuration keeps its
//       warm hit rate and aggregate compute at 1 and 2 workers per
//       device (affinity routing never reads lane state)
//   A2  under overload, high-class modeled p99 e2e strictly below
//       low-class (strict priority, aging off)
//   A3  aging strictly tightens the low-class queue-wait tail vs
//       strict priority under high-class pressure (no starvation)
//   A4  priorities are pure scheduling: aggregate modeled compute is
//       invariant to the traffic mix at fixed load
//   A5  per-class outcomes reproduce bit-identically on a re-run
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

struct Mix {
  const char* name;
  serve::Priority majority;  // 3 of every 4 requests
  serve::Priority minority;  // every 4th request
};

serve::Priority class_of(const Mix& mix, int i) {
  return i % 4 == 3 ? mix.minority : mix.majority;
}

struct Cell {
  double high_wait_p99_ms = 0, low_wait_p99_ms = 0;
  double high_e2e_p99_ms = 0, low_e2e_p99_ms = 0;
  double e2e_p99_ms = 0;
  double fps = 0;
  double total_ms = 0;  // aggregate modeled compute
  double hit_rate = 0;
  double wall_ms = 0;
};

Cell cell_from(const serve::StreamStats& s, double wall_ms) {
  const int hi = static_cast<int>(serve::Priority::kHigh);
  const int lo = static_cast<int>(serve::Priority::kLow);
  Cell c;
  c.high_wait_p99_ms = s.per_class[hi].queue_wait_p99_seconds * 1e3;
  c.low_wait_p99_ms = s.per_class[lo].queue_wait_p99_seconds * 1e3;
  c.high_e2e_p99_ms = s.per_class[hi].e2e_p99_seconds * 1e3;
  c.low_e2e_p99_ms = s.per_class[lo].e2e_p99_seconds * 1e3;
  c.e2e_p99_ms = s.e2e_p99_seconds * 1e3;
  c.fps = s.throughput_fps;
  c.total_ms = s.aggregate.total_seconds() * 1e3;
  c.hit_rate = s.map_cache.hit_rate();
  c.wall_ms = wall_ms;
  return c;
}

Cell run_cell(const Workload& w, const std::vector<SparseTensor>& stream,
              const Mix& mix, double gap, double budget,
              double aging_seconds, int workers, int devices,
              serve::RoutePolicy route, std::size_t cache_bytes) {
  serve::ServerConfig cfg;
  cfg.with_model("seg", w.model)
      .with_fleet({{rtx2080ti(), devices}})
      .with_routing_policy(serve::make_routing_policy(route))
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_map_cache_bytes(cache_bytes)
      .with_queue_depth(stream.size() + 1)
      .with_batch_overhead(0.0005);
  serve::BatcherOptions b;
  b.policy = serve::BatchPolicy::kSloAware;
  b.max_batch = 4;
  b.slo_budget_seconds = budget;
  cfg.with_batcher(b);
  if (aging_seconds > 0) {
    serve::PriorityOptions p;
    p.aging_seconds = aging_seconds;
    cfg.with_priority(p);
  }
  RunOptions run;
  run.borrow_input = true;  // the session queue owns the stream copies
  cfg.with_run(run);

  serve::Server server(cfg);
  const bench::WallTimer wall;
  server.start();
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], gap * static_cast<double>(i),
                  class_of(mix, static_cast<int>(i)));
  const serve::StreamReport rep = server.drain();
  return cell_from(rep.stats, wall.seconds() * 1e3);
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace

int main() {
  bench::header(
      "Figure 18: priority classes under overload",
      "repo extension — traffic mix x load x aging on a streaming "
      "MinkUNet serve through the serve::Server session API");
  bench::note(
      "per-class wait/e2e p99, fps, and compute are modeled and "
      "deterministic (strict-priority-plus-aging batching on the "
      "modeled clock); wall ms is host time");

  const uint64_t seed = 20260731;
  const double scale = bench::env_scale(0.35);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/1);

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const int requests = 24;
  std::vector<SparseTensor> stream;
  for (int i = 0; i < requests; ++i)
    stream.push_back(make_input(lidar, segmentation_voxels(),
                                seed + 7 + static_cast<uint64_t>(i)));

  // Load calibration: the mean modeled service time anchors the arrival
  // process, so the overload factor means the same thing at any scale.
  const double service =
      run_model(w.model, stream[0], rtx2080ti(), torchsparse_config())
          .total_seconds();
  std::printf("stream: %d requests, ~%zu voxels, %.2f ms modeled service\n",
              requests, stream[0].num_points(), service * 1e3);

  const Mix mixes[] = {
      {"all-normal", serve::Priority::kNormal, serve::Priority::kNormal},
      {"low+HI 1/4", serve::Priority::kLow, serve::Priority::kHigh},
      {"high+LO 1/4", serve::Priority::kHigh, serve::Priority::kLow},
  };
  // Offered load: overload (arrivals 20x faster than one lane drains)
  // and near-capacity.
  const double gaps[] = {0.05 * service, 0.5 * service};
  const char* gap_names[] = {"overload", "near-cap"};
  const double budget_of[] = {8.0 * 0.05 * service, 4.0 * 0.5 * service};
  const double agings[] = {0.0, 2.0 * 0.05 * service};  // off / on

  std::printf("\n%-12s %-9s %-5s %10s %10s %10s %10s %8s %8s\n", "mix",
              "load", "aging", "hiWait99", "loWait99", "hiE2e99",
              "loE2e99", "fps", "wall ms");
  Cell cells[3][2][2];  // [mix][load][aging]
  for (std::size_t mi = 0; mi < 3; ++mi) {
    for (std::size_t li = 0; li < 2; ++li) {
      for (std::size_t ai = 0; ai < 2; ++ai) {
        const Cell c =
            run_cell(w, stream, mixes[mi], gaps[li], budget_of[li],
                     agings[ai], /*workers=*/2, /*devices=*/1,
                     serve::RoutePolicy::kLeastLoaded, /*cache=*/0);
        cells[mi][li][ai] = c;
        std::printf("%-12s %-9s %-5s %10.3f %10.3f %10.3f %10.3f %8.1f "
                    "%8.1f\n",
                    mixes[mi].name, gap_names[li],
                    agings[ai] > 0 ? "on" : "off", c.high_wait_p99_ms,
                    c.low_wait_p99_ms, c.high_e2e_p99_ms, c.low_e2e_p99_ms,
                    c.fps, c.wall_ms);
      }
    }
  }

  // Parity cells: the all-normal overload stream as the fig17-style
  // 2-device cache_affinity configuration on a 50%-duplicate stream, at
  // 2 and 1 workers per device.
  std::vector<SparseTensor> dup_stream;
  for (int i = 0; i < requests; ++i)
    dup_stream.push_back(make_input(lidar, segmentation_voxels(),
                                    seed + 7 + static_cast<uint64_t>(i / 2)));
  const std::size_t kBudget = std::size_t(256) << 20;
  const Cell aff_server =
      run_cell(w, dup_stream, mixes[0], gaps[0], budget_of[0], 0.0, 2, 2,
               serve::RoutePolicy::kCacheAffinity, kBudget);
  const Cell aff_w1 =
      run_cell(w, dup_stream, mixes[0], gaps[0], budget_of[0], 0.0, 1, 2,
               serve::RoutePolicy::kCacheAffinity, kBudget);
  std::printf("\nparity: affinity hit rate %.3f (2 workers) vs %.3f "
              "(1 worker)\n",
              aff_server.hit_rate, aff_w1.hit_rate);

  // Re-run the headline cell for the determinism anchor.
  const Cell again =
      run_cell(w, stream, mixes[1], gaps[0], budget_of[0], 0.0, 2, 1,
               serve::RoutePolicy::kLeastLoaded, 0);

  const std::size_t LOW_HI = 1, HIGH_LO = 2;  // mix indexes
  bench::metric("fig18.overload_high_e2e_p99_ms",
                cells[LOW_HI][0][0].high_e2e_p99_ms);
  bench::metric("fig18.overload_low_e2e_p99_ms",
                cells[LOW_HI][0][0].low_e2e_p99_ms);
  bench::metric("fig18.overload_sep_ratio",
                cells[LOW_HI][0][0].low_e2e_p99_ms /
                    cells[LOW_HI][0][0].high_e2e_p99_ms);
  bench::metric("fig18.strict_low_wait_p99_ms",
                cells[HIGH_LO][0][0].low_wait_p99_ms);
  bench::metric("fig18.aged_low_wait_p99_ms",
                cells[HIGH_LO][0][1].low_wait_p99_ms);
  bench::metric("fig18.normal_overload_fps", cells[0][0][0].fps);
  bench::metric("fig18.affinity_parity_hit_rate", aff_server.hit_rate);
  bench::metric("wall_fig18.sweep_ms", cells[LOW_HI][0][0].wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-66s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("A1: 2-device cache_affinity hit/compute worker-invariant",
         aff_server.hit_rate == aff_w1.hit_rate &&
             close_rel(aff_server.total_ms, aff_w1.total_ms, 1e-12));
  anchor("A2: overload, strict priority — high e2e p99 < low e2e p99",
         cells[LOW_HI][0][0].high_e2e_p99_ms <
                 cells[LOW_HI][0][0].low_e2e_p99_ms &&
             cells[LOW_HI][0][0].high_wait_p99_ms <
                 cells[LOW_HI][0][0].low_wait_p99_ms);
  anchor("A3: aging tightens the starving low-class wait tail",
         cells[HIGH_LO][0][1].low_wait_p99_ms <
             cells[HIGH_LO][0][0].low_wait_p99_ms);
  bool a4 = true;
  for (std::size_t li = 0; li < 2; ++li)
    for (std::size_t mi = 1; mi < 3; ++mi)
      for (std::size_t ai = 0; ai < 2; ++ai)
        a4 = a4 && close_rel(cells[mi][li][ai].total_ms,
                             cells[0][li][0].total_ms, 1e-12);
  anchor("A4: aggregate modeled compute invariant to mix and aging", a4);
  anchor("A5: per-class outcome reproduces bit-identically",
         again.high_e2e_p99_ms == cells[LOW_HI][0][0].high_e2e_p99_ms &&
             again.low_e2e_p99_ms == cells[LOW_HI][0][0].low_e2e_p99_ms &&
             again.fps == cells[LOW_HI][0][0].fps);
  return ok ? 0 : 1;
}
