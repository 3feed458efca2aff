// Figure 21 (repo extension): fault-tolerant serving — deterministic
// device faults injected into a streaming MinkUNet serve, with
// retry/redispatch, health-aware routing, graceful degradation, and
// snapshot-warm replacement shards.
//
// The scenario is the availability story the warm-start machinery
// (fig20) was built for: a two-shard fleet loses shard 0 to a crash
// mid-stream and a replacement arrives a fixed modeled interval later.
// The sweep measures the fault-free baseline, the crash with a cold
// replacement, the crash with a snapshot-warm replacement, and the
// crash under per-class degrade deadlines with mixed-priority traffic.
// Sanity anchors (nonzero exit on failure):
//   A1  a non-triggering FaultPlan is bit-equal to no plan at all (the
//       fault-tolerant scheduler with nothing to do is the fault-free
//       scheduler)
//   A2  the crash scenario replays bit-identically run-to-run
//   A3  snapshot-warm replacement serves with zero cold builds (hit
//       rate 1.0) while the cold replacement re-pays map builds on top
//       of the fault-free ramp
//   A4  under degrade deadlines the high class completes in full with
//       p99 held within the SLO bound while the low class sheds
//   A5  every fault-relevant modeled stat is worker-invariant (w1==w4)
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
#include "serve/fault.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

constexpr double kSpacing = 0.0002;      // modeled arrival gap
constexpr long long kCrashDispatch = 4;  // shard 0 dies as batch 4 goes out
constexpr double kReplaceAfter = 0.0025; // replacement lead time

struct Cell {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::size_t redispatched = 0;
  std::size_t faults = 0;
  double retry_wait_p99_ms = 0;
  double e2e_p99_ms = 0;
  double high_p99_ms = 0;
  std::size_t high_failed = 0;
  std::size_t low_failed = 0;
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  std::size_t misses = 0;
  double wall_ms = 0;
};

Cell run_cell(const std::vector<SparseTensor>& stream,
              serve::ServerConfig cfg, bool mixed_classes = false) {
  cfg.with_queue_depth(stream.size() + 1);
  cfg.run.borrow_input = true;  // queue owns the stream copies
  serve::Server server(std::move(cfg));
  const bench::WallTimer wall;
  server.start();
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], kSpacing * static_cast<double>(i),
                  mixed_classes ? (i % 2 ? serve::Priority::kLow
                                         : serve::Priority::kHigh)
                                : serve::Priority::kNormal);
  const serve::StreamReport rep = server.drain();
  Cell c;
  c.completed = rep.stats.completed;
  c.failed = rep.stats.failed;
  c.retries = rep.stats.retries;
  c.redispatched = rep.stats.redispatched_batches;
  c.faults = rep.stats.faults_injected;
  c.retry_wait_p99_ms = rep.stats.retry_wait_p99_seconds * 1e3;
  c.e2e_p99_ms = rep.stats.e2e_p99_seconds * 1e3;
  const auto& high =
      rep.stats.per_class[static_cast<int>(serve::Priority::kHigh)];
  const auto& low =
      rep.stats.per_class[static_cast<int>(serve::Priority::kLow)];
  c.high_p99_ms = high.e2e_p99_seconds * 1e3;
  c.high_failed = high.failed;
  c.low_failed = low.failed;
  c.mapping_ms = rep.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = rep.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = rep.stats.map_cache.hit_rate();
  c.misses = rep.stats.map_cache.misses;
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

/// The worker-invariant subset: fault decisions, retries, cache
/// accounting, and the shadow-clock retry penalty. Latency percentiles
/// are deliberately excluded — they ride on real lane counts.
/// faults_injected is excluded too (a plan whose fault lands after the
/// stream still activates during the end-of-stream drain without
/// touching the schedule).
bool same_fault_accounting(const Cell& a, const Cell& b) {
  return a.completed == b.completed && a.failed == b.failed &&
         a.retries == b.retries && a.redispatched == b.redispatched &&
         a.misses == b.misses &&
         close_rel(a.retry_wait_p99_ms, b.retry_wait_p99_ms, 1e-12) &&
         close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
         close_rel(a.total_ms, b.total_ms, 1e-12);
}

/// Full bit-equality (same worker count): accounting plus latency.
bool same_modeled(const Cell& a, const Cell& b) {
  return same_fault_accounting(a, b) &&
         close_rel(a.e2e_p99_ms, b.e2e_p99_ms, 1e-12);
}

}  // namespace

int main() {
  bench::header(
      "Figure 21: fault-tolerant serving",
      "repo extension — deterministic crash/replace faults on a streaming "
      "MinkUNet serve with retries, degradation, and warm replacements");
  bench::note(
      "modeled columns are deterministic (fault decisions run on the "
      "worker-invariant shadow clock); wall ms is host time");

  const uint64_t seed = 20260808;
  const double scale = bench::env_scale(0.35);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/1);

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const int requests = 24;
  const int n_unique = 8;
  std::vector<SparseTensor> unique_scans;
  for (int i = 0; i < n_unique; ++i)
    unique_scans.push_back(make_input(lidar, segmentation_voxels(),
                                      seed + 7 + static_cast<uint64_t>(i)));
  std::vector<SparseTensor> stream;
  for (int i = 0; i < requests; ++i)
    stream.push_back(unique_scans[static_cast<std::size_t>(i % n_unique)]);
  std::printf("stream: %d requests over %d unique scans, ~%zu voxels each\n",
              requests, n_unique, unique_scans[0].num_points());

  const std::size_t kBudget = std::size_t(256) << 20;
  auto base_cfg = [&](int workers) {
    serve::ServerConfig cfg;
    cfg.with_model("seg", w.model)
        .with_fleet({{rtx2080ti(), 2}})
        .with_routing_policy(
            serve::make_routing_policy(serve::RoutePolicy::kLeastLoaded))
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_map_cache_bytes(kBudget);
    // Dispatch-on-arrival: the fault timeline below is phrased against
    // the arrival grid, so batches must not sit in a forming window.
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kImmediate;
    cfg.with_batcher(b);
    return cfg;
  };
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = kCrashDispatch;
  crash.duration_seconds = kReplaceAfter;
  const serve::FaultPlan crash_plan{{crash}};

  // First life (fault-free) builds the full-coverage snapshot the warm
  // replacement re-seeds from — the fig20 restart hand-off, reused as
  // the fault-recovery hand-off.
  std::shared_ptr<const MapCacheSnapshot> snapshot;
  {
    serve::ServerConfig cfg = base_cfg(4);
    cfg.with_queue_depth(stream.size() + 1);
    cfg.run.borrow_input = true;
    serve::Server server(std::move(cfg));
    server.start();
    for (std::size_t i = 0; i < stream.size(); ++i)
      server.submit(stream[i], kSpacing * static_cast<double>(i));
    server.drain();
    std::stringstream image;
    server.map_cache()->save_snapshot(image);
    snapshot = std::make_shared<const MapCacheSnapshot>(
        io::load_map_cache(image));
  }

  // --- The sweep. -----------------------------------------------------
  const Cell baseline = run_cell(stream, base_cfg(4));
  // Non-triggering plan: lands eons after the stream; A1 pins that the
  // fault-tolerant scheduler with nothing to do is the fault-free one.
  serve::DeviceFault never{1, serve::FaultKind::kSlowdown, 1e6};
  never.duration_seconds = 1.0;
  never.slowdown_factor = 2.0;
  const Cell no_trigger = run_cell(
      stream, base_cfg(4).with_fault_plan(serve::FaultPlan{{never}}));
  const Cell cold_crash =
      run_cell(stream, base_cfg(4).with_fault_plan(crash_plan));
  const Cell cold_crash_replay =
      run_cell(stream, base_cfg(4).with_fault_plan(crash_plan));
  const Cell warm_crash = run_cell(stream,
                                   base_cfg(4)
                                       .with_fault_plan(crash_plan)
                                       .with_warm_snapshot(snapshot));
  const Cell warm_crash_w1 = run_cell(stream,
                                      base_cfg(1)
                                          .with_fault_plan(crash_plan)
                                          .with_warm_snapshot(snapshot));
  // Graceful degradation: mixed-priority traffic through the same crash
  // with a tight low-class deadline; surviving capacity goes to kHigh.
  serve::FaultToleranceOptions degrade;
  degrade.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] =
      0.004;
  const Cell degraded = run_cell(stream,
                                 base_cfg(4)
                                     .with_fault_plan(crash_plan)
                                     .with_fault_tolerance(degrade)
                                     .with_warm_snapshot(snapshot),
                                 /*mixed_classes=*/true);

  std::printf("\n%-24s %5s %5s %5s %6s %9s %9s %9s %8s\n", "scenario",
              "done", "fail", "retry", "redisp", "e2e p99", "map ms",
              "hit rate", "wall ms");
  auto row = [](const char* name, const Cell& c) {
    std::printf("%-24s %5zu %5zu %5zu %6zu %9.3f %9.3f %9.2f %8.1f\n", name,
                c.completed, c.failed, c.retries, c.redispatched,
                c.e2e_p99_ms, c.mapping_ms, c.hit_rate, c.wall_ms);
  };
  row("fault-free baseline", baseline);
  row("non-triggering plan", no_trigger);
  row("crash, cold replace", cold_crash);
  row("crash, warm replace", warm_crash);
  row("crash, warm, 1 worker", warm_crash_w1);
  row("crash + degrade (hi/lo)", degraded);
  std::printf("degrade split: high p99 %.3f ms, high failed %zu, "
              "low shed %zu\n",
              degraded.high_p99_ms, degraded.high_failed,
              degraded.low_failed);

  bench::metric("fig21.baseline_e2e_p99_ms", baseline.e2e_p99_ms);
  bench::metric("fig21.crash_retries", static_cast<double>(cold_crash.retries));
  bench::metric("fig21.crash_redispatched",
                static_cast<double>(cold_crash.redispatched));
  bench::metric("fig21.crash_retry_wait_p99_ms", cold_crash.retry_wait_p99_ms);
  bench::metric("fig21.cold_replace_misses",
                static_cast<double>(cold_crash.misses));
  bench::metric("fig21.warm_replace_misses",
                static_cast<double>(warm_crash.misses));
  bench::metric("fig21.warm_replace_hit_rate", warm_crash.hit_rate);
  bench::metric("fig21.warm_crash_e2e_p99_ms", warm_crash.e2e_p99_ms);
  bench::metric("fig21.degraded_high_p99_ms", degraded.high_p99_ms);
  bench::metric("fig21.degraded_low_shed",
                static_cast<double>(degraded.low_failed));
  bench::metric("wall_fig21.warm_crash_ms", warm_crash.wall_ms);
  bench::metric("wall_fig21.cold_crash_ms", cold_crash.wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-58s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("A1: non-triggering plan bit-equal to no plan",
         same_modeled(baseline, no_trigger) && no_trigger.failed == 0 &&
             no_trigger.retries == 0);
  anchor("A2: crash kills in-flight work and replays bit-identically",
         same_modeled(cold_crash, cold_crash_replay) &&
             cold_crash.faults == 1 && cold_crash.retries >= 1 &&
             cold_crash.redispatched >= 1 &&
             cold_crash.completed == static_cast<std::size_t>(requests));
  anchor("A3: warm replacement 0 cold builds; cold re-pays the loss",
         warm_crash.misses == 0 && warm_crash.hit_rate == 1.0 &&
             cold_crash.misses > 0 &&
             warm_crash.mapping_ms < cold_crash.mapping_ms);
  // SLO bound: the outage + replacement lead time plus the fault-free
  // tail — the recovery latency a crash can legitimately add.
  anchor("A4: degrade holds high-class p99 within SLO, sheds low",
         degraded.high_failed == 0 && degraded.low_failed > 0 &&
             degraded.high_p99_ms <=
                 kReplaceAfter * 1e3 + 3.0 * baseline.e2e_p99_ms + 1.0);
  anchor("A5: fault-relevant modeled stats worker-invariant (w1==w4)",
         same_fault_accounting(warm_crash, warm_crash_w1));
  return ok ? 0 : 1;
}
