// offline-paper: the paper's seven workloads at native scale, run as a
// closed loop on one thread under TorchSparse (Alg. 5 tuned), Minkowski-
// Engine and SpConv FP16 on a modeled RTX 3090, numerics off, L2 replay
// on. It loads the simulator's hot path (core map search and gather/
// scatter charging, gpusim L2 replay) with no serve code at all, and it
// carries the paper-fidelity metrics.
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "data/lidar.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "probes.hpp"
#include "tune/group_tuner.hpp"

namespace perfbench {

using namespace ts;

namespace {

// Native scale: at small scales MinkowskiEngine's fetch-on-demand path
// wins on segmentation and the speedup figures stop meaning anything.
constexpr double kScale = 1.0;
constexpr int kTuneSamples = 2;
// Set-up costs ~6 s and a pass ~15 s on a 4-core Xeon VM: two set-ups
// and at least three passes keep a run near one minute while giving
// both medians more than one sample.
constexpr int kSetupRepeats = 2;
constexpr std::size_t kMinPasses = 3;
// The paper's headline geomean speedups of TorchSparse.
constexpr double kPaperVsMinkowski = 1.6;
constexpr double kPaperVsSpconv = 1.5;

struct Engine {
  const char* key;
  const char* span;
  EngineConfig cfg;
  bool tuned;
};

std::vector<Engine> engines() {
  return {{"torchsparse", "engines.run_model/torchsparse",
           torchsparse_config(), true},
          {"minkowski", "engines.run_model/minkowski", minkowski_config(),
           false},
          {"spconv_fp16", "engines.run_model/spconv_fp16",
           spconv_config(Precision::kFP16), false}};
}

struct Setup {
  std::vector<Workload> workloads;
  std::vector<std::unordered_map<int, GroupParams>> tuned;
};

/// Scan construction plus Alg. 5 tuning on each workload's tune samples,
/// which never include the timed scan.
Setup build_setup(std::uint64_t seed, Tracer& tracer) {
  Setup s;
  {
    Scope span(tracer, "engines.paper_workloads");
    s.workloads = paper_workloads(seed, kScale, kTuneSamples);
  }
  const DeviceSpec dev = rtx3090();
  for (std::size_t i = 0; i < s.workloads.size(); ++i) {
    const Workload& w = s.workloads[i];
    const auto id = static_cast<long long>(i);
    std::vector<std::vector<LayerRecord>> records;
    {
      Scope span(tracer, "tune.record_workloads", id);
      records =
          record_workloads(w.model, w.tune_samples, dev, torchsparse_config());
    }
    Scope span(tracer, "tune.tune_groups", id);
    s.tuned.push_back(
        tune_groups(records, CostModel(dev), Precision::kFP16).params);
  }
  return s;
}

struct Pass {
  std::vector<Timeline> timelines;  // [workload * engines + engine]
  std::vector<double> call_seconds;  // host time of each call
  double seconds = 0;
  double voxels = 0;
  std::size_t calls = 0;
};

Timeline run_one(const Setup& s, std::size_t w, const Engine& e,
                 Tracer& tracer, long long id) {
  RunOptions opt;  // numerics off, L2 replay on
  if (e.tuned) opt.tuned = s.tuned[w];
  Scope span(tracer, e.span, id);
  return run_model(s.workloads[w].model, s.workloads[w].input, rtx3090(),
                   e.cfg, opt);
}

Pass run_pass(const Setup& s, Tracer& tracer) {
  const std::vector<Engine> es = engines();
  Pass p;
  const double t0 = now_seconds();
  for (std::size_t w = 0; w < s.workloads.size(); ++w)
    for (std::size_t e = 0; e < es.size(); ++e) {
      const double c0 = now_seconds();
      p.timelines.push_back(run_one(s, w, es[e], tracer,
                                    static_cast<long long>(p.calls)));
      p.call_seconds.push_back(now_seconds() - c0);
      p.voxels += static_cast<double>(s.workloads[w].input.num_points());
      ++p.calls;
    }
  p.seconds = now_seconds() - t0;
  return p;
}

Bits pass_bits(const Pass& p) {
  Bits b;
  for (const Timeline& t : p.timelines) add_bits(b, t);
  return b;
}

struct Fidelity {
  double frame_ms = 0;
  double vs_minkowski = 0;
  double vs_spconv = 0;
  double error = 0;
};

Fidelity fidelity(const Pass& p, std::size_t workloads) {
  const std::size_t ne = engines().size();
  std::vector<double> ts_ms, vs_me, vs_sp;
  for (std::size_t w = 0; w < workloads; ++w) {
    const double ts_s = p.timelines[w * ne].total_seconds();
    ts_ms.push_back(ts_s * 1e3);
    vs_me.push_back(p.timelines[w * ne + 1].total_seconds() / ts_s);
    vs_sp.push_back(p.timelines[w * ne + 2].total_seconds() / ts_s);
  }
  Fidelity f;
  f.frame_ms = geomean(ts_ms);
  f.vs_minkowski = geomean(vs_me);
  f.vs_spconv = geomean(vs_sp);
  f.error = 0.5 * (std::abs(std::log(f.vs_minkowski / kPaperVsMinkowski)) +
                   std::abs(std::log(f.vs_spconv / kPaperVsSpconv)));
  return f;
}

bool timelines_valid(const Pass& p) {
  for (const Timeline& t : p.timelines)
    if (!(std::isfinite(t.total_seconds()) && t.total_seconds() > 0))
      return false;
  return true;
}

void report_fidelity(Report& r, const Fidelity& f) {
  r.metric("modeled_frame_ms", f.frame_ms, "ms", Better::kLower,
           Clock::kModeled);
  r.metric("speedup_vs_minkowski", f.vs_minkowski, "x", Better::kHigher,
           Clock::kModeled);
  r.metric("speedup_vs_spconv", f.vs_spconv, "x", Better::kHigher,
           Clock::kModeled);
  r.metric("fidelity_err", f.error, "ln", Better::kLower, Clock::kModeled);
  std::printf("paper fidelity: TS/ME %.3fx (paper %.1fx), TS/SpConv-FP16 "
              "%.3fx (paper %.1fx), mean |ln(model/paper)| %.4f\n",
              f.vs_minkowski, kPaperVsMinkowski, f.vs_spconv, kPaperVsSpconv,
              f.error);
}

/// The paper's dataset recipe for each of paper_workloads' seven scans.
struct SensorSetup {
  LidarSpec lidar;
  VoxelSpec voxels;
};

std::vector<SensorSetup> paper_sensors() {
  VoxelSpec seg = segmentation_voxels();
  VoxelSpec seg5 = seg;
  seg5.feature_channels = 5;
  VoxelSpec det = detection_voxels();
  det.feature_channels = 5;
  return {{semantic_kitti_spec(), seg}, {semantic_kitti_spec(), seg},
          {nuscenes_spec(3), seg5},     {nuscenes_spec(1), seg},
          {nuscenes_spec(10), det},     {waymo_spec(3), det},
          {waymo_spec(1), det}};
}

void run_untraced(const Options& opt, Report& r) {
  Tracer off(false);
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    const double t0 = now_seconds();
    s = build_setup(opt.seed, off);
    setup_s.push_back(now_seconds() - t0);
  }

  std::vector<Pass> passes;
  const double start = now_seconds();
  while (passes.size() < kMinPasses || now_seconds() - start < opt.seconds) {
    passes.push_back(run_pass(s, off));
    r.add_attempted(passes.back().calls);
  }

  const Bits first = pass_bits(passes.front());
  bool same = true;
  for (const Pass& p : passes) same = same && pass_bits(p) == first;
  r.check("offline.timelines_repeat_bit_equal", same,
          std::to_string(passes.size()) + "_passes");
  r.check("offline.timelines_finite_positive",
          timelines_valid(passes.front()));
  const Fidelity f = fidelity(passes.front(), s.workloads.size());
  r.check("offline.torchsparse_fastest_geomean",
          f.vs_minkowski > 1.0 && f.vs_spconv > 1.0);
  std::printf("modeled digest: %s\n", first.hex().c_str());

  // Each call's host time is the median over passes, so a burst of
  // interference on a shared host that slows one pass's call is dropped.
  const std::size_t calls = passes.front().calls;
  double pass_seconds = 0;
  for (std::size_t c = 0; c < calls; ++c) {
    std::vector<double> samples;
    for (const Pass& p : passes) samples.push_back(p.call_seconds[c]);
    pass_seconds += median(samples);
  }
  std::printf("input: %zu scans at scale %.2f, %.0f voxels per pass of %zu "
              "calls, %zu passes:",
              s.workloads.size(), kScale, passes.front().voxels, calls,
              passes.size());
  for (const Pass& p : passes) std::printf(" %.2f", p.seconds);
  std::printf(" s\n");
  r.metric("host_fps", static_cast<double>(calls) / pass_seconds, "frames/s",
           Better::kHigher, Clock::kHost);
  r.metric("setup_s", median(setup_s), "s", Better::kLower, Clock::kHost);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower, Clock::kHost);
  r.fail_rate();
  report_fidelity(r, f);
}

void run_traced(const Options& opt, Tracer& tracer, Report& r) {
  Tracer off(false);
  Setup s;
  {
    Scope span(tracer, "bench.setup");
    s = build_setup(opt.seed, tracer);
  }
  const Pass plain = run_pass(s, off);
  Pass traced;
  {
    Scope span(tracer, "bench.pass");
    traced = run_pass(s, tracer);
  }
  r.add_attempted(plain.calls + traced.calls);
  r.check("offline.traced_equals_untraced",
          pass_bits(plain) == pass_bits(traced));
  std::printf("modeled digest: %s\n", pass_bits(plain).hex().c_str());

  std::vector<const SparseTensor*> frames;
  double voxels = 0;
  for (const Workload& w : s.workloads) {
    frames.push_back(&w.input);
    voxels += static_cast<double>(w.input.num_points());
  }
  LayerWalk walk;
  L2Probe l2;
  double index_mb = 0;
  {
    Scope span(tracer, "bench.layer_probes");
    const std::vector<SensorSetup> sensors = paper_sensors();
    for (std::size_t i = 0; i < sensors.size(); ++i)
      probe_data(sensors[i].lidar, sensors[i].voxels, opt.seed + 100 * i, 1,
                 tracer);
    index_mb = probe_hash(frames, tracer);
    walk = layer_walk(frames, rtx3090(), tracer);
    const Engine ts_engine = engines().front();
    for (std::size_t w = 0; w < s.workloads.size(); ++w) {
      RunOptions run;
      run.tuned = s.tuned[w];
      probe_l2(s.workloads[w].model, {frames[w]}, rtx3090(), ts_engine.cfg,
               run, tracer, l2);
    }
  }
  r.check("core.kernel_map_invariants", walk.maps_consistent, walk.detail);

  report_layer_metrics(r, tracer, frames.size(),
                       voxels / static_cast<double>(frames.size()), index_mb,
                       walk, l2);
  Timeline ts_sum;
  const std::size_t ne = engines().size();
  for (std::size_t w = 0; w < s.workloads.size(); ++w)
    ts_sum += plain.timelines[w * ne];
  report_timeline_metrics(r, ts_sum, s.workloads.size());
  r.metric("tune.record_s", tracer.total_seconds("tune.record_workloads"), "s",
           Better::kLower, Clock::kHost);
  r.metric("tune.search_s", tracer.total_seconds("tune.tune_groups"), "s",
           Better::kLower, Clock::kHost);
  for (const Engine& e : engines())
    r.metric(std::string("engines.host_ms.") + e.key,
             tracer.total_seconds(e.span) * 1e3, "ms", Better::kLower,
             Clock::kHost);
  r.metric("engines.host_us_per_voxel", plain.seconds / plain.voxels * 1e6,
           "us", Better::kLower, Clock::kHost);
  r.metric("trace.overhead_frac", traced.seconds / plain.seconds - 1.0,
           "fraction", Better::kLower, Clock::kHost);
}

}  // namespace

void run_offline(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.trace)
    run_traced(opt, tracer, report);
  else
    run_untraced(opt, report);
}

}  // namespace perfbench
