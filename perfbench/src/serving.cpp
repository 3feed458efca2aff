// The two serving workloads: open loops on the modeled clock through
// serve::Server, driven only through with_model + start() + submit_to,
// with_fleet, with_routing_policy(make_routing_policy(...)) and
// with_dedup_batching.
//
//   serve-drive-warm  one model (MinkUNet 0.5x, SemanticKITTI) replays a
//                     coherent drive trace with revisits under Poisson
//                     arrivals; dedup batching, a 256 MiB kernel-map
//                     cache, 2 x RTX 2080 Ti with cache-affinity routing,
//                     and a cache warm-started from a snapshot that a
//                     priming session wrote during set-up. Most lookups
//                     hit: it loads the cache-hit, dedup and io paths.
//   serve-mix-cold    two models (MinkUNet 0.5x + CenterPoint 1f, Waymo)
//                     replay shuffled traces with no revisits under bursty
//                     arrivals; a small cache that must evict, a mixed
//                     1080 Ti + 3090 fleet with estimate-aware routing, a
//                     high-priority slice and one stall fault keyed to a
//                     fixed dispatch index. Nearly every lookup misses: it
//                     loads inserts, evictions, DRR and redispatch.
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "data/lidar.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

namespace perfbench {

using namespace ts;
using namespace ts::serve;

namespace {

constexpr double kScale = 0.25;
// Worker threads per device, which is also the modeled lane count per
// device: fixed here so it never follows the host's core count. Both
// fleets have 2 devices, so the measurement pool is 4 threads on any
// host with at least 4 cores.
constexpr int kWorkers = 2;
constexpr int kSetupRepeats = 3;
// One session per ladder rung plus at least one repeat of the nominal
// rung: host_fps is the median over these sessions.
constexpr std::size_t kMinSessions = 4;
constexpr std::size_t kRequests = 128;
constexpr std::size_t kNominal = 1;  // index of the middle ladder rung

struct StreamSpec {
  int model;
  Priority priority;
  std::size_t count;
};

struct WorkloadSpec {
  bool warm;
  // Mean offered rates in Hz, lowest first; the middle one is nominal.
  std::array<double, 3> ladder_hz;
  std::vector<StreamSpec> streams;
};

WorkloadSpec spec_for(const std::string& name) {
  if (name == "serve-drive-warm")
    return {true, {200.0, 400.0, 800.0}, {{0, Priority::kNormal, kRequests}}};
  return {false,
          {250.0, 500.0, 1000.0},
          {{0, Priority::kNormal, 64},
           {1, Priority::kNormal, 48},
           {1, Priority::kHigh, 16}}};
}

LidarSpec scaled(LidarSpec lidar) {
  lidar.azimuth_steps = std::max(
      32, static_cast<int>(std::lround(lidar.azimuth_steps * kScale)));
  return lidar;
}

SequenceTraceSpec seg_trace(bool warm) {
  SequenceTraceSpec t;
  t.lidar = scaled(semantic_kitti_spec());
  t.voxels = segmentation_voxels();
  if (warm) {
    t.sequences = 4;
    t.frames_per_sequence = 8;
    t.revisits = 4;  // 3 of every 4 frames repeat an earlier one
  } else {
    t.sequences = 8;
    t.frames_per_sequence = 8;
    t.revisits = 1;
    t.shuffled = true;
  }
  return t;
}

SequenceTraceSpec det_trace() {
  SequenceTraceSpec t = seg_trace(false);
  t.lidar = scaled(waymo_spec(1));
  t.voxels = detection_voxels();
  t.voxels.feature_channels = 5;  // CenterPoint input width
  return t;
}

struct Setup {
  WorkloadSpec spec;
  std::vector<Workload> models;  // registry order
  // Per stream, the input of each of its submissions in order.
  std::vector<std::vector<SparseTensor>> inputs;
  // The distinct frames of all streams, and the model each belongs to.
  std::vector<const SparseTensor*> unique_frames;
  std::vector<int> unique_model;
  std::shared_ptr<const MapCacheSnapshot> snapshot;  // warm only
  double snapshot_mb = 0;
};

ServerConfig make_config(const Setup& s) {
  ServerConfig cfg;
  cfg.with_engine(torchsparse_config()).with_workers(kWorkers);
  for (std::size_t m = 0; m < s.models.size(); ++m)
    cfg.with_model(s.models[m].name, s.models[m].model);
  // Host-side admission must never reject: the queue holds the session.
  cfg.with_queue_depth(kRequests + 1);
  cfg.run.borrow_input = true;  // the queue owns its submitted copies
  if (s.spec.warm) {
    cfg.with_fleet({{rtx2080ti(), 2}})
        .with_routing_policy(make_routing_policy(RoutePolicy::kCacheAffinity))
        .with_dedup_batching()
        .with_map_cache_bytes(std::size_t(256) << 20);
    if (s.snapshot) cfg.with_warm_snapshot(s.snapshot);
  } else {
    DeviceFault stall;
    stall.device = 0;
    stall.kind = FaultKind::kStall;
    stall.at_dispatch = 12;  // the same batch at every rate
    stall.duration_seconds = 0.005;
    cfg.with_fleet({{gtx1080ti(), 1}, {rtx3090(), 1}})
        .with_routing_policy(make_routing_policy(RoutePolicy::kEstimateAware))
        .with_map_cache_bytes(std::size_t(2) << 20)
        .with_fault_plan(FaultPlan{{stall}});
  }
  return cfg;
}

/// The submission schedule at a mean offered rate. Every rung uses the
/// same generator seed, so rungs differ only in their time scale.
std::vector<TimedSubmission> schedule(const Setup& s, double rate_hz,
                                      std::uint64_t seed) {
  std::vector<ModelTraffic> streams;
  for (const StreamSpec& st : s.spec.streams) {
    ModelTraffic t;
    t.model = st.model;
    t.priority = st.priority;
    t.count = st.count;
    const double share = rate_hz * static_cast<double>(st.count) /
                         static_cast<double>(kRequests);
    if (s.spec.warm) {
      t.arrivals.process = ArrivalProcess::kPoisson;
      t.arrivals.rate_hz = share;
    } else {
      // Equal on/off windows: the in-burst rate is twice the mean. The
      // window is a power of two of seconds because generate_arrivals'
      // window stepping can stop advancing (loop forever) when the cycle
      // is not exactly representable, e.g. 10 ms windows at 100 Hz, seed 1.
      t.arrivals.process = ArrivalProcess::kBursty;
      t.arrivals.on_seconds = 1.0 / 128;
      t.arrivals.off_seconds = 1.0 / 128;
      t.arrivals.rate_hz = 2.0 * share;
    }
    streams.push_back(t);
  }
  return build_traffic_mix(streams, seed);
}

struct Session {
  StreamReport report;
  std::vector<std::optional<StreamHandle>> handles;  // nullopt: rejected
  double host_seconds = 0;  // start() to drain() returning
  double voxels = 0;
  std::shared_ptr<KernelMapCache> wall_cache;  // the server's map cache
};

Session serve_session(const Setup& s, const std::vector<TimedSubmission>& mix,
                      std::size_t count, Tracer& tracer) {
  Session out;
  Server server(make_config(s));
  const double t0 = now_seconds();
  {
    Scope span(tracer, "serve.start");
    server.start();
  }
  for (std::size_t i = 0; i < count; ++i) {
    const TimedSubmission& sub = mix[i];
    const SparseTensor& input = s.inputs[sub.stream][sub.stream_pos];
    out.voxels += static_cast<double>(input.num_points());
    Scope span(tracer, "serve.submit_to", static_cast<long long>(i));
    out.handles.push_back(server.try_submit_to(sub.model, input,
                                               sub.arrival_seconds,
                                               sub.priority));
  }
  {
    Scope span(tracer, "serve.drain");
    out.report = server.drain();
  }
  // Stopped in its own statement, after drain() has returned.
  out.host_seconds = now_seconds() - t0;
  out.wall_cache = server.map_cache();
  return out;
}

Setup build_setup(const Options& opt, Tracer& tracer) {
  Setup s;
  s.spec = spec_for(opt.workload);
  {
    Scope span(tracer, "engines.make_minkunet_workload");
    s.models.push_back(make_minkunet_workload("seg", "SemanticKITTI", 0.5, 1,
                                              opt.seed, kScale, 0));
  }
  std::vector<SequenceTraceSpec> traces{seg_trace(s.spec.warm)};
  if (!s.spec.warm) {
    Scope span(tracer, "engines.make_centerpoint_workload");
    s.models.push_back(make_centerpoint_workload("det", "Waymo", 1,
                                                 opt.seed + 1, kScale, 0));
    traces.push_back(det_trace());
  }

  // Materialize each model's trace; streams of one model take
  // consecutive slices of it, so no two submissions share a frame
  // unless the trace itself revisits one.
  std::vector<std::vector<SparseTensor>> per_model(traces.size());
  for (std::size_t m = 0; m < traces.size(); ++m) {
    const std::size_t n = trace_length(traces[m]);
    for (std::size_t k = 0; k < n; ++k) {
      Scope span(tracer, "serve.trace_frame", static_cast<long long>(k));
      per_model[m].push_back(
          trace_frame(traces[m], k, opt.seed + 17 * m).input);
    }
  }
  std::vector<std::size_t> taken(traces.size(), 0);
  for (const StreamSpec& st : s.spec.streams) {
    const std::vector<SparseTensor>& src =
        per_model[static_cast<std::size_t>(st.model)];
    std::size_t& at = taken[static_cast<std::size_t>(st.model)];
    s.inputs.emplace_back(src.begin() + static_cast<std::ptrdiff_t>(at),
                          src.begin() +
                              static_cast<std::ptrdiff_t>(at + st.count));
    at += st.count;
  }
  for (std::size_t st = 0; st < s.inputs.size(); ++st) {
    const int revisits =
        traces[static_cast<std::size_t>(s.spec.streams[st].model)].revisits;
    // Coherent traces emit a frame's revisits back to back.
    for (std::size_t k = 0; k < s.inputs[st].size();
         k += static_cast<std::size_t>(revisits)) {
      s.unique_frames.push_back(&s.inputs[st][k]);
      s.unique_model.push_back(s.spec.streams[st].model);
    }
  }

  if (s.spec.warm) {
    // Priming: serve the trace's first sequence, snapshot the cache to a
    // .tsmc file, and load it back for the measured servers (what
    // ServerConfig::warm_start(path) does, done once per set-up).
    const std::size_t first_sequence =
        static_cast<std::size_t>(traces[0].frames_per_sequence) *
        static_cast<std::size_t>(traces[0].revisits);
    Session prime;
    {
      Scope span(tracer, "bench.priming");
      prime = serve_session(
          s, schedule(s, s.spec.ladder_hz[kNominal], opt.seed),
          first_sequence, tracer);
    }
    const std::string path = opt.out_dir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + ".tsmc";
    {
      Scope span(tracer, "io.save_map_cache_file");
      io::save_map_cache_file(path, prime.wall_cache->export_snapshot());
    }
    s.snapshot_mb =
        static_cast<double>(std::filesystem::file_size(path)) / 1048576.0;
    {
      Scope span(tracer, "io.load_map_cache_file");
      s.snapshot = std::make_shared<const MapCacheSnapshot>(
          io::load_map_cache_file(path));
    }
    std::filesystem::remove(path);
  }
  return s;
}

void add_bits(Bits& b, const MapCacheReplayStats& c) {
  b.add(c.lookups);
  b.add(c.hits);
  b.add(c.misses);
  b.add(c.evictions);
  b.add(c.modeled_seconds_saved);
}

/// Every modeled number a session reports, for bit-equality checks.
Bits stats_bits(const StreamReport& rep) {
  const StreamStats& st = rep.stats;
  Bits b;
  for (const std::size_t v :
       {st.completed, st.rejected, st.failed, st.retries,
        st.redispatched_batches, st.faults_injected, st.batches})
    b.add(v);
  for (const double v :
       {st.retry_wait_p99_seconds, st.mean_batch_size, st.makespan_seconds,
        st.throughput_fps, st.queue_wait_p50_seconds,
        st.queue_wait_p90_seconds, st.queue_wait_p99_seconds,
        st.e2e_p50_seconds, st.e2e_p90_seconds, st.e2e_p99_seconds,
        st.mean_service_seconds})
    b.add(v);
  add_bits(b, st.aggregate);
  add_bits(b, st.map_cache);
  for (const ModelStats& m : st.per_model) {
    for (const std::size_t v : {m.completed, m.failed, m.retries, m.rejected,
                                m.cache_hits, m.cache_lookups})
      b.add(v);
    for (const double v : {m.queue_wait_p50_seconds, m.queue_wait_p90_seconds,
                           m.e2e_p50_seconds, m.e2e_p90_seconds,
                           m.e2e_p99_seconds})
      b.add(v);
  }
  for (const DeviceShardStats& d : st.per_device) {
    b.add(d.batches);
    b.add(d.requests);
    b.add(d.busy_seconds);
    b.add(d.free_seconds);
    b.add(d.utilization);
    add_bits(b, d.map_cache);
  }
  for (const StreamResult& r : rep.requests) {
    b.add(r.finish_seconds);
    b.add(r.e2e_seconds);
    b.add(r.device);
    b.add(r.batch_id);
    b.add(static_cast<int>(r.error));
  }
  return b;
}

/// Accounting checks: every submission is completed, failed or
/// rejected; every admitted handle resolves with its own result; the
/// per-model entries sum to the totals. Failed and rejected requests
/// count as failed operations.
void check_session(const Session& ses, Report& r, const std::string& tag) {
  const StreamStats& st = ses.report.stats;
  const std::size_t submitted = ses.handles.size();
  std::size_t ok = 0, errors = 0, rejected = 0;
  bool resolved = true;
  for (const std::optional<StreamHandle>& h : ses.handles) {
    if (!h) {
      ++rejected;
      continue;
    }
    if (!h->ready()) {
      resolved = false;
      continue;
    }
    try {
      const StreamResult& res = h->get();
      resolved = resolved && res.id == h->id();
      (res.ok() ? ok : errors) += 1;
    } catch (const std::exception&) {
      resolved = false;
    }
  }
  std::size_t model_completed = 0, model_failed = 0, model_rejected = 0;
  for (const ModelStats& m : st.per_model) {
    model_completed += m.completed;
    model_failed += m.failed;
    model_rejected += m.rejected;
  }
  r.check(tag + ".accounted",
          st.completed + st.failed + st.rejected == submitted &&
              rejected == st.rejected,
          std::to_string(st.completed) + "+" + std::to_string(st.failed) +
              "+" + std::to_string(st.rejected) + "/" +
              std::to_string(submitted));
  r.check(tag + ".handles_resolve",
          resolved && ok == st.completed && errors == st.failed);
  r.check(tag + ".per_model_sums", model_completed == st.completed &&
                                       model_failed == st.failed &&
                                       model_rejected == st.rejected);
  r.add_attempted(submitted);
  r.add_failed(st.failed + st.rejected);
}

double median_wait(const std::vector<StreamResult>& reqs, std::size_t from,
                   std::size_t to) {
  std::vector<double> waits;
  for (std::size_t i = from; i < to; ++i)
    if (reqs[i].ok()) waits.push_back(reqs[i].queue_wait_seconds);
  return median(waits);
}

/// The backlog grows when the median queue wait of the last quarter of
/// arrivals is more than twice that of the first quarter.
bool backlog_growing(const StreamReport& rep) {
  const std::size_t n = rep.requests.size();
  const double first = median_wait(rep.requests, 0, n / 4);
  const double last = median_wait(rep.requests, n - n / 4, n);
  return last > 2.0 * first;
}

double slo_attainment(const Session& ses, double limit) {
  std::size_t met = 0;
  for (const StreamResult& r : ses.report.requests)
    met += r.ok() && r.e2e_seconds <= limit;
  return static_cast<double>(met) / static_cast<double>(ses.handles.size());
}

void run_untraced(const Options& opt, Report& r) {
  Tracer off(false);
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    const double t0 = now_seconds();
    s = build_setup(opt, off);
    setup_s.push_back(now_seconds() - t0);
  }

  // One session per ladder rung, nominal first; then nominal again
  // while the run has time left, each repeat bit-equal to the first.
  std::vector<double> fps;
  std::array<std::optional<Session>, 3> rungs;
  const double start = now_seconds();
  const std::array<std::size_t, 3> order{kNominal, 0, 2};
  std::size_t done = 0;
  bool repeat_equal = true;
  std::size_t repeats = 0;
  while (fps.size() < kMinSessions || now_seconds() - start < opt.seconds) {
    const std::size_t rung = done < order.size() ? order[done] : kNominal;
    Session ses = serve_session(
        s, schedule(s, s.spec.ladder_hz[rung], opt.seed), kRequests, off);
    check_session(ses, r, "serve.rung" + std::to_string(rung));
    fps.push_back(static_cast<double>(ses.report.stats.completed) /
                  ses.host_seconds);
    if (done < order.size()) {
      rungs[rung] = std::move(ses);
      ++done;
    } else {
      ++repeats;
      repeat_equal = repeat_equal && stats_bits(ses.report) ==
                                         stats_bits(rungs[kNominal]->report);
    }
  }
  r.check("serve.repeat_sessions_bit_equal", repeat_equal,
          std::to_string(repeats) + "_repeats");

  const Session& nom = *rungs[kNominal];
  const StreamStats& st = nom.report.stats;
  std::printf("modeled digest: %s\n", stats_bits(nom.report).hex().c_str());
  double max_rate = 0;
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    const StreamStats& rs = rungs[k]->report.stats;
    const bool growing = backlog_growing(rungs[k]->report);
    const bool meets =
        rs.e2e_p90_seconds <= opt.latency_limit_seconds && !growing;
    std::printf("rung %.0f Hz: e2e p50 %.3f ms, p90 %.3f ms over %zu "
                "requests, backlog %s -> %s\n",
                s.spec.ladder_hz[k], rs.e2e_p50_seconds * 1e3,
                rs.e2e_p90_seconds * 1e3, rs.completed,
                growing ? "growing" : "steady", meets ? "meets" : "misses");
    if (meets) max_rate = s.spec.ladder_hz[k];
  }
  std::printf("input: %zu requests per session at scale %.2f, %.0f voxels "
              "per session, %zu sessions; latency limit %.1f ms\n",
              kRequests, kScale, nom.voxels, fps.size(),
              opt.latency_limit_seconds * 1e3);

  r.metric("host_fps", median(fps), "frames/s", Better::kHigher,
           Clock::kHost);
  r.metric("setup_s", median(setup_s), "s", Better::kLower, Clock::kHost);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower, Clock::kHost);
  r.fail_rate();
  r.metric("e2e_p50_ms", st.e2e_p50_seconds * 1e3, "ms", Better::kLower,
           Clock::kModeled);
  r.metric("e2e_p90_ms", st.e2e_p90_seconds * 1e3, "ms", Better::kLower,
           Clock::kModeled);
  std::printf("e2e percentiles over %zu completed requests (%zu beyond "
              "p90)\n",
              st.completed, st.completed - (st.completed * 9 + 9) / 10);
  r.metric("slo_attainment",
           slo_attainment(nom, opt.latency_limit_seconds), "fraction",
           Better::kHigher, Clock::kModeled);
  r.metric("max_rate_hz", max_rate, "Hz", Better::kHigher, Clock::kModeled);
}

void run_traced(const Options& opt, Tracer& tracer, Report& r) {
  Tracer off(false);
  Setup s;
  {
    Scope span(tracer, "bench.setup");
    s = build_setup(opt, tracer);
  }
  const std::vector<TimedSubmission> mix =
      schedule(s, s.spec.ladder_hz[kNominal], opt.seed);
  const Session plain = serve_session(s, mix, kRequests, off);
  check_session(plain, r, "serve.untraced");
  Tracer session_tracer(true);
  Session traced;
  {
    Scope span(tracer, "bench.session");
    traced = serve_session(s, mix, kRequests, session_tracer);
    tracer.append(session_tracer);
  }
  check_session(traced, r, "serve.traced");
  r.check("serve.traced_equals_untraced",
          stats_bits(plain.report) == stats_bits(traced.report));
  std::printf("modeled digest: %s\n", stats_bits(plain.report).hex().c_str());

  LayerWalk walk;
  L2Probe l2;
  double index_mb = 0;
  {
    Scope span(tracer, "bench.layer_probes");
    const SequenceTraceSpec seg = seg_trace(s.spec.warm);
    probe_data(seg.lidar, seg.voxels, opt.seed + 100, 4, tracer);
    if (!s.spec.warm) {
      const SequenceTraceSpec det = det_trace();
      probe_data(det.lidar, det.voxels, opt.seed + 200, 4, tracer);
    }
    // Requests are measured on the fleet's first device spec.
    const ServerConfig cfg = make_config(s);
    index_mb = probe_hash(s.unique_frames, tracer);
    walk = layer_walk(s.unique_frames, cfg.device, tracer);
    // L2 probe: the first four distinct frames of each model.
    for (std::size_t m = 0; m < s.models.size(); ++m) {
      std::vector<const SparseTensor*> frames;
      for (std::size_t k = 0; k < s.unique_frames.size() && frames.size() < 4;
           ++k)
        if (s.unique_model[k] == static_cast<int>(m))
          frames.push_back(s.unique_frames[k]);
      probe_l2(s.models[m].model, frames, cfg.device, cfg.engine,
               RunOptions{}, tracer, l2);
    }
  }
  r.check("core.kernel_map_invariants", walk.maps_consistent, walk.detail);

  const StreamStats& st = plain.report.stats;
  report_layer_metrics(r, tracer, s.unique_frames.size(),
                       plain.voxels / static_cast<double>(kRequests),
                       index_mb, walk, l2);
  report_timeline_metrics(r, st.aggregate, st.completed);
  const MapCacheStats wall = traced.wall_cache->stats();
  r.metric("core.map_cache_hit_rate", wall.hit_rate(), "fraction",
           Better::kHigher, Clock::kHost);
  r.metric("core.map_cache_evictions", static_cast<double>(wall.evictions),
           "count", Better::kLower, Clock::kHost);
  r.metric("core.map_build_s", wall.build_wall_seconds, "s", Better::kLower,
           Clock::kHost);
  r.metric("core.map_build_saved_s", wall.build_wall_seconds_saved, "s",
           Better::kHigher, Clock::kHost);
  r.metric("engines.host_us_per_voxel", plain.host_seconds / plain.voxels * 1e6,
           "us", Better::kLower, Clock::kHost);
  r.metric("serve.submit_us",
           session_tracer.mean_seconds("serve.submit_to") * 1e6, "us",
           Better::kLower, Clock::kHost);
  r.metric("serve.drain_s", session_tracer.total_seconds("serve.drain"), "s",
           Better::kLower, Clock::kHost);
  r.metric("serve.queue_wait_p50_ms", st.queue_wait_p50_seconds * 1e3, "ms",
           Better::kLower, Clock::kModeled);
  r.metric("serve.queue_wait_p90_ms", st.queue_wait_p90_seconds * 1e3, "ms",
           Better::kLower, Clock::kModeled);
  r.metric("serve.service_ms", st.mean_service_seconds * 1e3, "ms",
           Better::kLower, Clock::kModeled);
  r.metric("serve.mean_batch_size", st.mean_batch_size, "count",
           Better::kHigher, Clock::kModeled);
  r.metric("serve.batches", static_cast<double>(st.batches), "count",
           Better::kLower, Clock::kModeled);
  r.metric("serve.modeled_hit_rate", st.map_cache.hit_rate(), "fraction",
           Better::kHigher, Clock::kModeled);
  double util_min = 1, util_max = 0;
  for (const DeviceShardStats& d : st.per_device) {
    util_min = std::min(util_min, d.utilization);
    util_max = std::max(util_max, d.utilization);
  }
  r.metric("serve.device_util_min", util_min, "fraction", Better::kHigher,
           Clock::kModeled);
  r.metric("serve.device_util_max", util_max, "fraction", Better::kLower,
           Clock::kModeled);
  if (s.spec.warm) {
    r.metric("io.save_map_cache_ms",
             tracer.total_seconds("io.save_map_cache_file") * 1e3, "ms",
             Better::kLower, Clock::kHost);
    r.metric("io.load_map_cache_ms",
             tracer.total_seconds("io.load_map_cache_file") * 1e3, "ms",
             Better::kLower, Clock::kHost);
    r.metric("io.snapshot_mb", s.snapshot_mb, "MB", Better::kLower,
             Clock::kHost);
  } else {
    r.metric("serve.retries", static_cast<double>(st.retries), "count",
             Better::kLower, Clock::kModeled);
    r.metric("serve.redispatched_batches",
             static_cast<double>(st.redispatched_batches), "count",
             Better::kLower, Clock::kModeled);
    r.metric("serve.model_p90_ms.seg", st.per_model[0].e2e_p90_seconds * 1e3,
             "ms", Better::kLower, Clock::kModeled);
    r.metric("serve.model_p90_ms.det", st.per_model[1].e2e_p90_seconds * 1e3,
             "ms", Better::kLower, Clock::kModeled);
  }
  r.metric("trace.overhead_frac",
           traced.host_seconds / plain.host_seconds - 1.0, "fraction",
           Better::kLower, Clock::kHost);
}

}  // namespace

void run_serving(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.trace)
    run_traced(opt, tracer, report);
  else
    run_untraced(opt, report);
}

}  // namespace perfbench
