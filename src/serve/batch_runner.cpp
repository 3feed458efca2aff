#include "serve/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "core/sync.hpp"
#include "serve/serve_stats.hpp"

namespace ts::serve {

namespace {

/// First worker failure, latched under its own lock; later failures in
/// the pool lose the race and are dropped (the batch already aborted).
struct ErrorSlot {
  Mutex mu;
  std::exception_ptr first TS_GUARDED_BY(mu);
};

}  // namespace

BatchStats schedule_stats(std::vector<RequestResult>& requests,
                          int workers) {
  BatchStats s;
  s.workers = std::max(workers, 1);
  s.requests = requests.size();
  if (requests.empty()) return s;

  std::vector<double> lane(static_cast<std::size_t>(s.workers), 0.0);
  std::vector<double> finishes;
  finishes.reserve(requests.size());
  double sum_service = 0;
  for (RequestResult& r : requests) {
    auto it = std::min_element(lane.begin(), lane.end());
    r.start_seconds = *it;
    r.finish_seconds = r.start_seconds + r.service_seconds;
    *it = r.finish_seconds;
    finishes.push_back(r.finish_seconds);
    sum_service += r.service_seconds;
    s.aggregate += r.timeline;
  }

  s.makespan_seconds = *std::max_element(lane.begin(), lane.end());
  s.throughput_fps =
      s.makespan_seconds > 0
          ? static_cast<double>(requests.size()) / s.makespan_seconds
          : 0.0;
  s.mean_service_seconds =
      sum_service / static_cast<double>(requests.size());
  std::sort(finishes.begin(), finishes.end());
  s.latency_p50_seconds = percentile(finishes, 0.50);
  s.latency_p90_seconds = percentile(finishes, 0.90);
  s.latency_p99_seconds = percentile(finishes, 0.99);
  return s;
}

BatchRunner::BatchRunner(DeviceSpec dev, EngineConfig cfg, BatchOptions opt)
    : dev_(std::move(dev)), cfg_(std::move(cfg)), opt_(std::move(opt)) {
  opt_.workers = std::max(opt_.workers, 1);
  if (!opt_.run.map_cache && opt_.map_cache_bytes > 0)
    opt_.run.map_cache =
        std::make_shared<KernelMapCache>(opt_.map_cache_bytes);
}

BatchReport BatchRunner::run(const ModelFn& model,
                             const std::vector<SparseTensor>& inputs) const {
  BatchReport report;
  report.stats.workers = opt_.workers;
  report.stats.requests = inputs.size();
  if (inputs.empty()) return report;

  report.requests.resize(inputs.size());

  // Execute: workers pull the next un-served request off a shared ticket
  // counter. Contexts and tensor caches are per-request, so interleaving
  // cannot leak state between requests; the shared kernel-map cache uses
  // deferred accounting (events below) so modeled stats cannot depend on
  // which worker warmed an entry first.
  const bool cached = static_cast<bool>(opt_.run.map_cache);
  std::vector<std::vector<MapCacheEvent>> events(cached ? inputs.size() : 0);
  std::atomic<std::size_t> next{0};
  ErrorSlot error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= inputs.size()) return;
      try {
        ExecContext ctx = make_run_context(dev_, cfg_, opt_.run);
        if (cached) ctx.cache_events = &events[i];
        RequestResult& r = report.requests[i];
        r.index = i;
        r.timeline = run_in_context(model, inputs[i], ctx);
        r.service_seconds = r.timeline.total_seconds();
      } catch (...) {
        MutexLock lock(error.mu);
        if (!error.first) error.first = std::current_exception();
        next.store(inputs.size());  // drain remaining tickets
        return;
      }
    }
  };

  const int pool =
      std::min<std::size_t>(static_cast<std::size_t>(opt_.workers),
                            inputs.size());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(pool));
  for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  std::exception_ptr failure;
  {
    // The joins above made any worker write visible, but the field is
    // still guarded: take the (now uncontended) lock to read it.
    MutexLock lock(error.mu);
    failure = error.first;
  }
  if (failure) std::rethrow_exception(failure);

  // Deterministic kernel-map cache accounting: replay the recorded cache
  // resolutions in input order, swapping cold charges for warm ones
  // wherever a sequential pass would have hit.
  MapCacheReplayStats cache_stats;
  if (cached) {
    MapCacheReplay replay(opt_.run.map_cache->byte_budget());
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
      RequestResult& r = report.requests[i];
      replay.apply(events[i], r.timeline);
      r.service_seconds = r.timeline.total_seconds();
    }
    cache_stats = replay.stats();
  }

  // Deterministic modeled schedule: requests arrive in input order and go
  // to the earliest-available worker lane. With modeled (not wall-clock)
  // service times this makes every statistic reproducible.
  report.stats = schedule_stats(report.requests, opt_.workers);
  report.stats.map_cache = cache_stats;
  return report;
}

}  // namespace ts::serve
