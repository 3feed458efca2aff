// Fixed-batch inference runtime (the serving-scale counterpart of
// engines/runner) and the modeled stream report types.
//
// BatchRunner::run shards a pre-collected vector of point clouds across
// worker threads and places them on a deterministic earliest-available-
// worker schedule. Streaming traffic — admission, batching, routing,
// incremental fulfillment — goes through serve::Server (server.hpp);
// the StreamResult / StreamBatchRecord / StreamStats / StreamReport
// types below are what a Server session reports.
//
// Every request gets its own ExecContext state and a private
// TensorCache (via fresh_input), so per-request results are
// bit-identical to a serial run_model loop — concurrency changes wall
// time, never outputs. Tuned grouping parameters arrive through
// RunOptions, typically from a TunedParamStore shared by all workers. A
// pool-owned cross-request KernelMapCache (BatchOptions::
// map_cache_bytes) lets near-duplicate scans reuse each other's kernel
// maps: outputs stay bit-identical, and modeled stats use a
// deterministic submission-order replay so they remain independent of
// worker count (docs/PERFORMANCE.md).
//
// Because layer runtimes are produced by the device cost model rather
// than wall clocks, all serving statistics are also modeled: arrivals,
// batch dispatch times, lane assignment, and completion times live on a
// deterministic modeled clock, so throughput and latency percentiles are
// reproducible across runs and machines regardless of thread
// interleaving.
#pragma once

#include <cstddef>
#include <vector>

#include "engines/runner.hpp"
#include "serve/device_group.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_stats.hpp"

namespace ts::serve {

struct BatchOptions {
  int workers = 1;  // worker threads (and schedule lanes); clamped to >= 1
  RunOptions run;   // shared per-request options (numerics, tuned params)
  /// Byte budget for a pool-owned cross-request KernelMapCache (0 =
  /// disabled). Near-duplicate scans in a stream then reuse each other's
  /// kernel maps and downsampled coordinate sets: results stay
  /// bit-identical to the cold path, map-build wall time is skipped on
  /// hits, and the modeled mapping charge is replaced by a small re-key
  /// cost via a deterministic submission-order replay (worker-count
  /// independent). Ignored when run.map_cache is already set (pools can
  /// share one cache that way — and a deployment can persist one across
  /// restarts through KernelMapCache::save_snapshot / ServerConfig::
  /// warm_start; BatchRunner::run always starts cold).
  std::size_t map_cache_bytes = 0;
};

/// One request's outcome on the fixed-batch path: the modeled timeline
/// plus its slot in the deterministic schedule.
struct RequestResult {
  std::size_t index = 0;       // position in the input batch
  Timeline timeline;           // identical to serial run_model on input[i]
  double service_seconds = 0;  // modeled single-request runtime
  double start_seconds = 0;    // modeled dispatch time
  double finish_seconds = 0;   // start + service (completion latency)
};

struct BatchStats {
  std::size_t requests = 0;
  int workers = 1;
  double makespan_seconds = 0;    // modeled time to drain the batch
  double throughput_fps = 0;      // requests / makespan
  double latency_p50_seconds = 0; // completion-latency percentiles
  double latency_p90_seconds = 0;
  double latency_p99_seconds = 0;
  double mean_service_seconds = 0;
  Timeline aggregate;             // sum of all request timelines
  /// Deterministic (submission-order replay) kernel-map cache outcome;
  /// zeros when the cache is disabled.
  MapCacheReplayStats map_cache;
};

struct BatchReport {
  std::vector<RequestResult> requests;  // in input order
  BatchStats stats;
};

/// Places already-measured requests (arrival order = vector order) on the
/// deterministic earliest-available-worker schedule, filling each entry's
/// start/finish, and returns the batch statistics. Used by
/// BatchRunner::run and by sweeps that reuse one set of request timelines
/// across many (batch size, worker count) schedule configurations.
BatchStats schedule_stats(std::vector<RequestResult>& requests, int workers);

/// One dispatched batch's slot in the modeled schedule.
struct StreamBatchRecord {
  std::size_t batch_id = 0;
  std::size_t first = 0;          // first request id in the batch
  std::size_t size = 0;
  double dispatch_seconds = 0;    // when the batcher released it
  double start_seconds = 0;       // max(dispatch, lane free) on its lane
  double finish_seconds = 0;      // last member's completion
  int lane = 0;                   // worker lane it ran on (within device)
  int device = 0;                 // device shard it was routed to
  /// Registry index of the model the whole batch ran under (batches
  /// never mix models; 0 on single-model streams).
  int model = 0;
  /// Placement attempts this batch took (1 = no shard failure ever
  /// touched it; > 1 = redispatched after fault losses). The record
  /// describes the attempt that finally served the batch.
  int attempts = 1;
};

struct StreamStats {
  std::size_t completed = 0;
  std::size_t rejected = 0;        // admission-control rejections
  /// Requests admitted but not served: resolved with a ServeErrorCode
  /// (retries exhausted, no healthy device, deadline-hopeless shed).
  /// Always 0 without a FaultPlan.
  std::size_t failed = 0;
  /// Sum of per-request (attempts - 1) over served requests — every
  /// extra placement attempt a fault forced.
  std::size_t retries = 0;
  /// Batches that were re-placed at least once after a shard failure.
  std::size_t redispatched_batches = 0;
  /// Fault activations the injector applied during the stream.
  std::size_t faults_injected = 0;
  /// p99 of the modeled redispatch penalty (final placement start minus
  /// first-attempt placement start, on the worker-invariant shadow
  /// clock) over requests that retried; 0 when none did.
  double retry_wait_p99_seconds = 0;
  std::size_t batches = 0;
  double mean_batch_size = 0;
  int workers = 1;
  double makespan_seconds = 0;     // last finish - first arrival
  double throughput_fps = 0;       // completed / makespan
  double queue_wait_p50_seconds = 0;  // arrival -> batch-execution-start
  double queue_wait_p90_seconds = 0;  //   percentiles (the SLO-bounded
  double queue_wait_p99_seconds = 0;  //   quantity; see StreamResult)
  double e2e_p50_seconds = 0;         // finish - arrival percentiles
  double e2e_p90_seconds = 0;
  double e2e_p99_seconds = 0;
  double mean_service_seconds = 0;
  Timeline aggregate;              // sum of all request timelines
  /// Per-priority-class latency percentiles (size kNumPriorityClasses,
  /// indexed by static_cast<int>(Priority); zero counts for classes
  /// that saw no traffic). Single-class streams put everything in the
  /// submitting class's entry.
  std::vector<PriorityClassStats> per_class;
  /// Per-model modeled outcome (size == the session's registry size; 1
  /// on single-model streams, where entry 0 mirrors the stream totals).
  /// Latency percentiles, admission rejections, and namespaced cache
  /// warmth per model — the tenant-facing view of a shared fleet.
  std::vector<ModelStats> per_model;
  /// Deterministic (submission-order replay) kernel-map cache outcome
  /// summed over all device shards; zeros when the cache is disabled.
  MapCacheReplayStats map_cache;
  /// Device shards the stream was served on (1 = unsharded).
  int devices = 1;
  /// Per-device modeled outcome (size == devices): routed batch/request
  /// counts, busy/free clocks, utilization, and the shard's own
  /// kernel-map cache accounting. Deterministic and worker-count
  /// independent, like every other modeled stat.
  std::vector<DeviceShardStats> per_device;
};

struct StreamReport {
  std::vector<StreamResult> requests;       // in submission order
  std::vector<StreamBatchRecord> batches;   // in dispatch order
  StreamStats stats;
};

class BatchRunner {
 public:
  /// `opt.workers` is clamped to >= 1.
  BatchRunner(DeviceSpec dev, EngineConfig cfg, BatchOptions opt = {});

  /// Runs every input through `model` on the worker pool and returns the
  /// per-request results plus batch statistics. The model must be safe to
  /// invoke concurrently with distinct contexts (all spnn modules are:
  /// forward passes only read weights and mutate the per-call context).
  /// Exception guarantee: the first per-request failure is rethrown after
  /// the pool drains; no partial report escapes.
  BatchReport run(const ModelFn& model,
                  const std::vector<SparseTensor>& inputs) const;

  const BatchOptions& options() const { return opt_; }

  /// The pool's cross-request kernel-map cache (null when disabled).
  /// Exposes wall-clock-side observability: hit rate, bytes pinned,
  /// build seconds saved.
  const std::shared_ptr<KernelMapCache>& map_cache() const {
    return opt_.run.map_cache;
  }

 private:
  DeviceSpec dev_;
  EngineConfig cfg_;
  BatchOptions opt_;
};

}  // namespace ts::serve
