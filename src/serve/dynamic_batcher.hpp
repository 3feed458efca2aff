// Single-class reference batcher: the SLO deadline rule in its
// simplest form, kept as the specification the production batching
// policies are tested against. No serving path runs it.
//
// The paper's end-to-end wins come from amortizing work — kernel-map
// construction, tuned matmul grouping, kernel-launch setup — across a
// batch. At serving time that creates the classic tension: larger
// dispatch batches amortize better (throughput), but the first request of
// a batch pays the wait while the batch fills (latency). A DynamicBatcher
// resolves it with a deadline rule: dispatch when `max_batch` requests
// are pending, or the moment the *oldest* pending request's queue-wait
// budget (`slo_budget_seconds`) would be spent — whichever comes first.
//
// The batcher is an online state machine over modeled arrival stamps
// (monotone, from RequestQueue). It never consults a wall clock, so the
// batch boundaries — and therefore every downstream latency statistic —
// are identical across runs and machines. Batch membership depends only
// on arrivals and the policy, never on how fast the host happens to
// execute, which is what makes the SLO tests deterministic.
//
// serve::Server sessions run the priority-aware generalization of this
// rule (SloBatchingPolicy, serve_policies.hpp). On single-class streams
// it must reproduce DynamicBatcher batch-for-batch and stamp-for-stamp
// (SloBatchingPolicy.SingleClassPlanMatchesDynamicBatcher). BatcherOptions,
// the knobs both are configured by, lives here.
#pragma once

#include <cstddef>
#include <vector>

namespace ts::serve {

/// Dispatch policies for the Fig. 15 sweep.
enum class BatchPolicy {
  kImmediate,  // every request is its own batch (latency-optimal)
  kFullBatch,  // wait for max_batch, flush remainder at end of stream
  kSloAware,   // max_batch OR oldest request's wait budget spent
};

const char* to_string(BatchPolicy p);

struct BatcherOptions {
  BatchPolicy policy = BatchPolicy::kSloAware;
  /// Dispatch as soon as this many requests are pending. Clamped to >= 1.
  int max_batch = 8;
  /// kSloAware only: maximum modeled time the oldest pending request may
  /// wait in the batcher before its batch dispatches. This is the queue-
  /// wait slice of the end-to-end SLO; must be >= 0 and finite.
  double slo_budget_seconds = 0.010;
};

/// One dispatch decision: requests [first, first + count) — in arrival
/// order — leave the batcher together at `dispatch_seconds` (modeled).
/// dispatch_seconds >= every member's arrival stamp.
struct PlannedBatch {
  std::size_t first = 0;
  std::size_t count = 0;
  double dispatch_seconds = 0;
};

/// Online batch former. Not thread-safe: it is owned and driven by the
/// single serving loop. Feed arrivals in non-decreasing modeled order via
/// on_arrival (std::invalid_argument otherwise) and terminate the stream
/// with flush().
class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatcherOptions opt);

  /// Feeds the next request's arrival stamp (requests are numbered in
  /// feed order). Returns every batch this arrival closes: a pending
  /// batch whose deadline passed strictly before `arrival_seconds`, and/
  /// or the batch the new request completes to max_batch.
  std::vector<PlannedBatch> on_arrival(double arrival_seconds);

  /// End of stream: the remaining partial batch (if any) dispatches at
  /// the last arrival stamp — close is modeled as instantaneous, so the
  /// batcher stops waiting for requests that can never come. Resets the
  /// batcher for reuse.
  std::vector<PlannedBatch> flush();

  /// Requests currently held back waiting for a dispatch trigger.
  std::size_t pending() const { return pending_count_; }

  const BatcherOptions& options() const { return opt_; }

  /// Convenience for offline sweeps (bench/fig15): plans a whole arrival
  /// trace at once — on_arrival over each stamp, then flush.
  static std::vector<PlannedBatch> plan(
      const std::vector<double>& arrivals, const BatcherOptions& opt);

 private:
  void close_pending(double dispatch_seconds,
                     std::vector<PlannedBatch>& out);

  BatcherOptions opt_;
  std::size_t next_index_ = 0;     // feed-order id of the next arrival
  std::size_t pending_first_ = 0;  // first request of the open batch
  std::size_t pending_count_ = 0;
  double oldest_arrival_ = 0;      // arrival of the open batch's head
  double last_arrival_ = 0;
};

}  // namespace ts::serve
