// Shared statistics helpers for the serving layer's modeled reports.
//
// Every serve-side percentile (fixed-batch completion latency, streaming
// queue wait and e2e) goes through one audited nearest-rank
// implementation rather than per-call-site copies, so edge behavior
// (q = 0, q = 1, single-sample inputs) is defined — and unit-tested —
// in exactly one place (tests/test_serve.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "serve/priority.hpp"

namespace ts::serve {

/// The modeled outcome of one slice of a served stream — a priority
/// class or a model: served and failed counts, fault retries, and
/// queue-wait / end-to-end percentiles over the slice's own requests
/// (zeros when the slice saw no traffic). Deterministic and worker-count
/// invariant like every other modeled serve statistic.
struct LatencySummary {
  std::size_t completed = 0;
  /// Admitted-but-failed requests (typed ServeErrorCode results:
  /// retries exhausted, no healthy device, deadline shed).
  std::size_t failed = 0;
  /// Extra placement attempts fault losses forced on the slice's served
  /// requests (sum of attempts - 1).
  std::size_t retries = 0;
  double queue_wait_p50_seconds = 0;
  double queue_wait_p90_seconds = 0;
  double queue_wait_p99_seconds = 0;
  double e2e_p50_seconds = 0;
  double e2e_p90_seconds = 0;
  double e2e_p99_seconds = 0;
};

/// One priority class's outcome (StreamStats::per_class).
struct PriorityClassStats : LatencySummary {
  Priority priority = Priority::kNormal;
};

/// One model's outcome (StreamStats::per_model), extended with the
/// admission and cache-warmth counters a multi-model operator watches
/// per tenant.
struct ModelStats : LatencySummary {
  /// Registry index this entry describes (position in per_model).
  int model = 0;
  /// Admission-control rejections of this model's submissions
  /// (RequestQueue::rejected_by_model).
  std::size_t rejected = 0;
  /// Deterministic kernel-map cache outcome over this model's requests:
  /// warm lookups vs all lookups under the submission-order replay.
  /// Namespaced digests make these counters tenant-true — another
  /// model's identical input can never inflate a model's warm hits.
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
};

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// Definition: the smallest element whose rank r (1-based) satisfies
/// r >= q * n, i.e. sorted[max(ceil(q * n), 1) - 1]. Consequences the
/// call sites rely on:
///  * q = 0 returns the minimum (rank clamps up to 1);
///  * q = 1 returns the maximum (rank n, never past the end);
///  * a single-sample input returns that sample for every q;
///  * an empty sample returns 0.0 (there is nothing to report).
/// Preconditions (std::invalid_argument): q is finite and within
/// [0, 1]; `sorted` must already be ascending (not validated — callers
/// sort once and query three percentiles).
double percentile(const std::vector<double>& sorted, double q);

}  // namespace ts::serve
