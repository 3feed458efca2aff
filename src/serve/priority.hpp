// Priority classes for the serving runtime.
//
// A serving deployment rarely has one traffic class: interactive
// perception requests share the fleet with best-effort backfill
// (re-processing, evaluation sweeps) and everything in between. A
// Priority tags each submitted request with its class; the admission
// queue and the default batching policy then implement strict priority
// with optional aging (serve_policies.hpp): higher classes always win
// batch slots, and aging promotes a waiting request one class per
// configured interval so sustained high-class overload cannot starve
// the classes below it.
//
// Like every other serving decision, priority scheduling runs on the
// modeled clock over modeled arrival stamps, so class outcomes (per-class
// latency percentiles in StreamStats::per_class) are deterministic and
// independent of worker or device count.
#pragma once

#include <cmath>
#include <limits>

namespace ts::serve {

/// Request priority class. Smaller enum value = more urgent. The
/// numeric values index StreamStats::per_class.
enum class Priority {
  kHigh = 0,    // interactive / safety-critical traffic
  kNormal = 1,  // default class of submissions that name none
  kLow = 2,     // best-effort backfill
};

inline constexpr int kNumPriorityClasses = 3;

const char* to_string(Priority p);

/// Knobs of the strict-priority-plus-aging discipline used by the
/// default batching policy (SloBatchingPolicy) wherever requests of
/// several classes are pending at once.
struct PriorityOptions {
  /// Aging interval: a pending request is promoted one priority class
  /// for every `aging_seconds` of modeled batcher wait, so a low-class
  /// request eventually outranks freshly arrived high-class traffic
  /// (promoted requests win ties by arrival stamp). Must be > 0; the
  /// default (infinity) disables aging — strict priority, where
  /// sustained higher-class overload may starve lower classes until
  /// end of stream.
  double aging_seconds = std::numeric_limits<double>::infinity();

  bool aging_enabled() const { return std::isfinite(aging_seconds); }
};

}  // namespace ts::serve
