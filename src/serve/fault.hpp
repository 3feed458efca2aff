// Deterministic fault injection for the serving stack.
//
// Production fleets lose devices: hardware crashes take a shard (and
// its kernel-map cache) out permanently until a replacement arrives,
// driver hangs stall a shard for seconds, thermal throttling slows one
// down. Tangram (PAPERS.md) treats exactly this churn as the normal
// case and leans on warm state to make re-placement cheap; this module
// brings that failure model onto the repo's modeled clock so every
// scenario replays bit-identically.
//
// The model is data-driven: a FaultPlan is a schedule of DeviceFault
// events, each keyed to a modeled timestamp or to a dispatch index
// ("when the Nth batch dispatches"), and a FaultInjector turns the plan
// into a deterministic event stream the scheduler consumes in stamp
// order. Three fault kinds:
//
//  * kCrash    — the shard goes DOWN and its modeled cache contents are
//                lost. duration_seconds is the time-to-replacement; a
//                finite duration brings up a *replacement* shard (fresh
//                cache, warm-seeded from the group's snapshot manifest
//                when one is installed), infinity retires the shard for
//                the rest of the stream.
//  * kStall    — the shard goes DOWN for a finite duration_seconds and
//                then returns with its cache intact (driver hang, net
//                partition). In-flight batches are lost either way.
//  * kSlowdown — the shard stays up but DEGRADED: modeled service times
//                on it are multiplied by slowdown_factor for
//                duration_seconds (thermal throttling, noisy neighbor).
//
// Shard health is UP / DEGRADED / DOWN / PROBATION. PROBATION is the
// configurable reinstatement window after an outage ends: the shard is
// routable again but its service estimates carry probation_factor, so
// health-aware routing ramps traffic back instead of slamming the
// recovered shard.
//
// Determinism contract: the injector consumes only modeled stamps and
// dispatch indices — both worker-count invariant — so which batches a
// fault kills, every retry, and every health transition are identical
// across runs, machines, and worker counts. An empty plan injects
// nothing and the serving stack is pinned bit-identical to the
// fault-free build (tests/test_fault.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <vector>

#include "serve/priority.hpp"

namespace ts::serve {

enum class FaultKind {
  kCrash,     // shard DOWN, cache lost; finite duration = replacement
  kStall,     // shard DOWN for a finite window, cache survives
  kSlowdown,  // shard DEGRADED: service x slowdown_factor for a window
};

const char* to_string(FaultKind k);

/// Shard health as the routing layer sees it (DeviceGroup::health).
enum class ShardHealth {
  kUp,         // healthy; service factor 1
  kDegraded,   // serving, but slowed by an active kSlowdown fault
  kDown,       // not routable: active kCrash/kStall outage
  kProbation,  // recently reinstated; discounted by probation_factor
};

const char* to_string(ShardHealth h);

/// One scheduled fault. Triggered by modeled time (`at_seconds`) by
/// default; set `at_dispatch >= 0` to trigger at the moment batch
/// #at_dispatch (0-based dispatch order) is dispatched instead — the
/// stamp is then that batch's dispatch time, and the batch itself
/// already sees the fault (it routes around a downed shard).
struct DeviceFault {
  int device = 0;
  FaultKind kind = FaultKind::kCrash;
  double at_seconds = 0;
  long long at_dispatch = -1;
  /// Outage length (kCrash: time-to-replacement, infinity = retired;
  /// kStall: must be finite) or degradation window (kSlowdown).
  double duration_seconds = std::numeric_limits<double>::infinity();
  /// kSlowdown only: modeled service multiplier while degraded (>= 1).
  double slowdown_factor = 1.0;
};

/// A deterministic schedule of device faults. Order within the vector
/// is the tie-break for events landing on the same stamp.
struct FaultPlan {
  std::vector<DeviceFault> faults;
};

/// Retry / degradation knobs of the fault-tolerant scheduler.
struct FaultToleranceOptions {
  /// Total placement attempts per batch (first dispatch included).
  /// A batch lost to its max_attempts-th shard failure resolves every
  /// member with ServeErrorCode::kRetriesExhausted.
  int max_attempts = 3;
  /// Modeled exponential backoff: retry n (n >= 2) re-dispatches
  /// retry_backoff_seconds * 2^(n-2) after the loss. 0 = immediate.
  double retry_backoff_seconds = 0.0005;
  /// Reinstatement window after an outage ends; 0 disables PROBATION.
  double probation_seconds = 0;
  /// Service multiplier applied while a shard is on PROBATION (>= 1).
  double probation_factor = 1.5;
  /// Graceful degradation, per priority class: a request whose batch
  /// would start executing more than this many modeled seconds after
  /// its arrival is shed with ServeErrorCode::kDeadlineHopeless instead
  /// of being placed. Infinity (the default) never sheds — set finite
  /// budgets on the low classes so survivors' capacity goes to the
  /// classes whose p99 matters.
  std::array<double, kNumPriorityClasses> degrade_deadline_seconds =
      unbounded_deadlines();

  static constexpr std::array<double, kNumPriorityClasses>
  unbounded_deadlines() {
    std::array<double, kNumPriorityClasses> a{};
    for (double& v : a) v = std::numeric_limits<double>::infinity();
    return a;
  }
};

/// Validates a plan against a fleet size (std::invalid_argument, with
/// the offending fault's index named): device in [0, devices), trigger
/// stamps finite and >= 0, stall durations finite > 0, crash/slowdown
/// durations > 0, slowdown factors finite >= 1.
void validate_fault_plan(const FaultPlan& plan, int devices);

/// Validates the tolerance knobs (std::invalid_argument): max_attempts
/// >= 1, backoff/probation windows finite >= 0, probation_factor finite
/// >= 1, degrade deadlines >= 0 (infinity allowed, NaN rejected).
void validate_fault_tolerance(const FaultToleranceOptions& opt);

/// One injector event, in stamp order: a fault activating or an outage
/// ending. Recoveries sort before activations on equal stamps (a shard
/// coming back at t is routable to a fault landing at t).
struct FaultEvent {
  enum class Type { kRecovery, kActivation };
  Type type = Type::kActivation;
  double stamp = 0;
  int device = 0;
  FaultKind kind = FaultKind::kCrash;  // activating fault / ended outage
  /// Recovery from a crash: the shard returns as a *replacement* (fresh
  /// cache, warm-seeded when the group has a snapshot manifest), not
  /// the stalled original.
  bool replacement = false;
};

/// Turns a FaultPlan into the deterministic event stream the scheduler
/// consumes, and answers the health/vulnerability queries routing and
/// deferred finalization need. Single-threaded, driven from inside the
/// scheduling pass; DeviceGroup holds a const view for health queries.
///
/// The injector's clock (`frontier`) only moves forward, advanced by
/// the scheduler to each processed stamp; health is always evaluated
/// at the frontier.
class FaultInjector {
 public:
  /// Validates plan and options (see validate_*); copies both.
  FaultInjector(const FaultPlan& plan, const FaultToleranceOptions& opt,
                int devices);

  /// Back to the pre-stream state: nothing activated, every shard UP,
  /// frontier at 0. Call per schedule pass when reusing an injector.
  void reset();

  int devices() const { return static_cast<int>(shards_.size()); }
  /// False for an injector built from an empty plan: it never changes
  /// any shard's health.
  bool has_faults() const { return !entries_.empty(); }
  const FaultToleranceOptions& options() const { return opt_; }

  /// Pops the earliest due event with stamp <= limit_seconds, applying
  /// its health transition and advancing the frontier to its stamp.
  /// Dispatch-indexed faults with at_dispatch <= dispatch_index are due
  /// at index_stamp (the current batch's dispatch time). Events order
  /// by (stamp, recovery-before-activation, plan position). Returns
  /// false when nothing is due.
  bool pop_event(double limit_seconds, long long dispatch_index,
                 double index_stamp, FaultEvent* out);

  /// Advances the frontier (monotone; earlier stamps are ignored).
  void advance(double now_seconds);

  /// End of dispatching: dispatch-indexed faults whose batch never
  /// dispatched are dropped (they can no longer trigger).
  void end_of_plan();

  /// Earliest pending time-triggered activation or recovery stamp;
  /// infinity when none remain. Drives the end-of-stream drain loop.
  double next_event_stamp() const;

  ShardHealth health(int device) const;

  /// Service multiplier at the frontier: slowdown_factor while
  /// DEGRADED, probation_factor while on PROBATION, otherwise 1.
  double service_factor(int device) const;

  /// Earliest stamp at which any currently-DOWN shard recovers;
  /// infinity when every outage is permanent (or no shard is down).
  double earliest_recovery() const;

  /// True while at least one shard is not DOWN.
  bool any_routable() const;

  /// Deferred-finalization query: can a batch on `device` finishing at
  /// `finish_seconds` (on the worker-invariant shadow clock) still be
  /// lost? True while an unactivated crash/stall on the device could
  /// activate strictly before that finish — a time trigger before it,
  /// or any dispatch-indexed trigger while the frontier has not reached
  /// it (future dispatch stamps are >= the frontier).
  bool vulnerable(int device, double finish_seconds) const;

  /// Fault activations applied so far (StreamStats::faults_injected).
  std::size_t activations() const { return activations_; }

  double frontier() const { return frontier_; }

 private:
  struct Entry {
    DeviceFault fault;
    bool spent = false;  // activated, or dropped by end_of_plan
  };
  struct ShardState {
    double down_until = 0;       // DOWN while frontier < down_until
    double degraded_until = 0;   // DEGRADED while frontier < degraded_until
    double probation_until = 0;  // PROBATION while frontier < probation_until
    double slowdown = 1.0;       // active kSlowdown factor
    bool crashed = false;        // current outage loses the cache
    bool recovery_pending = false;
  };

  const ShardState& shard_at(int device) const;

  FaultToleranceOptions opt_;
  std::vector<Entry> entries_;
  std::vector<ShardState> shards_;
  double frontier_ = 0;
  std::size_t activations_ = 0;
};

}  // namespace ts::serve
