// Cross-feature property harness for serve::Server. Every combination of
// registry size (1-2 models), fault schedule (none, crash, stall,
// slowdown, crash + recovery), dedup batching, fleet shape (homogeneous,
// mixed tiers), built-in routing policy, and priority mix is served at 1
// and at 3 workers per device, and must satisfy the accounting
// invariants the serving layer promises:
//
//  * completed + failed + rejected = submitted;
//  * every handle resolves — with a value or with a typed ServeError;
//  * per-model and per-class counters sum to the stream totals;
//  * per-request device, attempts and error, and the modeled cache hits,
//    are identical at 1 and 3 workers;
//  * every request's timeline is bit-equal at 1 and 3 workers, and is
//    its (model, input)'s serial run_model timeline with a warm-hit
//    substitution for exactly the cache events that hit. The stream
//    submits duplicate pairs, so measurement coalescing joins each pair
//    in every one-model combination; two-model combinations split each
//    pair across tenants, which coalescing must never join.
//
// Written against the Server entry point only (with_model + with_fleet +
// with_routing_policy + start/submit_to/drain), so it guards any
// refactor of the scheduling internals underneath it.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "serve/fault.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"

namespace ts {
namespace {

constexpr int kRequests = 10;

SparseTensor random_tensor(int n, int extent, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(static_cast<std::size_t>(n), 4);
  return SparseTensor(std::move(coords), std::move(feats));
}

/// Request i's input: duplicate pairs (u0 u0 u1 u1 ...) so dedup, the
/// cache and measurement coalescing all engage.
SparseTensor combo_input(int i) {
  return random_tensor(60, 10, 500 + static_cast<uint64_t>(i / 2));
}

ModelFn tiny_net(uint64_t seed) {
  spnn::BuildContext b(seed);
  auto net = std::make_shared<spnn::Sequential>();
  net->emplace<spnn::ConvBlock>(4, 8, 3, 1, false, b);
  net->emplace<spnn::ConvBlock>(8, 8, 2, 2, false, b);
  return [net](const SparseTensor& x, ExecContext& ctx) {
    net->forward(x, ctx);
  };
}

enum class FaultCase { kNone, kCrash, kStall, kSlowdown, kCrashRecovery };

const char* to_string(FaultCase f) {
  switch (f) {
    case FaultCase::kNone: return "none";
    case FaultCase::kCrash: return "crash";
    case FaultCase::kStall: return "stall";
    case FaultCase::kSlowdown: return "slowdown";
    case FaultCase::kCrashRecovery: return "crash_recovery";
  }
  return "?";
}

/// One fault on device 1, triggered when the third batch dispatches.
serve::FaultPlan fault_plan(FaultCase f) {
  serve::DeviceFault fault{1, serve::FaultKind::kCrash};
  fault.at_dispatch = 2;
  switch (f) {
    case FaultCase::kNone: return {};
    case FaultCase::kCrash: break;
    case FaultCase::kStall:
      fault.kind = serve::FaultKind::kStall;
      fault.duration_seconds = 0.002;
      break;
    case FaultCase::kSlowdown:
      fault.kind = serve::FaultKind::kSlowdown;
      fault.duration_seconds = 0.005;
      fault.slowdown_factor = 3.0;
      break;
    case FaultCase::kCrashRecovery:
      fault.duration_seconds = 0.002;
      break;
  }
  return serve::FaultPlan{{fault}};
}

using Combo = std::tuple<int /*models*/, FaultCase, bool /*dedup*/,
                         bool /*mixed fleet*/, serve::RoutePolicy,
                         bool /*priority mix*/>;

struct Session {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::vector<serve::StreamResult> resolved;  // via the handles
  serve::StreamReport report;
};

Session serve_combo(const Combo& combo, int workers) {
  const auto [models, fault, dedup, mixed, route, priorities] = combo;
  serve::ServerConfig cfg;
  cfg.with_engine(torchsparse_config())
      .with_workers(workers)
      .with_queue_depth(kRequests + 1)
      .with_map_cache_bytes(std::size_t(16) << 20)
      .with_dedup_batching(dedup)
      .with_routing_policy(serve::make_routing_policy(route));
  if (mixed)
    cfg.with_fleet({{gtx1080ti(), 1}, {rtx3090(), 1}});
  else
    cfg.with_fleet({{rtx2080ti(), 2}});
  serve::BatcherOptions b;
  b.max_batch = 2;
  b.slo_budget_seconds = 0.001;
  cfg.with_batcher(b);
  for (int m = 0; m < models; ++m)
    cfg.with_model("m" + std::to_string(m),
                   tiny_net(100 + static_cast<uint64_t>(m)));
  if (fault != FaultCase::kNone) cfg.with_fault_plan(fault_plan(fault));
  if (priorities) {
    // Low-class requests whose batch would start this late are shed:
    // a fault-only lever, so a fault-free session must never shed.
    serve::FaultToleranceOptions tol;
    tol.degrade_deadline_seconds[static_cast<int>(serve::Priority::kLow)] =
        1e-4;
    cfg.with_fault_tolerance(tol);
  }

  serve::Server server(cfg);
  Session s;
  std::vector<serve::StreamHandle> handles;
  server.start();
  for (int i = 0; i < kRequests; ++i) {
    SparseTensor x = combo_input(i);
    const int model = i % models;
    const serve::Priority cls =
        priorities
            ? static_cast<serve::Priority>(i % serve::kNumPriorityClasses)
            : serve::Priority::kNormal;
    ++s.submitted;
    auto h = server.try_submit_to(model, std::move(x), 1e-5 * i, cls);
    if (h)
      handles.push_back(*h);
    else
      ++s.rejected;
  }
  s.report = server.drain();
  for (const serve::StreamHandle& h : handles) {
    EXPECT_TRUE(h.ready());
    const serve::StreamResult& r = h.get();  // never rethrows a failure
    if (!r.ok()) {
      try {
        (void)h.value();
        ADD_FAILURE() << "value() of a failed request did not throw";
      } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), r.error);
      }
    }
    s.resolved.push_back(r);
  }
  return s;
}

void expect_accounting(const Session& s, const Combo& combo) {
  const serve::StreamStats& st = s.report.stats;
  EXPECT_EQ(st.completed + st.failed + st.rejected, s.submitted);
  EXPECT_EQ(st.rejected, s.rejected);
  EXPECT_EQ(s.report.requests.size(), st.completed + st.failed);
  ASSERT_EQ(s.resolved.size(), st.completed + st.failed);
  std::size_t ok = 0, errors = 0;
  for (const serve::StreamResult& r : s.resolved) {
    if (r.ok()) {
      ++ok;
      EXPECT_EQ(r.error, serve::ServeErrorCode::kNone);
    } else {
      ++errors;
      EXPECT_NE(r.error, serve::ServeErrorCode::kNone);
    }
  }
  EXPECT_EQ(ok, st.completed);
  EXPECT_EQ(errors, st.failed);

  std::size_t m_completed = 0, m_failed = 0, m_retries = 0, m_rejected = 0,
              m_hits = 0, m_lookups = 0;
  ASSERT_EQ(st.per_model.size(),
            static_cast<std::size_t>(std::get<0>(combo)));
  for (const serve::ModelStats& m : st.per_model) {
    m_completed += m.completed;
    m_failed += m.failed;
    m_retries += m.retries;
    m_rejected += m.rejected;
    m_hits += m.cache_hits;
    m_lookups += m.cache_lookups;
  }
  EXPECT_EQ(m_completed, st.completed);
  EXPECT_EQ(m_failed, st.failed);
  EXPECT_EQ(m_retries, st.retries);
  EXPECT_EQ(m_rejected, st.rejected);
  EXPECT_EQ(m_hits, st.map_cache.hits);
  EXPECT_EQ(m_lookups, st.map_cache.lookups);

  std::size_t c_completed = 0, c_failed = 0, c_retries = 0;
  ASSERT_EQ(st.per_class.size(),
            static_cast<std::size_t>(serve::kNumPriorityClasses));
  for (const serve::PriorityClassStats& c : st.per_class) {
    c_completed += c.completed;
    c_failed += c.failed;
    c_retries += c.retries;
  }
  EXPECT_EQ(c_completed, st.completed);
  EXPECT_EQ(c_failed, st.failed);
  EXPECT_EQ(c_retries, st.retries);

  if (std::get<1>(combo) == FaultCase::kNone) {
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.faults_injected, 0u);
  }
}

bool bit_equal(const Timeline& a, const Timeline& b) {
  for (std::size_t s = 0; s < kNumStages; ++s)
    if (a.stage_seconds(static_cast<Stage>(s)) !=
        b.stage_seconds(static_cast<Stage>(s)))
      return false;
  return a.dram_bytes() == b.dram_bytes() &&
         a.kernel_launches() == b.kernel_launches() &&
         a.flops() == b.flops();
}

/// A serial measurement of one (model, input) on the reference device:
/// run_model's timeline, plus the kernel-map cache events a deferred-
/// accounting pass over the same input records.
struct SerialRun {
  Timeline timeline;
  std::vector<MapCacheEvent> events;
};

SerialRun serial_run(const ModelFn& fn, const SparseTensor& x,
                     const DeviceSpec& dev) {
  SerialRun run;
  run.timeline = run_model(fn, x, dev, torchsparse_config());
  RunOptions opt;
  opt.map_cache = std::make_shared<KernelMapCache>(std::size_t(16) << 20);
  ExecContext ctx = make_run_context(dev, torchsparse_config(), opt);
  ctx.cache_events = &run.events;
  // Deferred accounting charges every lookup cold: the same timeline.
  EXPECT_TRUE(bit_equal(run_in_context(fn, x, ctx), run.timeline));
  return run;
}

/// How many of `ref`'s cache events hit for `served`: the size of the
/// event subset whose warm-hit substitution, applied in event order to
/// the serial timeline, reproduces `served` bit for bit (-1: none does).
int hits_explaining(const Timeline& served, const SerialRun& ref) {
  const std::size_t n = ref.events.size();
  for (std::size_t mask = 0; mask < (std::size_t(1) << n); ++mask) {
    Timeline t = ref.timeline;
    int hits = 0;
    for (std::size_t e = 0; e < n; ++e)
      if (mask >> e & 1) {
        apply_map_cache_hit(ref.events[e], t);
        ++hits;
      }
    if (bit_equal(t, served)) return hits;
  }
  return -1;
}

/// Every served timeline is its request's serial timeline plus warm-hit
/// substitutions, and the substitutions add up to the modeled hits.
void expect_serial_timelines(const serve::StreamReport& report,
                             const Combo& combo) {
  const int models = std::get<0>(combo);
  const DeviceSpec reference = std::get<3>(combo) ? gtx1080ti() : rtx2080ti();
  std::vector<ModelFn> fns;
  for (int m = 0; m < models; ++m)
    fns.push_back(tiny_net(100 + static_cast<uint64_t>(m)));
  std::size_t hits = 0;
  for (const serve::StreamResult& r : report.requests) {
    SCOPED_TRACE("request " + std::to_string(r.id));
    const SparseTensor x = combo_input(static_cast<int>(r.id));
    ASSERT_EQ(r.model, static_cast<int>(r.id) % models);
    const SerialRun ref =
        serial_run(fns[static_cast<std::size_t>(r.model)], x, reference);
    const int h = hits_explaining(r.timeline, ref);
    ASSERT_GE(h, 0) << "timeline is not the serial run_model timeline";
    hits += static_cast<std::size_t>(h);
  }
  std::size_t device_hits = 0;
  for (const serve::DeviceShardStats& d : report.stats.per_device)
    device_hits += d.map_cache.hits;
  EXPECT_EQ(hits, device_hits);
  // One model: each pair's second visit is a follower and hits. Two
  // models split every pair across tenants, so nothing coalesces or hits.
  if (models == 1)
    EXPECT_GT(hits, 0u);
  else
    EXPECT_EQ(hits, 0u);
}

class ServeCombinations : public testing::TestWithParam<Combo> {};

TEST_P(ServeCombinations, AccountingHoldsAndIsWorkerInvariant) {
  const Combo combo = GetParam();
  const Session w1 = serve_combo(combo, 1);
  const Session w3 = serve_combo(combo, 3);
  {
    SCOPED_TRACE("workers=1");
    expect_accounting(w1, combo);
  }
  {
    SCOPED_TRACE("workers=3");
    expect_accounting(w3, combo);
  }
  {
    SCOPED_TRACE("serial timelines");
    expect_serial_timelines(w1.report, combo);
  }
  const serve::StreamReport& a = w1.report;
  const serve::StreamReport& b = w3.report;
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id) << i;
    EXPECT_EQ(a.requests[i].device, b.requests[i].device) << i;
    EXPECT_EQ(a.requests[i].attempts, b.requests[i].attempts) << i;
    EXPECT_EQ(a.requests[i].error, b.requests[i].error) << i;
    EXPECT_TRUE(bit_equal(a.requests[i].timeline, b.requests[i].timeline))
        << i;
    EXPECT_EQ(a.requests[i].service_seconds, b.requests[i].service_seconds)
        << i;
  }
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.map_cache.hits, b.stats.map_cache.hits);
  EXPECT_EQ(a.stats.map_cache.lookups, b.stats.map_cache.lookups);
  ASSERT_EQ(a.stats.per_model.size(), b.stats.per_model.size());
  for (std::size_t m = 0; m < a.stats.per_model.size(); ++m)
    EXPECT_EQ(a.stats.per_model[m].cache_hits,
              b.stats.per_model[m].cache_hits)
        << m;
}

std::string combo_name(const testing::TestParamInfo<Combo>& info) {
  const auto [models, fault, dedup, mixed, route, priorities] = info.param;
  return std::to_string(models) + "models_" + to_string(fault) +
         (dedup ? "_dedup" : "_nodedup") + (mixed ? "_mixed_" : "_homog_") +
         serve::to_string(route) + (priorities ? "_prio" : "_noprio");
}

INSTANTIATE_TEST_SUITE_P(
    AllFeatures, ServeCombinations,
    testing::Combine(
        testing::Values(1, 2),
        testing::Values(FaultCase::kNone, FaultCase::kCrash,
                        FaultCase::kStall, FaultCase::kSlowdown,
                        FaultCase::kCrashRecovery),
        testing::Bool(), testing::Bool(),
        testing::Values(serve::RoutePolicy::kRoundRobin,
                        serve::RoutePolicy::kLeastLoaded,
                        serve::RoutePolicy::kCacheAffinity,
                        serve::RoutePolicy::kEstimateAware),
        testing::Bool()),
    combo_name);

}  // namespace
}  // namespace ts
