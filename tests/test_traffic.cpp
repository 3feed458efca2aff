// Trace-driven traffic generation: seeded determinism, arrival-process
// shape sanity (interarrival means, burst windows, diurnal ramp),
// SequenceTrace order/content invariants, and TrafficMix composition.
// Everything asserted here is a pure function of (spec, count, seed) —
// the property the serving benches lean on when they replay a trace
// and expect bit-identical modeled stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sparse_tensor.hpp"
#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "serve/traffic.hpp"

namespace ts::serve {
namespace {

double mean_interarrival(const std::vector<double>& t) {
  EXPECT_GE(t.size(), 2u);
  return t.back() / static_cast<double>(t.size());
}

/// Small scene so each trace_frame call stays cheap.
SequenceTraceSpec small_trace(bool shuffled) {
  SequenceTraceSpec spec;
  spec.lidar = semantic_kitti_spec();
  spec.lidar.azimuth_steps = 50;
  spec.lidar.beams = 16;
  spec.voxels = detection_voxels();
  spec.sequences = 2;
  spec.frames_per_sequence = 3;
  spec.revisits = 2;
  spec.shuffled = shuffled;
  return spec;
}

TEST(Traffic, PoissonSeededDeterminism) {
  TrafficSpec spec;
  spec.rate_hz = 25.0;
  const auto a = generate_arrivals(spec, 500, 7);
  const auto b = generate_arrivals(spec, 500, 7);
  EXPECT_EQ(a, b);  // bit-identical, not just close
  const auto c = generate_arrivals(spec, 500, 8);
  EXPECT_NE(a, c);
  for (std::size_t i = 0; i + 1 < a.size(); ++i) EXPECT_LT(a[i], a[i + 1]);
  EXPECT_GT(a.front(), 0.0);
}

TEST(Traffic, PoissonInterarrivalMean) {
  TrafficSpec spec;
  spec.rate_hz = 50.0;
  const auto t = generate_arrivals(spec, 20000, 11);
  ASSERT_EQ(t.size(), 20000u);
  // Seeded, so this is a deterministic check, but the bound is the
  // law-of-large-numbers one: the empirical mean interarrival should
  // sit within a few percent of 1/rate.
  EXPECT_NEAR(mean_interarrival(t), 1.0 / 50.0, 0.05 / 50.0);
}

TEST(Traffic, BurstyArrivalsStayInsideOnWindows) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kBursty;
  spec.rate_hz = 40.0;
  spec.on_seconds = 0.5;
  spec.off_seconds = 1.5;
  const auto t = generate_arrivals(spec, 2000, 3);
  const double cycle = spec.on_seconds + spec.off_seconds;
  for (const double a : t) {
    const double pos = std::fmod(a, cycle);
    EXPECT_LE(pos, spec.on_seconds + 1e-9)
        << "arrival " << a << " falls in an OFF window";
  }
  // Effective long-run rate = rate * duty cycle (exact time-rescaling
  // wastes no draws, so the mean comes out as for plain Poisson on the
  // compressed clock).
  const double duty = spec.on_seconds / cycle;
  EXPECT_NEAR(mean_interarrival(t), 1.0 / (spec.rate_hz * duty),
              0.08 / (spec.rate_hz * duty));
}

TEST(Traffic, BurstyNonBinaryWindowsAlwaysAdvance) {
  // 10 ms windows are not binary-exact: at t = 0.06 fmod reports a window
  // position a hair short of the cycle, so the step to the next window
  // is below half an ulp of t. The generator must still advance (this
  // spec stalls at arrival 3 without the guard).
  TrafficSpec spec;
  spec.process = ArrivalProcess::kBursty;
  spec.rate_hz = 100.0;
  spec.on_seconds = 0.01;
  spec.off_seconds = 0.01;
  const auto t = generate_arrivals(spec, 128, 1);
  ASSERT_EQ(t.size(), 128u);
  const double cycle = spec.on_seconds + spec.off_seconds;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) EXPECT_LT(t[i - 1], t[i]) << "arrival " << i;
    // A window start can round to fmod's end of the previous cycle.
    const double pos = std::fmod(t[i], cycle);
    EXPECT_TRUE(pos <= spec.on_seconds + 1e-12 || pos >= cycle - 1e-12)
        << "arrival " << t[i] << " falls in an OFF window";
  }
}

/// FNV-1a over the arrivals' bit patterns.
std::uint64_t arrival_bits_digest(const std::vector<double>& t) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double a : t) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &a, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Traffic, BurstyBinaryExactWindowsArrivalsPinned) {
  // Power-of-two windows (the serving benchmark's bursty traffic) never
  // needed the forward-progress guard, so their arrivals are pinned
  // bit for bit to the values they had before it existed.
  struct Case {
    double rate_hz, on, off, phase;
    std::uint64_t seed, digest;
  };
  const Case cases[] = {
      {100.0, 1.0 / 128, 1.0 / 128, 0.0, 1, 0xae1203ebcb2f5ea2ull},
      {2000.0, 1.0 / 128, 1.0 / 128, 0.0, 2, 0xaef83c09bc895af6ull},
      {500.0, 1.0 / 64, 3.0 / 128, 1.0 / 256, 3, 0x79f014dd4fd3e5bbull},
  };
  for (const Case& c : cases) {
    TrafficSpec spec;
    spec.process = ArrivalProcess::kBursty;
    spec.rate_hz = c.rate_hz;
    spec.on_seconds = c.on;
    spec.off_seconds = c.off;
    spec.phase_seconds = c.phase;
    EXPECT_EQ(arrival_bits_digest(generate_arrivals(spec, 128, c.seed)),
              c.digest)
        << "rate " << c.rate_hz << " seed " << c.seed;
  }
}

TEST(Traffic, BurstyZeroOffDegeneratesToPoisson) {
  TrafficSpec poisson;
  poisson.rate_hz = 30.0;
  TrafficSpec bursty = poisson;
  bursty.process = ArrivalProcess::kBursty;
  bursty.on_seconds = 1.0;
  bursty.off_seconds = 0.0;
  EXPECT_EQ(generate_arrivals(poisson, 300, 5),
            generate_arrivals(bursty, 300, 5));
}

TEST(Traffic, DiurnalRampConcentratesArrivalsAtThePeak) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kDiurnal;
  spec.rate_hz = 50.0;
  spec.period_seconds = 100.0;
  spec.trough_fraction = 0.05;
  const auto t = generate_arrivals(spec, 3000, 13);
  EXPECT_EQ(t, generate_arrivals(spec, 3000, 13));
  // The cycle starts at the trough and peaks mid-period: the middle
  // fifth of each cycle should collect far more arrivals than the
  // wrap-around fifth at the trough.
  std::size_t peak = 0, trough = 0;
  for (const double a : t) {
    const double pos = std::fmod(a, spec.period_seconds) /
                       spec.period_seconds;
    if (pos >= 0.4 && pos < 0.6) ++peak;
    if (pos >= 0.9 || pos < 0.1) ++trough;
  }
  EXPECT_GT(peak, 5 * trough);
}

TEST(Traffic, DiurnalPhaseShiftsTheShapeNotTheStart) {
  TrafficSpec spec;
  spec.process = ArrivalProcess::kDiurnal;
  spec.rate_hz = 40.0;
  spec.period_seconds = 50.0;
  spec.trough_fraction = 0.05;
  spec.phase_seconds = 25.0;  // start mid-peak
  const auto t = generate_arrivals(spec, 500, 17);
  // Starting at the peak, the acceptance rate is ~1: the first arrival
  // lands within a few mean interarrivals of t = 0.
  EXPECT_LT(t.front(), 1.0);
}

TEST(Traffic, GeneratorValidation) {
  TrafficSpec spec;
  spec.rate_hz = 0;
  EXPECT_THROW(generate_arrivals(spec, 1, 0), std::invalid_argument);
  spec.rate_hz = 10;
  spec.process = ArrivalProcess::kBursty;
  spec.on_seconds = 0;
  EXPECT_THROW(generate_arrivals(spec, 1, 0), std::invalid_argument);
  spec.on_seconds = 1;
  spec.off_seconds = -1;
  EXPECT_THROW(generate_arrivals(spec, 1, 0), std::invalid_argument);
  spec = {};
  spec.process = ArrivalProcess::kDiurnal;
  spec.trough_fraction = 1.5;
  EXPECT_THROW(generate_arrivals(spec, 1, 0), std::invalid_argument);
  spec.trough_fraction = 0.5;
  spec.period_seconds = 0;
  EXPECT_THROW(generate_arrivals(spec, 1, 0), std::invalid_argument);
}

TEST(Traffic, TraceLengthAndValidation) {
  SequenceTraceSpec spec = small_trace(false);
  EXPECT_EQ(trace_length(spec), 12u);  // 2 * 3 * 2
  EXPECT_THROW(trace_frame(spec, 12, 1), std::invalid_argument);
  spec.revisits = 0;
  EXPECT_THROW(trace_length(spec), std::invalid_argument);
}

TEST(Traffic, CoherentTracePreservesDriveOrder) {
  const SequenceTraceSpec spec = small_trace(false);
  int last_sequence = -1;
  int last_frame = -1;
  std::map<std::pair<int, int>, int> emissions;
  for (std::size_t k = 0; k < trace_length(spec); ++k) {
    const TraceFrame f = trace_frame(spec, k, 21);
    ++emissions[{f.sequence, f.frame}];
    if (f.sequence != last_sequence) {
      // New sequence block: sequences appear in order, each exactly
      // once (coherent order never returns to an earlier sequence).
      EXPECT_EQ(f.sequence, last_sequence + 1);
      last_sequence = f.sequence;
      last_frame = -1;
    }
    // Within a sequence, frames advance in drive order (revisits of a
    // frame are back to back, so the frame index never decreases).
    EXPECT_GE(f.frame, last_frame);
    EXPECT_LE(f.frame, last_frame + 1);
    last_frame = f.frame;
  }
  // Every (sequence, frame) pair is emitted exactly `revisits` times.
  EXPECT_EQ(emissions.size(), 6u);
  for (const auto& [key, count] : emissions) EXPECT_EQ(count, 2);
}

TEST(Traffic, ShuffledTraceInterleavesButEmitsTheSameMultiset) {
  const SequenceTraceSpec coherent = small_trace(false);
  const SequenceTraceSpec shuffled = small_trace(true);
  std::map<std::pair<int, int>, int> a, b;
  bool interleaved = false;
  int last_sequence = -1;
  for (std::size_t k = 0; k < trace_length(coherent); ++k) {
    const TraceFrame fa = trace_frame(coherent, k, 33);
    const TraceFrame fb = trace_frame(shuffled, k, 33);
    ++a[{fa.sequence, fa.frame}];
    ++b[{fb.sequence, fb.frame}];
    if (fb.sequence < last_sequence) interleaved = true;
    last_sequence = fb.sequence;
  }
  EXPECT_EQ(a, b);            // same emission multiset...
  EXPECT_TRUE(interleaved);   // ...in a genuinely different order
}

TEST(Traffic, FrameContentIndependentOfEmissionOrder) {
  const SequenceTraceSpec coherent = small_trace(false);
  const SequenceTraceSpec shuffled = small_trace(true);
  // Index every emission by identity, then compare tensors across the
  // two orders: a frame's bytes are keyed on (seed, sequence, frame)
  // alone, so the orders must serve identical tensors.
  std::map<std::pair<int, int>, SparseTensor> by_id;
  for (std::size_t k = 0; k < trace_length(coherent); ++k) {
    TraceFrame f = trace_frame(coherent, k, 9);
    by_id.insert({{f.sequence, f.frame}, std::move(f.input)});
  }
  for (std::size_t k = 0; k < trace_length(shuffled); ++k) {
    const TraceFrame f = trace_frame(shuffled, k, 9);
    const auto it = by_id.find({f.sequence, f.frame});
    ASSERT_NE(it, by_id.end());
    const SparseTensor& want = it->second;
    ASSERT_EQ(f.input.num_points(), want.num_points());
    for (std::size_t i = 0; i < f.input.num_points(); ++i)
      EXPECT_EQ(pack_coord(f.input.coords()[i]),
                pack_coord(want.coords()[i]));
    ASSERT_EQ(f.input.feats().size(), want.feats().size());
    for (std::size_t i = 0; i < f.input.feats().size(); ++i)
      EXPECT_EQ(f.input.feats().data()[i], want.feats().data()[i]);
  }
}

TEST(Traffic, MixMergesSortedWithDeterministicTieBreak) {
  std::vector<ModelTraffic> streams(2);
  streams[0].model = 0;
  streams[0].priority = Priority::kHigh;
  streams[0].arrivals.rate_hz = 20.0;
  streams[0].count = 200;
  streams[1].model = 1;
  streams[1].arrivals.process = ArrivalProcess::kBursty;
  streams[1].arrivals.rate_hz = 40.0;
  streams[1].arrivals.on_seconds = 0.5;
  streams[1].arrivals.off_seconds = 0.5;
  streams[1].count = 200;
  const auto mix = build_traffic_mix(streams, 42);
  ASSERT_EQ(mix.size(), 400u);
  EXPECT_EQ(mix, build_traffic_mix(streams, 42));
  std::vector<std::size_t> next_pos(2, 0);
  for (std::size_t i = 0; i + 1 < mix.size(); ++i)
    EXPECT_LE(mix[i].arrival_seconds, mix[i + 1].arrival_seconds);
  for (const TimedSubmission& s : mix) {
    EXPECT_EQ(s.model, static_cast<int>(s.stream));
    EXPECT_EQ(s.priority, streams[s.stream].priority);
    // Within a stream, positions appear in order — arrivals are
    // strictly increasing per stream, and the sort is total.
    EXPECT_EQ(s.stream_pos, next_pos[s.stream]++);
  }
}

TEST(Traffic, MixStreamsAreSeedIndependent) {
  std::vector<ModelTraffic> one(1);
  one[0].arrivals.rate_hz = 15.0;
  one[0].count = 100;
  std::vector<ModelTraffic> two = one;
  two.push_back(one[0]);
  two[1].model = 1;
  // Adding a second stream must not perturb the first stream's
  // arrivals: per-stream generators are independently seeded.
  const auto a = build_traffic_mix(one, 7);
  const auto b = build_traffic_mix(two, 7);
  std::vector<double> first_in_b;
  for (const TimedSubmission& s : b)
    if (s.stream == 0) first_in_b.push_back(s.arrival_seconds);
  ASSERT_EQ(first_in_b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].arrival_seconds, first_in_b[i]);
}

TEST(Traffic, MixValidation) {
  std::vector<ModelTraffic> streams(1);
  streams[0].model = -1;
  streams[0].count = 1;
  EXPECT_THROW(build_traffic_mix(streams, 0), std::invalid_argument);
  streams[0].model = 0;
  streams[0].priority = static_cast<Priority>(99);
  EXPECT_THROW(build_traffic_mix(streams, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ts::serve
