// Shared plumbing of the benchmark binary: run options, the metric and
// check protocol read by run.py, and small statistics helpers.
//
// Protocol (one record per stdout line, everything else is free text):
//   @metric <name> <value> <unit> <higher|lower> <host|modeled|both>
//   @check  <name> <ok|FAIL> <detail>
//   @count  <attempted> <failed>
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  double latency_limit_seconds = 0.030;
  std::string out_dir;  // snapshot file and Chrome trace land here
};

enum class Better { kHigher, kLower };
enum class Clock { kHost, kModeled, kBoth };

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              Better better, Clock clock) {
    static const char* const kClock[] = {"host", "modeled", "both"};
    std::printf("@metric %s %.17g %s %s %s\n", name.c_str(), value, unit,
                better == Better::kHigher ? "higher" : "lower",
                kClock[static_cast<int>(clock)]);
  }

  /// A failed check counts as one failed operation.
  void check(const std::string& name, bool ok,
             const std::string& detail = "-") {
    std::printf("@check %s %s %s\n", name.c_str(), ok ? "ok" : "FAIL",
                detail.c_str());
    if (!ok) {
      ++failed_;
      ++attempted_;
      all_ok_ = false;
    }
  }

  void add_attempted(std::size_t n) { attempted_ += n; }
  void add_failed(std::size_t n) { failed_ += n; }
  bool all_ok() const { return all_ok_; }

  /// Prints fail_rate: failed operations over attempted ones so far.
  void fail_rate() {
    metric("fail_rate",
           static_cast<double>(failed_) /
               static_cast<double>(std::max<std::size_t>(attempted_, 1)),
           "fraction", Better::kLower, Clock::kBoth);
  }

  void finish() const {
    std::printf("@count %zu %zu\n", attempted_, failed_);
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool all_ok_ = true;
};

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (const double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

/// Exact bit pattern of modeled values, compared for bit-equality and
/// folded into a printed digest so runs can be compared by eye.
class Bits {
 public:
  void add(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    words_.push_back(u);
  }
  void add(std::size_t v) { words_.push_back(static_cast<std::uint64_t>(v)); }
  void add(int v) { words_.push_back(static_cast<std::uint64_t>(v)); }

  bool operator==(const Bits& o) const { return words_ == o.words_; }

  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the words
    for (const std::uint64_t w : words_)
      for (int b = 0; b < 8; ++b) {
        h ^= (w >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
      }
    return h;
  }

  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest()));
    return buf;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

void run_offline(const Options& opt, Tracer& tracer, Report& report);
void run_serving(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
