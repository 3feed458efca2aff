// perfbench: the repository's benchmark binary. Runs one workload for
// one seed and prints metric, check and count records for run.py.
//
//   perfbench --workload <offline-paper|serve-drive-warm|serve-mix-cold>
//             --seed <n> --seconds <s> --trace <0|1>
//             --latency-limit-ms <ms> --out <dir>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --latency-limit-ms <ms> "
               "--out <dir>\n",
               why);
  return 2;
}

void print_self_times(const Tracer& tracer) {
  std::printf("\n%-36s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const SpanSummary& s : tracer.summarize())
    std::printf("%-36s %8zu %12.3f %12.3f\n", s.name.c_str(), s.count,
                s.total_seconds * 1e3, s.self_seconds * 1e3);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::string(val) == "1";
    } else if (key == "--latency-limit-ms") {
      opt.latency_limit_seconds = std::atof(val) / 1e3;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || opt.out_dir.empty() ||
      !(opt.seconds > 0) || !(opt.latency_limit_seconds > 0))
    return usage("missing or invalid argument");

  Tracer tracer(opt.trace);
  Report report;
  try {
    if (opt.workload == "offline-paper")
      run_offline(opt, tracer, report);
    else if (opt.workload == "serve-drive-warm" ||
             opt.workload == "serve-mix-cold")
      run_serving(opt, tracer, report);
    else
      return usage(("unknown workload " + opt.workload).c_str());
    if (opt.trace) {
      print_self_times(tracer);
      const std::string path = opt.out_dir + "/trace_" + opt.workload +
                               "_seed" + std::to_string(opt.seed) + ".json";
      tracer.write_chrome_json(path);
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  tracer.spans().size());
    }
    report.finish();
    std::fflush(stdout);
    return report.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
