// netbench: the end-to-end and per-layer benchmark of netmon.
//
//   netbench --workload <query_mix|dataplane_day|plan_scale> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//   netbench --list-metrics
//
// Prints human-readable notes (sample counts, check results), an
// environment record, and as the last line one JSON object with keys
// correct / attempted / failed / metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant, writes its spans
// to <out-dir>/trace-<workload>-<seed>.jsonl and reports the per-layer
// metrics. Exit code 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "netbench: %s\nusage: netbench --workload "
               "<query_mix|dataplane_day|plan_scale> --seed <n> --seconds "
               "<s> --trace <0|1> [--out-dir <dir>] | --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  netbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      netbench::list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0))
        return usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  netbench::Report report(options.trace);
  try {
    if (options.workload == "query_mix")
      netbench::run_query_mix(options, report);
    else if (options.workload == "dataplane_day")
      netbench::run_dataplane_day(options, report);
    else if (options.workload == "plan_scale")
      netbench::run_plan_scale(options, report);
    else
      return usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 3;
  }
  return report.emit(options.workload);
}
