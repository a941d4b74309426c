// Result collection, the metric table, and the run's environment record.
//
// Every metric the benchmark can print is declared once in kEndToEnd /
// kPerLayer (mirrored by BENCHMARK.json; tests/test_metrics.py checks
// the two agree). A workload sets the metrics it measures; metrics of
// layers the workload never calls read 0. emit() refuses to print a
// result with an undeclared or missing name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace netbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by --trace 0 runs: what a user of the system sees.
extern const std::vector<MetricSpec> kEndToEnd;
/// Printed by --trace 1 runs: per-layer numbers from the traced run.
extern const std::vector<MetricSpec> kPerLayer;

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where traces and digests are written (inside the checkout).
  std::string out_dir = ".";
};

/// CPU time of the whole machine so far, from /proc/stat: all ticks and
/// the ticks the hypervisor stole (zeros when unreadable).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Metrics, operation counts and correctness-check failures of one run.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace), start_(cpu_ticks()) {}

  bool trace() const noexcept { return trace_; }

  /// Records a metric of the run's mode (end-to-end or per-layer).
  /// Metrics of the other mode are ignored, so workloads may set both.
  void set(const std::string& name, double value);

  /// A correctness check: records `what` when `ok` is false.
  void check(bool ok, const std::string& what);

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// A human-readable line above the result (sample counts, checks).
  void note(const std::string& line);

  bool correct() const noexcept { return errors_.empty(); }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

  /// Prints the notes, the environment record and, as the last line,
  /// the result object. Returns the process exit code.
  int emit(const std::string& workload);

 private:
  bool trace_;
  CpuTicks start_;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// One JSON object: nproc, CPU model, SIMD dispatch level, build type,
/// compiler, and the share of CPU time stolen by the hypervisor since
/// `start` (a run with a high share ran on a contended host).
std::string environment_json(const CpuTicks& start);

/// Prints every declared metric name with its mode and unit (one per
/// line), for the metric-name test.
void list_metrics();

}  // namespace netbench
