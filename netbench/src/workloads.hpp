// The three workloads. Each runs the real netmon components through
// their public APIs, records its metrics and correctness checks in the
// Report, and returns normally; exceptions abort the run without a
// result.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"

namespace netbench {

/// Closed-loop what-if queries over one TCP connection to a two-tenant
/// TenantService (GEANT + Abilene).
void run_query_mix(const Options& options, Report& report);

/// One replayed GEANT/JANET day: pcap sources -> IngestPipeline ->
/// od_rate_estimates -> ControlLoop::step, closed loop.
void run_dataplane_day(const Options& options, Report& report);

/// Cold and warm certified exact solves of the 102,810-link instance.
void run_plan_scale(const Options& options, Report& report);

/// Median wall time (s) of `reps` calls of `setup`, which rebuilds the
/// program's set-up state (the caller keeps the last build). `teardown`
/// releases the previous build between calls, outside the timing.
template <typename Setup, typename Teardown>
double median_setup_s(int reps, Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    const std::int64_t t0 = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return summarize(times, 0.5).p50;
}

/// Seconds elapsed since `start_ns`.
inline double since_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Reports a ledger's total and unattributed remainder and notes every
/// named self time with its share of the total.
inline void report_ledger(Report& report, const Ledger& ledger,
                          const std::string& root) {
  report.set("ledger.total_ms", ledger.total_ms);
  report.set("ledger.unattributed_ms", ledger.unattributed_ms);
  const double pct =
      ledger.total_ms > 0.0 ? 100.0 * ledger.unattributed_ms / ledger.total_ms
                            : 0.0;
  report.set("ledger.unattributed_pct", pct);
  char line[256];
  std::snprintf(line, sizeof(line),
                "ledger %s: %zu ops, mean total %.6g ms, unattributed %.6g "
                "ms (%.2f%%)",
                root.c_str(), ledger.ops, ledger.total_ms,
                ledger.unattributed_ms, pct);
  report.note(line);
  for (const auto& [name, ms] : ledger.self_ms) {
    std::snprintf(line, sizeof(line), "ledger %s:   %-28s self %.6g ms (%.2f%%)",
                  root.c_str(), name.c_str(), ms,
                  ledger.total_ms > 0.0 ? 100.0 * ms / ledger.total_ms : 0.0);
    report.note(line);
  }
}

/// Reports traced-minus-untraced for the workload's headline time.
inline void report_overhead(Report& report, double traced_ms,
                            double untraced_ms) {
  report.set("trace.overhead_ms", traced_ms - untraced_ms);
  report.set("trace.overhead_pct",
             untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                               : 0.0);
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead: traced %.6g ms vs untraced %.6g ms",
                traced_ms, untraced_ms);
  report.note(line);
}

/// Writes the tracer's spans to <out_dir>/trace-<workload>-<seed>.jsonl.
inline void write_trace(Report& report, const Tracer& tracer,
                        const Options& options) {
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  report.check(tracer.write_jsonl(path), "cannot write " + path);
  report.note("spans: " + std::to_string(tracer.spans().size()) + " -> " +
              path);
}

}  // namespace netbench
