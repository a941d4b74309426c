#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "opt/objective.hpp"

#ifndef NETBENCH_BUILD_TYPE
#define NETBENCH_BUILD_TYPE "unknown"
#endif

namespace netbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    // the workload's tail latency, as latency_p50_ms's tail
    {"e2e.latency_tail_ms", "ms"},
    // serve
    {"serve.tcp.self_ms", "ms"},
    {"serve.wire.req_encode_ns", "ns"},
    {"serve.wire.req_decode_ns", "ns"},
    {"serve.wire.req_frame_bytes", "bytes"},
    {"serve.wire.resp_encode_ns", "ns"},
    {"serve.wire.resp_decode_ns", "ns"},
    {"serve.wire.resp_frame_bytes", "bytes"},
    {"serve.pipeline.self_ms.p50", "ms"},
    {"serve.pipeline.self_ms.p99", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.queue_depth.max", "count"},
    {"serve.exec.expand_ms.p50", "ms"},
    {"serve.exec.expand_ms.p99", "ms"},
    {"serve.exec.assemble_us", "us"},
    // tenant
    {"tenant.registry.acquire_ns", "ns"},
    {"tenant.registry.publish_ms", "ms"},
    {"tenant.cache.lookup_ns", "ns"},
    {"tenant.cache.nearest_us", "us"},
    {"tenant.cache.hit_ratio", "ratio"},
    {"tenant.cache.warm_ratio", "ratio"},
    {"tenant.cache.evictions", "count"},
    // core / opt on the query plane
    {"core.solve_ms.p50", "ms"},
    {"core.solve_ms.p99", "ms"},
    {"opt.iters_per_solve.cold", "count"},
    {"opt.iters_per_solve.warm", "count"},
    // ingest / netflow / sampling / estimate / control
    {"ingest.run_ms.p50", "ms"},
    {"ingest.run_ms.p90", "ms"},
    {"ingest.pkts_per_s", "1/s"},
    {"ingest.sampled_frac", "ratio"},
    {"ingest.deployed_sampled_frac", "ratio"},
    {"ingest.exported_per_bin", "count"},
    {"ingest.dropped", "count"},
    {"estimate.ms", "ms"},
    {"control.step_hold_us", "us"},
    {"control.step_resolve_ms", "ms"},
    {"control.resolves", "count"},
    {"control.pushes", "count"},
    {"opt.iters_per_resolve", "count"},
    // opt / core / topo at scale
    {"plan.cold_s", "s"},
    {"plan.warm_s", "s"},
    {"opt.iters.cold", "count"},
    {"opt.iters.warm", "count"},
    {"opt.ms_per_iter", "ms"},
    {"opt.pinned_at_zero", "count"},
    {"opt.release_events", "count"},
    {"opt.eval_fused_ns", "ns"},
    {"topo.generate_s", "s"},
    {"core.problem_build_s", "s"},
    {"core.approx_s", "s"},
    {"core.approx_gap_rel", "ratio"},
    // the ledger and the cost of tracing
    {"ledger.total_ms", "ms"},
    {"ledger.unattributed_ms", "ms"},
    {"ledger.unattributed_pct", "%"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

void Report::set(const std::string& name, double value) {
  const auto& table = trace_ ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : table)
    if (name == spec.name) {
      values_[name] = value;
      return;
    }
  const auto& other = trace_ ? kEndToEnd : kPerLayer;
  for (const MetricSpec& spec : other)
    if (name == spec.name) return;
  check(false, "undeclared metric " + name);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

int Report::emit(const std::string& workload) {
  const auto& table = trace_ ? kPerLayer : kEndToEnd;
  // Layers this workload never calls read 0 in a traced run; every
  // end-to-end metric must have been measured.
  for (const MetricSpec& spec : table) {
    auto it = values_.find(spec.name);
    if (it == values_.end()) {
      if (trace_)
        values_[spec.name] = 0.0;
      else
        check(false, std::string("metric not measured: ") + spec.name);
    } else if (!std::isfinite(it->second)) {
      check(false, std::string("non-finite metric: ") + spec.name);
      it->second = 0.0;
    }
  }
  if (attempted_ == 0) check(false, "no operation attempted");

  for (const std::string& line : notes_)
    std::printf("%s: %s\n", workload.c_str(), line.c_str());
  for (const std::string& e : errors_)
    std::printf("%s: CHECK FAILED: %s\n", workload.c_str(), e.c_str());
  std::printf("env: %s\n", environment_json(start_).c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : table) {
    out << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
        << number(values_[spec.name]) << ", \"unit\": \"" << spec.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string environment_json(const CpuTicks& start) {
  const CpuTicks now = cpu_ticks();
  const double steal =
      now.total > start.total
          ? static_cast<double>(now.steal - start.steal) /
                static_cast<double>(now.total - start.total)
          : 0.0;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  std::ostringstream out;
  out << "{\"nproc\": " << affinity
      << ", \"hw_threads\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << escape(cpu) << "\", \"simd\": \""
      << netmon::opt::simd_level_name(netmon::opt::simd_dispatch_level())
      << "\", \"simd_fastmath\": "
      << (netmon::opt::simd_fastmath_enabled() ? "true" : "false")
      << ", \"build_type\": \"" << NETBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << escape(__VERSION__)
      << "\", \"cpu_steal_frac\": " << number(steal) << "}";
  return out.str();
}

void list_metrics() {
  for (const MetricSpec& spec : kEndToEnd)
    std::printf("end_to_end %s %s\n", spec.name, spec.unit);
  for (const MetricSpec& spec : kPerLayer)
    std::printf("per_layer %s %s\n", spec.name, spec.unit);
}

}  // namespace netbench
