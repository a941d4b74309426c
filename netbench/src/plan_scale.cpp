// plan_scale: one-off planning of a large network. Builds the 102,810-link
// hierarchical instance (hierarchy_scale_options, default scale theta),
// solves it cold to a KKT-certified optimum with core::solve_placement,
// then re-plans warm at theta x 1.05 with core::resolve_warm — both
// single-threaded. The operation is that planning session (cold + warm);
// sessions repeat while the run's --seconds allow, at least once.
//
// The instance is fixed (it does not depend on --seed), so both optima
// are checked against reference objective values recorded below.
#include <memory>

#include "netmon.hpp"
#include "workloads.hpp"

namespace netbench {
namespace {

using namespace netmon;

/// Certified optimum objectives of the instance (cold at the default
/// theta, warm at theta x 1.05), recorded from the gradient-projection
/// reference solver. Any exact solver must land within kReferenceRelTol.
constexpr double kColdReference = 19776.949314077017;
constexpr double kWarmReference = 19776.951936978036;
constexpr double kReferenceRelTol = 1e-8;
constexpr double kWarmThetaFactor = 1.05;
/// High enough that the solver, not the cap, ends every solve.
constexpr int kMaxIterations = 1000000;

struct Instance {
  std::unique_ptr<core::ScaleScenario> scenario;
  std::unique_ptr<core::PlacementProblem> cold;
  std::unique_ptr<core::PlacementProblem> warm;
  double generate_s = 0.0;
  double build_s = 0.0;
};

Instance build_instance(Tracer* tracer) {
  Instance in;
  const std::int32_t gen_span =
      tracer != nullptr ? tracer->begin(tracer->id("topo.generate"), -1, 0)
                        : -1;
  std::int64_t t0 = now_ns();
  core::ScaleScenarioOptions options;
  options.hierarchy = topo::hierarchy_scale_options();
  in.scenario =
      std::make_unique<core::ScaleScenario>(core::make_scale_scenario(options));
  in.generate_s = since_s(t0);
  if (tracer != nullptr) tracer->end(gen_span);

  const std::int32_t build_span =
      tracer != nullptr
          ? tracer->begin(tracer->id("core.problem_build"), -1, 0)
          : -1;
  t0 = now_ns();
  core::ProblemOptions problem;
  problem.theta = core::default_scale_theta(*in.scenario);
  in.cold = std::make_unique<core::PlacementProblem>(
      core::make_problem(*in.scenario, problem));
  problem.theta *= kWarmThetaFactor;
  in.warm = std::make_unique<core::PlacementProblem>(
      core::make_problem(*in.scenario, problem));
  in.build_s = since_s(t0);
  if (tracer != nullptr) tracer->end(build_span);
  return in;
}

/// KKT-certified, budget exactly spent, every rate within [0, alpha].
bool certified(Report& report, const core::PlacementSolution& s,
               const core::PlacementProblem& problem, const char* what) {
  bool ok = s.status == opt::SolveStatus::kOptimal;
  report.check(ok, std::string(what) + ": solve not KKT-certified");
  const double theta = problem.theta();
  const bool budget = std::abs(s.budget_used - theta) <= 1e-9 * theta;
  report.check(budget, std::string(what) + ": budget_used != theta");
  bool bounds = true;
  for (double r : s.rates) bounds = bounds && r >= 0.0 && r <= 1.0;
  report.check(bounds, std::string(what) + ": rate outside [0, alpha]");
  return ok && budget && bounds;
}

void check_reference(Report& report, double value, double reference,
                     const char* what) {
  const double rel = std::abs(value - reference) / std::abs(reference);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s objective %.17g vs reference %.17g (rel %.3g)", what,
                value, reference, rel);
  report.note(line);
  report.check(rel <= kReferenceRelTol,
               std::string(what) + ": objective differs from reference");
}

struct Session {
  core::PlacementSolution cold;
  core::PlacementSolution warm;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double cpu_s = 0.0;  // CPU time of both solves
};

Session plan_session(const Instance& in, Tracer* tracer, std::uint64_t op) {
  opt::SolverOptions options;
  options.max_iterations = kMaxIterations;
  opt::SolverWorkspace workspace;
  Session s;
  const std::int32_t root =
      tracer != nullptr ? tracer->begin(tracer->id("plan"), -1, op) : -1;
  std::int32_t span =
      tracer != nullptr ? tracer->begin(tracer->id("core.solve.cold"), root, op)
                        : -1;
  const std::int64_t cpu0 = cpu_ns();
  std::int64_t t0 = now_ns();
  s.cold = core::solve_placement(*in.cold, options, &workspace);
  s.cold_s = since_s(t0);
  if (tracer != nullptr) {
    tracer->end(span);
    span = tracer->begin(tracer->id("core.solve.warm"), root, op);
  }
  t0 = now_ns();
  s.warm = core::resolve_warm(*in.warm, s.cold.rates, options, &workspace);
  s.warm_s = since_s(t0);
  s.cpu_s = static_cast<double>(cpu_ns() - cpu0) * 1e-9;
  if (tracer != nullptr) {
    tracer->end(span);
    tracer->end(root);
  }
  return s;
}

void check_session(Report& report, const Instance& in, const Session& s) {
  const bool cold_ok = certified(report, s.cold, *in.cold, "cold");
  const bool warm_ok = certified(report, s.warm, *in.warm, "warm");
  check_reference(report, s.cold.total_utility, kColdReference, "cold");
  check_reference(report, s.warm.total_utility, kWarmReference, "warm");
  report.add_ops(2, (cold_ok ? 0 : 1) + (warm_ok ? 0 : 1));
  char line[200];
  std::snprintf(line, sizeof(line),
                "session: cold %.4f s (%d iters), warm %.4f s (%d iters)",
                s.cold_s, s.cold.iterations, s.warm_s, s.warm.iterations);
  report.note(line);
}

}  // namespace

void run_plan_scale(const Options& options, Report& report) {
  const std::int64_t start = now_ns();
  Instance in;

  if (!options.trace) {
    // Set-up: scenario generation + both problem builds, median of 5.
    const double setup_s = median_setup_s(
        5, [&] { in = build_instance(nullptr); }, [&] { in = Instance{}; });
    std::vector<double> session_ms;
    double solve_s = 0.0, cpu_s = 0.0;
    for (;;) {
      const Session s = plan_session(in, nullptr, session_ms.size());
      check_session(report, in, s);
      session_ms.push_back((s.cold_s + s.warm_s) * 1e3);
      solve_s += s.cold_s + s.warm_s;
      cpu_s += s.cpu_s;
      // Start another session only if it would still fit in the run.
      if (since_s(start) + (s.cold_s + s.warm_s) > options.seconds) break;
    }
    const Summary sessions = summarize(session_ms, 1.0);
    report.set("latency_p50_ms", sessions.p50);
    report.set("throughput_per_s",
               2.0 * static_cast<double>(session_ms.size()) / solve_s);
    report.set("cpu_ms_per_op",
               cpu_s * 1e3 / (2.0 * static_cast<double>(session_ms.size())));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.note("sessions: " + std::to_string(sessions.n) +
                ", slowest " + std::to_string(sessions.tail) + " ms");
    return;
  }

  // Traced run: set up once under spans, one untraced session as the
  // overhead reference, one traced session, then the approximation
  // tier and one fused evaluation on the same instance.
  Tracer tracer;
  in = build_instance(&tracer);
  const Session plain = plan_session(in, nullptr, 0);
  check_session(report, in, plain);
  const Session s = plan_session(in, &tracer, 1);
  check_session(report, in, s);
  report_overhead(report, (s.cold_s + s.warm_s) * 1e3,
                  (plain.cold_s + plain.warm_s) * 1e3);
  report_ledger(report, make_ledger(tracer, "plan"), "plan");
  report.set("e2e.latency_tail_ms",  // the slower session
             std::max(s.cold_s + s.warm_s, plain.cold_s + plain.warm_s) * 1e3);

  report.set("plan.cold_s", s.cold_s);
  report.set("plan.warm_s", s.warm_s);
  report.set("opt.iters.cold", s.cold.iterations);
  report.set("opt.iters.warm", s.warm.iterations);
  report.set("opt.ms_per_iter", (s.cold_s + s.warm_s) * 1e3 /
                                    (s.cold.iterations + s.warm.iterations));
  report.set("opt.release_events",
             s.cold.release_events + s.warm.release_events);
  const std::vector<double> x = in.cold->compress(s.cold.rates);
  std::size_t pinned = 0;
  for (double v : x) pinned += v == 0.0 ? 1 : 0;
  report.set("opt.pinned_at_zero", static_cast<double>(pinned));
  report.set("topo.generate_s", in.generate_s);
  report.set("core.problem_build_s", in.build_s);

  // One fused objective evaluation at the cold optimum (median of 63).
  {
    linalg::EvalWorkspace ws;
    std::vector<double> grad(x.size());
    std::vector<double> ns;
    double sink = 0.0;
    const std::uint32_t name = tracer.id("opt.eval_fused");
    for (int i = 0; i < 63; ++i) {
      const std::int64_t t0 = now_ns();
      sink += in.cold->objective().fused_eval(x, grad, ws).value;
      const std::int64_t t1 = now_ns();
      tracer.add(name, t0, t1, -1, static_cast<std::uint64_t>(i));
      ns.push_back(static_cast<double>(t1 - t0));
    }
    report.set("opt.eval_fused_ns", summarize(ns, 0.5).p50);
    report.check(std::isfinite(sink), "fused evaluation not finite");
  }

  // The approximation tier on the same instance, serial.
  {
    const std::int32_t span = tracer.begin(tracer.id("core.approx"), -1, 0);
    const std::int64_t t0 = now_ns();
    const core::Partition partition =
        core::partition_by_region(*in.cold, in.scenario->net);
    const core::ApproxResult approx = core::solve_approx(*in.cold, partition);
    const double approx_s = since_s(t0);
    tracer.end(span);
    report.set("core.approx_s", approx_s);
    report.set("core.approx_gap_rel", approx.certificate.relative_gap);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "approx tier: %.4f s, certified gap %.3g (exact %.4f s)",
                  approx_s, approx.certificate.relative_gap, s.cold_s);
    report.note(line);
  }
  write_trace(report, tracer, options);
}

}  // namespace netbench
