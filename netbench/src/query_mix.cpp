// query_mix: the query plane. What-if queries of the seeded mix (mix.hpp)
// go over one TcpClient connection to a TcpServer in front of a
// TenantService (2 workers) holding two tenants, GEANT and Abilene. The
// Abilene tenant is re-published every kRepublishEvery requests (registry
// writes and epoch invalidation beside the cache reads).
//
// The load is a closed loop from one thread that keeps a fixed number of
// requests outstanding and blocks on the oldest reply:
//   - latency phase: one request at a time; the percentiles of the round
//     trip, each the median over windows of kLatencyWindow requests;
//   - throughput phase: kThroughputWindow requests outstanding; answers
//     per second, the median over 1-s windows.
// A closed loop measures the program, not the load generator: an open
// loop's send times depend on how fast a sleeping thread wakes, which on
// a shared VM varies by milliseconds from run to run.
//
// Traced run: the latency phase over TCP (T), the same requests through
// in-process TenantService::submit (I), and a sequential replay through
// each layer's public calls (C), once untraced and once under spans.
// tcp self time = T - I per request; pipeline self time = I - C, both
// over requests whose cache outcome is the same in T, I and C. A short
// throughput phase gives the batch size and queue depth.
#include <array>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "mix.hpp"
#include "netmon.hpp"
#include "workloads.hpp"

namespace netbench {
namespace {

using namespace netmon;

constexpr std::size_t kRepublishEvery = 1500;
constexpr std::size_t kThroughputWindow = 16;
/// Latency percentiles are taken per window of this many consecutive
/// requests and reported as the median over the windows, so a host stall
/// confined to a few windows does not move them.
constexpr std::size_t kLatencyWindow = 1000;
constexpr std::int64_t kRateWindowNs = 1000000000;
/// Comfortably above any answer rate the loops reach (requests per ns).
constexpr double kMaxRatePerNs = 100000.0 * 1e-9;
/// Requests in the mix; the loops cycle through it, so the benchmark's
/// own memory does not grow with the number of requests a run sends.
/// Far more than the cache holds, so a request comes round again only
/// long after its answer was evicted.
constexpr std::size_t kMixSize = 16384;
/// Misses re-solved directly to check objectives.
constexpr std::size_t kDirectChecks = 24;

// ---------------------------------------------------------------------
// The service stack

/// The program under test: registry, service, TCP server and client.
struct Stack {
  tenant::TenantModel abilene;  // kept for re-publishing
  std::unique_ptr<tenant::TenantRegistry> registry;
  std::unique_ptr<tenant::TenantService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::TcpClient> client;

  ~Stack() {
    client.reset();
    server.reset();
    service.reset();
  }
};

std::unique_ptr<Stack> build_stack(bool tcp) {
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<tenant::TenantRegistry>();
  stack->registry->publish("geant", geant_model());
  stack->abilene = abilene_model();
  stack->registry->publish("abilene", stack->abilene);
  tenant::TenantServiceOptions options;
  options.threads = 2;
  options.queue_capacity = 4096;
  stack->service =
      std::make_unique<tenant::TenantService>(*stack->registry, options);
  if (tcp) {
    stack->server = std::make_unique<serve::TcpServer>(*stack->service);
    stack->client = std::make_unique<serve::TcpClient>(
        "127.0.0.1", stack->server->port());
  }
  return stack;
}

// ---------------------------------------------------------------------
// Answers and their certificates

/// The answer payload (id, cache outcome and transport metadata zeroed)
/// as wire bytes: two answers are bit-identical iff these are equal.
std::string payload(const serve::Response& response) {
  serve::Response r = response;
  r.id = 0;
  r.cache = serve::CacheOutcome::kNone;
  r.batch_size = 0;
  r.queue_ms = 0.0;
  r.solve_ms = 0.0;
  const std::vector<std::uint8_t> bytes = serve::encode_response(r);
  return std::string(bytes.begin(), bytes.end());
}

double effective_theta(const serve::Request& q) {
  if (q.theta > 0.0) return q.theta;
  return q.tenant == "geant" ? kGeantTheta : kAbileneTheta;
}

/// One solution certified (kOptimal), spending `theta`, rates in [0, 1].
bool solution_certified(const core::PlacementSolution& s, double theta) {
  if (s.status != opt::SolveStatus::kOptimal) return false;
  if (std::abs(s.budget_used - theta) > 1e-9 * theta) return false;
  for (double p : s.rates)
    if (!(p >= 0.0 && p <= 1.0)) return false;
  return true;
}

/// Every solution certified, budget = theta, rates within [0, alpha];
/// sweeps answer every theta. Returns the first violation, or nullptr.
const char* uncertified_why(const serve::Request& q,
                            const serve::Response& r) {
  const std::size_t expected =
      q.kind == serve::RequestKind::kWhatIfBatch ? q.what_if.size()
      : q.kind == serve::RequestKind::kThetaSweep ? 0
                                                   : 1;
  if (r.solutions.size() != expected) return "wrong solution count";
  if (q.kind != serve::RequestKind::kThetaSweep && !r.sweep.empty())
    return "sweep points in an answer that is not a sweep";
  if (q.kind == serve::RequestKind::kThetaSweep) {
    if (r.sweep.size() != q.thetas.size()) return "sweep misses thetas";
    for (std::size_t k = 0; k < q.thetas.size(); ++k)
      if (r.sweep[k].theta != q.thetas[k]) return "sweep answers another theta";
  }
  for (const core::PlacementSolution& s : r.solutions)
    if (!solution_certified(s, effective_theta(q)))
      return "solution not KKT-certified with budget = theta and rates in "
             "[0, alpha]";
  return nullptr;
}

constexpr std::size_t kMaxObjectives = 3;

/// What the checks need of one answer. The loop keeps this instead of the
/// response, so that a long phase does not hold every response in memory.
struct Answer {
  serve::CacheOutcome cache = serve::CacheOutcome::kNone;
  std::uint32_t batch_size = 0;
  /// FNV-1a of the payload's wire bytes: equal for bit-identical answers.
  std::uint64_t digest = 0;
  const char* uncertified = nullptr;
  /// Objective per solution, or per sweep point (a request has at most
  /// kMaxObjectives of them).
  std::array<double, kMaxObjectives> utilities{};
};

Answer make_answer(const serve::Request& q, const serve::Response& r) {
  Answer a;
  a.cache = r.cache;
  a.batch_size = r.batch_size;
  a.digest = 14695981039346656037ULL;
  for (char c : payload(r)) {
    a.digest ^= static_cast<unsigned char>(c);
    a.digest *= 1099511628211ULL;
  }
  a.uncertified = uncertified_why(q, r);
  if (a.uncertified != nullptr) return a;
  std::size_t k = 0;
  for (const core::PlacementSolution& s : r.solutions)
    a.utilities.at(k++) = s.total_utility;
  for (const serve::ThetaPoint& point : r.sweep)
    a.utilities.at(k++) = point.total_utility;
  return a;
}

// ---------------------------------------------------------------------
// The closed-loop load generator

/// The loops' i-th request: the mix's (i mod size)-th, with id i + 1.
const serve::Request& at(const Mix& mix, std::size_t i) {
  return mix.requests[i % mix.requests.size()];
}

struct LoopConfig {
  /// Requests kept outstanding.
  std::size_t window = 1;
  /// Sends for this long, or exactly `count` requests when count > 0.
  std::int64_t duration_ns = 0;
  std::size_t count = 0;
  /// Re-publishes the Abilene tenant every kRepublishEvery requests.
  Stack* republish = nullptr;
  /// Samples the service queue depth at every send when set.
  tenant::TenantService* depth_probe = nullptr;
};

struct LoopResult {
  std::size_t count = 0;  // requests sent
  std::size_t failed = 0;
  std::size_t max_queue_depth = 0;
  std::int64_t start_ns = 0;
  /// CPU time of every thread but the loop's own over the loop.
  std::int64_t program_cpu_ns = 0;
  // Per request (index = position in the mix); a failed request has
  // done_ns = -1 and an infinite latency.
  std::vector<std::int64_t> send_ns, sent_ns, done_ns;
  std::vector<Answer> answers;
  std::vector<std::pair<std::int64_t, std::int64_t>> publishes;

  double rtt_ms(std::size_t i) const {
    return done_ns[i] < 0
               ? std::numeric_limits<double>::infinity()
               : static_cast<double>(done_ns[i] - send_ns[i]) * 1e-6;
  }
  std::vector<double> rtts() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < count; ++i) v.push_back(rtt_ms(i));
    return v;
  }
};

/// Sends the mix's requests from its start through `send` (which returns
/// a std::future<serve::Response>), keeping config.window of them
/// outstanding: it blocks on the oldest reply, then collects every reply
/// that is ready (reducing each to an Answer) and refills the window.
template <typename Send>
LoopResult run_closed_loop(const Mix& mix, Send&& send,
                           const LoopConfig& config) {
  LoopResult out;
  struct Pending {
    std::size_t index;
    std::future<serve::Response> future;
  };
  std::deque<Pending> pending;
  const std::int64_t process0 = cpu_ns();
  const std::int64_t self0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  out.start_ns = now_ns();
  const std::int64_t deadline = out.start_ns + config.duration_ns;
  // Reserved (not touched) up front, so the per-request arrays never
  // reallocate: the peak resident set grows smoothly with the requests
  // sent instead of jumping at each doubling.
  const std::size_t expected =
      config.count > 0 ? config.count
                       : static_cast<std::size_t>(
                             static_cast<double>(config.duration_ns) *
                             kMaxRatePerNs) + 1024;
  out.send_ns.reserve(expected);
  out.sent_ns.reserve(expected);
  out.done_ns.reserve(expected);
  out.answers.reserve(expected);
  const auto more = [&] {
    return config.count > 0 ? out.count < config.count : now_ns() < deadline;
  };
  for (;;) {
    while (pending.size() < config.window && more()) {
      const std::size_t i = out.count++;
      if (config.republish != nullptr && i > 0 && i % kRepublishEvery == 0) {
        const std::int64_t p0 = now_ns();
        config.republish->registry->publish("abilene",
                                            config.republish->abilene);
        out.publishes.emplace_back(p0, now_ns());
      }
      out.send_ns.push_back(now_ns());
      serve::Request q = at(mix, i);
      q.id = i + 1;
      pending.push_back({i, send(std::move(q))});
      out.sent_ns.push_back(now_ns());
      out.done_ns.push_back(-1);
      out.answers.emplace_back();
      if (config.depth_probe != nullptr)
        out.max_queue_depth =
            std::max(out.max_queue_depth, config.depth_probe->queue_depth());
    }
    if (pending.empty()) break;
    pending.front().future.wait();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const std::size_t i = it->index;
      const std::int64_t done = now_ns();
      const serve::Response response = it->future.get();
      if (response.status == serve::ResponseStatus::kOk) {
        out.done_ns[i] = done;
        out.answers[i] = make_answer(at(mix, i), response);
      } else {
        ++out.failed;
      }
      it = pending.erase(it);
    }
  }
  out.program_cpu_ns = (cpu_ns() - process0) -
                       (cpu_ns(CLOCK_THREAD_CPUTIME_ID) - self0);
  return out;
}

std::string request_key(const serve::Request& request) {
  serve::Request r = request;
  r.id = 0;
  const std::vector<std::uint8_t> bytes = serve::encode_request(r);
  return std::string(bytes.begin(), bytes.end());
}

/// Checks the answers of one TCP phase: certificates, bit-identical
/// hits, every sweep point and a seeded sample of misses re-solved
/// directly.
void check_answers(Report& report, const Mix& mix, const LoopResult& loop,
                   tenant::TenantRegistry& registry, std::uint64_t seed,
                   const char* phase) {
  const std::string where = std::string(phase) + ": ";
  report.check(loop.failed == 0, where + std::to_string(loop.failed) +
                                     " requests failed or went unanswered");
  std::unordered_map<std::string, std::set<std::uint64_t>> originals;
  std::vector<std::size_t> misses;
  std::size_t hits = 0, bad = 0;
  for (std::size_t i = 0; i < loop.count; ++i) {
    const Answer& a = loop.answers[i];
    if (loop.done_ns[i] < 0) continue;
    if (a.uncertified != nullptr) {
      if (bad++ == 0)
        report.check(false, where + "request " + std::to_string(i + 1) + ": " +
                                a.uncertified);
      continue;
    }
    if (a.cache != serve::CacheOutcome::kHit) {
      originals[request_key(at(mix, i))].insert(a.digest);
      misses.push_back(i);
    }
  }
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < loop.count; ++i) {
    const Answer& a = loop.answers[i];
    if (loop.done_ns[i] < 0 || a.cache != serve::CacheOutcome::kHit) continue;
    ++hits;
    const auto it = originals.find(request_key(at(mix, i)));
    if (it == originals.end() || it->second.count(a.digest) == 0)
      ++mismatched;
  }
  report.check(mismatched == 0,
               where + std::to_string(mismatched) +
                   " cache hits not bit-identical to the first answer");

  // A seeded sample of misses against direct expand_request +
  // solve_placement on the tenant's current snapshot.
  Rng rng(seed);
  std::size_t checked = 0;
  double worst = 0.0;
  for (std::size_t c = 0; c < kDirectChecks && !misses.empty(); ++c) {
    const std::size_t i = misses[rng() % misses.size()];
    const serve::Request& q = at(mix, i);
    const Answer& a = loop.answers[i];
    std::deque<core::PlacementProblem> problems;
    serve::expand_request(registry.acquire(q.tenant)->view(), q, problems);
    for (std::size_t k = 0; k < problems.size(); ++k) {
      const core::PlacementSolution direct = core::solve_placement(problems[k]);
      const double served = a.utilities.at(k);
      worst = std::max(worst, std::abs(served - direct.total_utility) /
                                  std::max(1e-300, std::abs(direct.total_utility)));
      ++checked;
    }
  }
  report.check(worst <= 1e-8, where + "a served miss disagrees with a direct "
                                      "solve beyond KKT tolerance");

  // A sweep point carries no solver status, so every sweep point is
  // re-solved directly: the direct solve must be certified, spend its
  // theta, and match the served objective within KKT tolerance.
  std::size_t sweep_points = 0, sweep_bad = 0;
  for (std::size_t i = 0; i < loop.count; ++i) {
    const serve::Request& q = at(mix, i);
    if (loop.done_ns[i] < 0 || q.kind != serve::RequestKind::kThetaSweep)
      continue;
    const Answer& a = loop.answers[i];
    std::deque<core::PlacementProblem> problems;
    serve::expand_request(registry.acquire(q.tenant)->view(), q, problems);
    for (std::size_t k = 0; k < problems.size(); ++k) {
      const core::PlacementSolution direct = core::solve_placement(problems[k]);
      const double diff = std::abs(a.utilities.at(k) - direct.total_utility) /
                          std::max(1e-300, std::abs(direct.total_utility));
      sweep_bad +=
          solution_certified(direct, q.thetas[k]) && diff <= 1e-8 ? 0 : 1;
      ++sweep_points;
    }
  }
  report.check(sweep_bad == 0,
               where + std::to_string(sweep_bad) +
                   " sweep points not matched by a certified direct solve");
  char line[240];
  std::snprintf(line, sizeof(line),
                "%s: %zu answers certified, %zu hits bit-identical, %zu "
                "solves re-checked directly (worst rel diff %.3g), %zu sweep "
                "points re-solved and matched",
                phase, loop.count - loop.failed, hits - mismatched, checked,
                worst, sweep_points - sweep_bad);
  report.note(line);
}

// ---------------------------------------------------------------------
// Phase C: the sequential replay through each layer's public calls

/// Times one call under a span when a tracer is given (appending the
/// duration, times `scale` per ns, to `sink`); does nothing otherwise.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, std::int32_t parent,
        std::uint64_t op, std::vector<double>& sink, double scale)
      : tracer_(tracer), name_(name), parent_(parent), op_(op), sink_(sink),
        scale_(scale), start_(tracer != nullptr ? now_ns() : 0) {}
  ~Scope() {
    if (tracer_ == nullptr) return;
    const std::int64_t end = now_ns();
    tracer_->add(name_, start_, end, parent_, op_);
    sink_.push_back(static_cast<double>(end - start_) * scale_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t name_;
  std::int32_t parent_;
  std::uint64_t op_;
  std::vector<double>& sink_;
  double scale_;
  std::int64_t start_;
};

/// What the replay saw per request: its time (the `query.components`
/// root span) and its cache outcome.
struct Replay {
  std::vector<double> ms;
  std::vector<serve::CacheOutcome> outcome;
};

/// Replays the first `count` requests one at a time through each layer's
/// public calls on a fresh registry and cache, re-publishing Abilene as
/// the closed loop does. With a tracer every call runs under a span,
/// every solution (sweep points included) must be certified, and the
/// per-layer metrics are set; without one only each request's total
/// time is taken, as the tracing-overhead reference. The replay is
/// sequential and deterministic, so both passes see the same outcomes.
Replay replay_components(const Mix& mix, std::size_t count, Tracer* tracer,
                         Report& report) {
  tenant::TenantRegistry registry;
  registry.publish("geant", geant_model());
  const tenant::TenantModel abilene = abilene_model();
  registry.publish("abilene", abilene);
  tenant::SolveCache cache{tenant::CacheConfig{}};
  const opt::SolverOptions solver;

  auto id = [&](const char* name) {
    return tracer != nullptr ? tracer->id(name) : 0U;
  };
  const std::uint32_t n_root = id("query.components");
  const std::uint32_t n_acquire = id("tenant.registry.acquire");
  const std::uint32_t n_lookup = id("tenant.cache.lookup");
  const std::uint32_t n_nearest = id("tenant.cache.nearest");
  const std::uint32_t n_expand = id("serve.exec.expand");
  const std::uint32_t n_solve = id("core.solve");
  const std::uint32_t n_assemble = id("serve.exec.assemble");
  const std::uint32_t n_insert = id("tenant.cache.insert");
  const std::uint32_t n_wire = id("serve.wire");
  const std::uint32_t n_req_enc = id("serve.wire.req_encode");
  const std::uint32_t n_req_dec = id("serve.wire.req_decode");
  const std::uint32_t n_resp_enc = id("serve.wire.resp_encode");
  const std::uint32_t n_resp_dec = id("serve.wire.resp_decode");

  std::vector<double> acquire_ns, lookup_ns, nearest_us, expand_ms, solve_ms,
      assemble_us, insert_ns, iters_cold, iters_warm, req_enc, req_dec,
      resp_enc, resp_dec, req_bytes, resp_bytes;
  Replay replay;
  std::size_t uncertified = 0, not_ok = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && i % kRepublishEvery == 0) registry.publish("abilene", abilene);
    const serve::Request& q = at(mix, i);
    const std::uint64_t op = i + 1;
    const std::int64_t t0 = now_ns();
    const std::int32_t root =
        tracer != nullptr ? tracer->begin(n_root, -1, op) : -1;
    std::shared_ptr<const tenant::TenantSnapshot> snap;
    {
      Scope s(tracer, n_acquire, root, op, acquire_ns, 1.0);
      snap = registry.acquire(q.tenant);
    }
    std::string key;
    std::optional<serve::Response> hit;
    {
      Scope s(tracer, n_lookup, root, op, lookup_ns, 1.0);
      key = tenant::SolveCache::fingerprint(*snap, q);
      hit = cache.lookup(key);
    }
    serve::Response response;
    serve::CacheOutcome outcome = serve::CacheOutcome::kHit;
    if (hit) {
      response = std::move(*hit);
    } else {
      std::optional<tenant::WarmStartDonor> donor;
      {
        Scope s(tracer, n_nearest, root, op, nearest_us, 1e-3);
        donor = cache.nearest(*snap, q);
      }
      serve::Request solved = q;
      outcome = serve::CacheOutcome::kNone;
      if (donor) {
        solved.warm_start = std::move(donor->rates);
        outcome = serve::CacheOutcome::kWarmStart;
      }
      std::deque<core::PlacementProblem> problems;
      {
        Scope s(tracer, n_expand, root, op, expand_ms, 1e-6);
        serve::expand_request(snap->view(), solved, problems);
      }
      std::vector<core::PlacementSolution> solutions;
      {
        Scope s(tracer, n_solve, root, op, solve_ms, 1e-6);
        for (const core::PlacementProblem& problem : problems)
          solutions.push_back(
              solved.warm_start.empty()
                  ? core::solve_placement(problem, solver)
                  : core::resolve_warm(problem, solved.warm_start, solver));
      }
      serve::AssembledResponse assembled;
      {
        Scope s(tracer, n_assemble, root, op, assemble_us, 1e-3);
        assembled = serve::assemble_response(solved, solutions);
      }
      response = std::move(assembled.response);
      response.tenant = snap->name();
      {
        Scope s(tracer, n_insert, root, op, insert_ns, 1.0);
        cache.insert(key, *snap, q, response);
      }
      if (tracer != nullptr) {
        for (std::size_t k = 0; k < solutions.size(); ++k) {
          (solved.warm_start.empty() ? iters_cold : iters_warm)
              .push_back(solutions[k].iterations);
          const double theta = q.kind == serve::RequestKind::kThetaSweep
                                   ? q.thetas.at(k)
                                   : effective_theta(q);
          if (!solution_certified(solutions[k], theta)) ++uncertified;
        }
        if (response.status != serve::ResponseStatus::kOk) ++not_ok;
      }
    }
    if (tracer != nullptr) tracer->end(root);
    replay.ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    replay.outcome.push_back(outcome);
    if (tracer == nullptr) continue;

    // The wire codec both ways, as the TCP path runs it.
    const std::int32_t wire = tracer->begin(n_wire, -1, op);
    std::vector<std::uint8_t> req_frame, resp_frame;
    serve::Request decoded;
    serve::Response back;
    {
      Scope s(tracer, n_req_enc, wire, op, req_enc, 1.0);
      req_frame = serve::encode_request(q);
    }
    {
      Scope s(tracer, n_req_dec, wire, op, req_dec, 1.0);
      decoded = serve::decode_request(req_frame);
    }
    {
      Scope s(tracer, n_resp_enc, wire, op, resp_enc, 1.0);
      resp_frame = serve::encode_response(response);
    }
    {
      Scope s(tracer, n_resp_dec, wire, op, resp_dec, 1.0);
      back = serve::decode_response(resp_frame);
    }
    tracer->end(wire);
    req_bytes.push_back(static_cast<double>(req_frame.size()));
    resp_bytes.push_back(static_cast<double>(resp_frame.size()));
    report.check(decoded.id == q.id && back.id == response.id,
                 "wire round trip lost the request id");
  }
  if (tracer == nullptr) return replay;

  report.check(not_ok == 0, "component replay: " + std::to_string(not_ok) +
                                " requests not answered kOk");
  report.check(uncertified == 0,
               "component replay: " + std::to_string(uncertified) +
                   " solutions (sweep points included) not KKT-certified "
                   "with budget = theta and rates in [0, alpha]");
  report.set("tenant.registry.acquire_ns", summarize(acquire_ns, 0.5).p50);
  report.set("tenant.cache.lookup_ns", summarize(lookup_ns, 0.5).p50);
  report.set("tenant.cache.nearest_us", summarize(nearest_us, 0.5).p50);
  const Summary expand = summarize(expand_ms, 0.99);
  report.set("serve.exec.expand_ms.p50", expand.p50);
  report.set("serve.exec.expand_ms.p99", expand.tail);
  report.set("serve.exec.assemble_us", summarize(assemble_us, 0.5).p50);
  const Summary solve = summarize(solve_ms, 0.99);
  report.set("core.solve_ms.p50", solve.p50);
  report.set("core.solve_ms.p99", solve.tail);
  report.set("opt.iters_per_solve.cold", mean(iters_cold));
  report.set("opt.iters_per_solve.warm", mean(iters_warm));
  report.set("serve.wire.req_encode_ns", summarize(req_enc, 0.5).p50);
  report.set("serve.wire.req_decode_ns", summarize(req_dec, 0.5).p50);
  report.set("serve.wire.resp_encode_ns", summarize(resp_enc, 0.5).p50);
  report.set("serve.wire.resp_decode_ns", summarize(resp_dec, 0.5).p50);
  report.set("serve.wire.req_frame_bytes", mean(req_bytes));
  report.set("serve.wire.resp_frame_bytes", mean(resp_bytes));
  char line[240];
  std::snprintf(line, sizeof(line),
                "component replay: %zu requests, %zu misses solved (%zu cold "
                "+ %zu warm solves, all certified: %s), solve p99 over %zu "
                "samples",
                count, solve_ms.size(), iters_cold.size(), iters_warm.size(),
                uncertified == 0 ? "yes" : "no", solve.n);
  report.note(line);
  return replay;
}

// ---------------------------------------------------------------------

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char line[240];
  std::snprintf(line, sizeof(line), format, a, b, c, d);
  return line;
}

/// One closed-loop TCP phase on a fresh stack.
struct Phase {
  std::unique_ptr<Stack> stack;
  LoopResult loop;
};

Phase tcp_phase(const Mix& mix, std::size_t window, double seconds) {
  Phase p;
  p.stack = build_stack(true);
  LoopConfig config;
  config.window = window;
  config.duration_ns = static_cast<std::int64_t>(seconds * 1e9);
  config.republish = p.stack.get();
  config.depth_probe = p.stack->service.get();
  serve::TcpClient& client = *p.stack->client;
  p.loop = run_closed_loop(
      mix, [&](serve::Request q) { return client.send(std::move(q)); },
      config);
  return p;
}

/// The median over windows of kLatencyWindow consecutive requests of
/// each window's `q` round-trip quantile (the pooled quantile when the
/// phase is shorter than one window).
double windowed_rtt(const LoopResult& loop, double q,
                    std::size_t* windows = nullptr) {
  std::vector<double> index(loop.count);
  for (std::size_t i = 0; i < loop.count; ++i)
    index[i] = static_cast<double>(i);
  const std::vector<double> per =
      window_quantiles(loop.rtts(), index, kLatencyWindow, q, kLatencyWindow);
  if (windows != nullptr) *windows = per.size();
  if (per.empty()) return summarize(loop.rtts(), q).tail;
  return summarize(per, 0.5).p50;
}

void note_cache(Report& report, const tenant::SolveCache& cache) {
  report.note(fmt("cache: %.0f hits, %.0f misses, %.0f warm starts, %.0f "
                  "evictions",
                  static_cast<double>(cache.hits()),
                  static_cast<double>(cache.misses()),
                  static_cast<double>(cache.warm_starts()),
                  static_cast<double>(cache.evictions())));
}

}  // namespace

void run_query_mix(const Options& options, Report& report) {
  // Inputs: the seeded mix. The program receives only these.
  Mix mix;
  MixGenerator(options.seed).extend(mix, kMixSize);

  // Set-up: tenant models, publishes, service, TCP server and client.
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_s(
      201, [&] { stack = build_stack(true); }, [&] { stack.reset(); });
  stack.reset();

  if (!options.trace) {
    // Latency: one request at a time.
    Phase lat = tcp_phase(mix, 1, 0.4 * options.seconds);
    const LoopResult& ll = lat.loop;
    std::size_t windows = 0;
    const double p50 = windowed_rtt(ll, 0.5, &windows);
    const double tail = windowed_rtt(ll, 0.9);
    const Summary pooled = summarize(ll.rtts(), 0.99);
    report.add_ops(ll.count, ll.failed);
    check_answers(report, mix, ll, *lat.stack->registry, options.seed,
                  "latency phase");
    report.note(fmt("latency phase: %.0f requests; median over %.0f windows "
                    "of %.0f: p50 %.4f ms",
                    static_cast<double>(ll.count),
                    static_cast<double>(windows),
                    static_cast<double>(kLatencyWindow), p50) +
                fmt(", p90 %.4f ms; pooled p99 %.4f ms (%.0f beyond)", tail,
                    pooled.tail, static_cast<double>(pooled.beyond_tail)));
    note_cache(report, lat.stack->service->cache());
    for (int k = 0; k < kKinds; ++k) {
      std::vector<double> v;
      for (std::size_t i = 0; i < ll.count; ++i)
        if (static_cast<int>(mix.kinds[i % mix.kinds.size()]) == k)
          v.push_back(ll.rtt_ms(i));
      const Summary ks = summarize(v, 0.99);
      report.note(std::string("  ") + kind_name(static_cast<Kind>(k)) +
                  fmt(": %.0f samples, p50 %.4f ms, p99 %.4f ms",
                      static_cast<double>(ks.n), ks.p50, ks.tail));
    }
    lat = Phase{};

    // Throughput: kThroughputWindow requests outstanding.
    Phase tput = tcp_phase(mix, kThroughputWindow, 0.4 * options.seconds);
    const LoopResult& tl = tput.loop;
    const std::vector<double> rates =
        window_rates(tl.done_ns, tl.start_ns, kRateWindowNs);
    report.add_ops(tl.count, tl.failed);
    check_answers(report, mix, tl, *tput.stack->registry, options.seed,
                  "throughput phase");
    report.check(!rates.empty(), "throughput phase shorter than one window");
    const double throughput = rates.empty() ? 0.0 : summarize(rates, 0.5).p50;
    const double cpu_ms = static_cast<double>(tl.program_cpu_ns) * 1e-6 /
                          static_cast<double>(tl.count);
    report.note(fmt("throughput phase: %.0f requests, %.0f outstanding; "
                    "median over %.0f 1-s windows: %.1f answers/s",
                    static_cast<double>(tl.count),
                    static_cast<double>(kThroughputWindow),
                    static_cast<double>(rates.size()), throughput) +
                fmt(" (max queue depth %.0f); %.4f CPU ms per answer",
                    static_cast<double>(tl.max_queue_depth), cpu_ms));
    note_cache(report, tput.stack->service->cache());

    report.set("latency_p50_ms", p50);
    report.set("throughput_per_s", throughput);
    report.set("cpu_ms_per_op", cpu_ms);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // ---- traced run ----
  Tracer tracer(1 << 18);
  // T: the latency phase over TCP. Its spans are built afterwards from
  // the timestamps every loop records, so T runs exactly as the untraced
  // latency phase does.
  Phase t = tcp_phase(mix, 1, 0.3 * options.seconds);
  const LoopResult& tl = t.loop;
  report.add_ops(tl.count, tl.failed);
  check_answers(report, mix, tl, *t.stack->registry, options.seed, "traced");
  {
    const std::uint32_t n_query = tracer.id("query");
    const std::uint32_t n_send = tracer.id("serve.tcp.send");
    const std::uint32_t n_wait = tracer.id("serve.tcp.wait");
    for (std::size_t i = 0; i < tl.count; ++i) {
      if (tl.done_ns[i] < 0) continue;
      const std::int32_t root =
          tracer.add(n_query, tl.send_ns[i], tl.done_ns[i], -1, i + 1);
      tracer.add(n_send, tl.send_ns[i], tl.sent_ns[i], root, i + 1);
      tracer.add(n_wait, tl.sent_ns[i], tl.done_ns[i], root, i + 1);
    }
    std::vector<double> publish_ms;
    const std::uint32_t n_publish = tracer.id("tenant.registry.publish");
    for (const auto& [a, b] : tl.publishes) {
      tracer.add(n_publish, a, b, -1, 0);
      publish_ms.push_back(static_cast<double>(b - a) * 1e-6);
    }
    report.set("tenant.registry.publish_ms", summarize(publish_ms, 0.5).p50);
    const tenant::SolveCache& cache = t.stack->service->cache();
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    report.set("tenant.cache.hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0);
    report.set("tenant.cache.warm_ratio",
               cache.misses() > 0 ? static_cast<double>(cache.warm_starts()) /
                                        static_cast<double>(cache.misses())
                                  : 0.0);
    report.set("tenant.cache.evictions", static_cast<double>(cache.evictions()));
  }
  t.stack.reset();

  // I: the same requests through in-process submit.
  LoopResult il;
  {
    std::unique_ptr<Stack> in_process = build_stack(false);
    LoopConfig config;
    config.count = tl.count;
    config.republish = in_process.get();
    tenant::TenantService& service = *in_process->service;
    il = run_closed_loop(
        mix, [&](serve::Request q) { return service.submit(std::move(q)); },
        config);
    report.check(il.failed == 0, "in-process phase had failures");
  }

  // C: the sequential replay, once untraced (the overhead reference) and
  // once under spans. The tracing overhead is the traced minus the
  // untraced mean replay time per request.
  const Replay plain = replay_components(mix, tl.count, nullptr, report);
  const Replay comp = replay_components(mix, tl.count, &tracer, report);
  report_overhead(report, mean(comp.ms), mean(plain.ms));

  // Differences between phases are taken only over requests whose cache
  // outcome (hit / warm start / cold) is the same in T, I and C: a
  // request that hits in one phase and misses in another would carry a
  // whole solve into the difference.
  std::vector<bool> matched(tl.count, false);
  std::size_t outcome_differs = 0;
  for (std::size_t i = 0; i < tl.count; ++i) {
    if (tl.done_ns[i] < 0 || il.done_ns[i] < 0) continue;
    const serve::CacheOutcome o = tl.answers[i].cache;
    matched[i] = il.answers[i].cache == o && comp.outcome[i] == o;
    outcome_differs += matched[i] ? 0 : 1;
  }

  // The ledger, per matched request (means): tcp self (T - I) + pipeline
  // self (I - C) + every component's self time + the replay's own glue
  // (unattributed) = the round trip in T.
  std::vector<double> tcp_self, pipeline_self;
  double tcp_sum = 0.0, pipe_sum = 0.0, total_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < tl.count; ++i) {
    if (!matched[i]) continue;
    const double tcp = tl.rtt_ms(i) - il.rtt_ms(i);
    const double pipe = il.rtt_ms(i) - comp.ms[i];
    tcp_self.push_back(tcp);
    pipeline_self.push_back(pipe);
    tcp_sum += tcp;
    pipe_sum += pipe;
    total_sum += tl.rtt_ms(i);
    ++n;
  }
  report.check(n > 0, "no request has the same cache outcome in every phase");
  report.set("serve.tcp.self_ms", summarize(tcp_self, 0.5).p50);
  const Summary pipe = summarize(pipeline_self, 0.99);
  report.set("serve.pipeline.self_ms.p50", pipe.p50);
  report.set("serve.pipeline.self_ms.p99", pipe.tail);
  report.note(fmt("phase differences over %.0f requests with the same cache "
                  "outcome in T, I and C (%.0f differ and are left out); "
                  "pipeline p99 has %.0f beyond",
                  static_cast<double>(n), static_cast<double>(outcome_differs),
                  static_cast<double>(pipe.beyond_tail)));

  Ledger ledger;
  ledger.ops = n;
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  ledger.total_ms = total_sum * per;
  ledger.self_ms.emplace_back("serve.tcp (T - I)", tcp_sum * per);
  ledger.self_ms.emplace_back("serve.pipeline (I - C)", pipe_sum * per);
  double attributed = (tcp_sum + pipe_sum) * per;
  const Ledger c = make_ledger(tracer, "query.components",
                               [&](std::uint64_t op) { return matched[op - 1]; });
  for (const auto& [name, ms] : c.self_ms) {
    ledger.self_ms.emplace_back(name, ms);
    attributed += ms;
  }
  ledger.unattributed_ms = ledger.total_ms - attributed;
  report_ledger(report, ledger, "query");
  report.set("e2e.latency_tail_ms", windowed_rtt(tl, 0.9));
  const Summary traced = summarize(tl.rtts(), 0.99);
  report.note(fmt("traced latency phase: %.0f samples, p50 %.4f ms, p99 "
                  "%.4f ms",
                  static_cast<double>(traced.n), traced.p50, traced.tail));

  // B: a short throughput phase for the batcher and the queue.
  Phase b = tcp_phase(mix, kThroughputWindow, 0.1 * options.seconds);
  report.add_ops(b.loop.count, b.loop.failed);
  check_answers(report, mix, b.loop, *b.stack->registry, options.seed,
                "traced throughput phase");
  std::vector<double> batch;
  for (std::size_t i = 0; i < b.loop.count; ++i)
    if (b.loop.done_ns[i] >= 0 && b.loop.answers[i].batch_size > 0)
      batch.push_back(b.loop.answers[i].batch_size);
  report.set("serve.batch_size.mean", mean(batch));
  report.set("serve.queue_depth.max",
             static_cast<double>(b.loop.max_queue_depth));
  write_trace(report, tracer, options);
}

}  // namespace netbench
