#include "mix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netbench {
namespace {

using namespace netmon;

constexpr std::size_t kHotSet = 288;
constexpr double kZipfExponent = 1.0;
/// Cumulative shares of the mix: hot repeats, neighbours, what-ifs,
/// sweeps; the rest are jittered accuracy reports.
constexpr double kShareHot = 0.55;
constexpr double kShareNeighbour = 0.80;
constexpr double kShareWhatIf = 0.88;
constexpr double kShareSweep = 0.94;
constexpr double kGeantShare = 0.7;

bool keeps_task_connected(const tenant::TenantModel& model,
                          const std::vector<topo::LinkId>& failed) {
  core::ProblemOptions options = model.problem;
  for (topo::LinkId l : failed) options.failed.insert(l);
  try {
    const core::PlacementProblem probe(model.graph, model.task, model.loads,
                                       options);
    return !probe.candidates().empty();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

tenant::TenantModel geant_model() {
  const core::GeantScenario scenario = core::make_geant_scenario();
  tenant::TenantModel model;
  model.graph = scenario.net.graph;
  model.task = scenario.task;
  model.loads = scenario.loads;
  model.problem.theta = kGeantTheta;
  return model;
}

tenant::TenantModel abilene_model() {
  const topo::AbileneNetwork abilene = topo::make_abilene();
  tenant::TenantModel model;
  model.graph = abilene.graph;
  model.task.interval_sec = 300.0;
  traffic::TrafficMatrix demands = traffic::gravity_matrix(
      abilene.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const topo::NodeId dst = *abilene.graph.find_node(name);
    model.task.ods.push_back({abilene.customer, dst});
    model.task.expected_packets.push_back(rate * model.task.interval_sec);
    demands.push_back({{abilene.customer, dst}, rate});
  }
  model.loads = traffic::link_loads(abilene.graph, demands);
  model.problem.theta = kAbileneTheta;
  return model;
}

const char* kind_name(Kind kind) {
  static const char* const names[kKinds] = {"hot", "neighbour", "what-if",
                                            "sweep", "accuracy"};
  return names[static_cast<int>(kind)];
}

MixGenerator::TenantFailures MixGenerator::safe_failures(
    const tenant::TenantModel& model, Rng& rng) {
  TenantFailures f;
  for (topo::LinkId l = 0; l < model.graph.link_count(); ++l)
    if (keeps_task_connected(model, {l})) f.singles.push_back(l);
  for (int tries = 0; tries < 400 && f.pairs.size() < 64; ++tries) {
    const topo::LinkId a = f.singles[rng() % f.singles.size()];
    const topo::LinkId b = f.singles[rng() % f.singles.size()];
    if (a != b && keeps_task_connected(model, {a, b})) f.pairs.push_back({a, b});
  }
  if (f.singles.empty() || f.pairs.empty())
    throw std::runtime_error("no safe failure scenarios");
  return f;
}

MixGenerator::MixGenerator(std::uint64_t seed) : rng_(seed) {
  Rng fail_rng = rng_.split(1);
  failures_[0] = safe_failures(geant_model(), fail_rng);
  failures_[1] = safe_failures(abilene_model(), fail_rng);
  double total = 0.0;
  for (std::size_t r = 0; r < kHotSet; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  // The hot set is stratified by Zipf rank — tenant, kind and failure
  // follow the rank, only theta and the failed link are drawn — so the
  // hit ratio and the cost of hot misses barely depend on the seed.
  for (std::size_t h = 0; h < kHotSet; ++h) {
    serve::Request q = base_request(h % 10 < 7);
    q.kind = h % 5 == 4 ? serve::RequestKind::kAccuracyReport
                        : serve::RequestKind::kSolve;
    if (h % 5 == 2) q.failed = {pick_single(q)};
    hot_.push_back(std::move(q));
  }
}

void MixGenerator::extend(Mix& mix, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng_.uniform();
    serve::Request q;
    Kind kind;
    if (u < kShareHot) {
      q = hot_[zipf()];
      kind = Kind::kHot;
    } else if (u < kShareNeighbour) {
      q = hot_[rng_() % hot_.size()];
      q.theta *= std::exp(rng_.uniform(-0.03, 0.03));
      kind = Kind::kNeighbour;
    } else if (u < kShareWhatIf) {
      q = base_request();
      q.kind = serve::RequestKind::kWhatIfBatch;
      for (int s = 0; s < 2; ++s) {
        const TenantFailures& f = failures_[tenant_index(q)];
        q.what_if.push_back(rng_.uniform() < 0.5
                                ? std::vector<topo::LinkId>{pick_single(q)}
                                : f.pairs[rng_() % f.pairs.size()]);
      }
      kind = Kind::kWhatIf;
    } else if (u < kShareSweep) {
      q = base_request();
      q.kind = serve::RequestKind::kThetaSweep;
      for (int s = 0; s < 3; ++s)
        q.thetas.push_back(q.theta * std::exp(rng_.uniform(-0.7, 0.7)));
      std::sort(q.thetas.begin(), q.thetas.end());
      kind = Kind::kSweep;
    } else {
      q = base_request();
      q.kind = serve::RequestKind::kAccuracyReport;
      kind = Kind::kAccuracy;
    }
    q.id = mix.requests.size() + 1;
    mix.requests.push_back(std::move(q));
    mix.kinds.push_back(kind);
  }
}

std::size_t MixGenerator::tenant_index(const serve::Request& q) {
  return q.tenant == "geant" ? 0 : 1;
}

serve::Request MixGenerator::base_request() {
  return base_request(rng_.uniform() < kGeantShare);
}

serve::Request MixGenerator::base_request(bool geant) {
  serve::Request q;
  q.tenant = geant ? "geant" : "abilene";
  q.theta = (geant ? kGeantTheta : kAbileneTheta) *
            std::exp(rng_.uniform(-0.7, 0.7));
  return q;
}

topo::LinkId MixGenerator::pick_single(const serve::Request& q) {
  const TenantFailures& f = failures_[tenant_index(q)];
  return f.singles[rng_() % f.singles.size()];
}

std::size_t MixGenerator::zipf() {
  const double u = rng_.uniform();
  return static_cast<std::size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
}

}  // namespace netbench
