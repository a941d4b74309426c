// The seeded query mix of query_mix (input generation, untimed) and the
// two tenant models it is asked against. The same seed always yields the
// same requests, chunk by chunk. The mix:
//   - exact repeats drawn Zipf-style from a hot set of kHotSet queries,
//     just above the solve cache's 256 entries (hits, and evictions);
//   - theta-jittered neighbours of hot queries drawn uniformly (misses
//     that warm-start from a cached donor);
//   - kWhatIfBatch queries whose scenarios fail 1-2 links, drawn only
//     from failures that leave every task OD connected (routing is
//     recomputed);
//   - kThetaSweep and kAccuracyReport queries.
// The shares, the Zipf exponent, the jitters and the tenant split are
// assumptions, not measurements of any operator's traffic; README.md
// gives the reason for each.
#pragma once

#include <cstdint>
#include <vector>

#include "netmon.hpp"

namespace netbench {

constexpr double kGeantTheta = 100000.0;
constexpr double kAbileneTheta = 50000.0;

netmon::tenant::TenantModel geant_model();
netmon::tenant::TenantModel abilene_model();

enum class Kind : std::uint8_t { kHot, kNeighbour, kWhatIf, kSweep, kAccuracy };
constexpr int kKinds = 5;
const char* kind_name(Kind kind);

struct Mix {
  std::vector<netmon::serve::Request> requests;
  std::vector<Kind> kinds;
};

class MixGenerator {
 public:
  explicit MixGenerator(std::uint64_t seed);

  /// Appends the next `count` requests of the mix to `mix`; ids continue
  /// from mix.requests.size() + 1.
  void extend(Mix& mix, std::size_t count);

 private:
  struct TenantFailures {
    std::vector<netmon::topo::LinkId> singles;
    std::vector<std::vector<netmon::topo::LinkId>> pairs;
  };

  static std::size_t tenant_index(const netmon::serve::Request& q);
  netmon::serve::Request base_request();
  netmon::serve::Request base_request(bool geant);
  netmon::topo::LinkId pick_single(const netmon::serve::Request& q);
  std::size_t zipf();
  static TenantFailures safe_failures(const netmon::tenant::TenantModel& model,
                                      netmon::Rng& rng);

  netmon::Rng rng_;
  TenantFailures failures_[2];
  std::vector<double> zipf_cdf_;
  std::vector<netmon::serve::Request> hot_;
};

}  // namespace netbench
