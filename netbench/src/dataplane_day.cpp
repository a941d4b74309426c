// dataplane_day: the streaming data plane over one replayed day of the
// GEANT network and the JANET task, as a closed loop, one 5-minute bin
// after another (the script of examples/continuous_operation: a 20%
// diurnal swing peaking at 14:00, the UK-NL link down 08:00-16:00, an 8x
// surge on three JANET ODs 18:00-19:00).
//
// For each bin the benchmark (untimed) draws SNMP-style link loads and,
// once the loop has rates in force, a capture window of synthetic task
// packets on every link those rates monitor, pre-encoded as pcap
// buffers. The timed path — from "packets available" to the loop's
// push-or-hold decision — is TraceReader sources -> IngestPipeline::run
// (kBlock, 2 producers, 2 consumer shards) -> od_rate_estimates ->
// ControlLoop::step. The rates the step leaves in force choose which
// links are captured in the next bin.
//
// A shadow pipeline + loop replays every bin from the same buffers in
// lockstep (alternating which of the two goes first); the estimates and
// the push decisions must agree bit for bit, and the day's push digest
// must repeat across days and across runs with the same seed.
#include <sys/stat.h>

#include <fstream>
#include <memory>

#include "netmon.hpp"
#include "workloads.hpp"

namespace netbench {
namespace {

using namespace netmon;
using namespace std::chrono_literals;

constexpr int kBins = 288;        // one day of 5-minute bins
constexpr int kFailBin = 97;      // 08:00: UK-NL goes down
constexpr int kRecoverBin = 193;  // 16:00: ... and comes back
constexpr double kBinSec = 300.0;
/// Seconds of traffic captured per bin on each monitored link. The
/// window stands in for the whole bin: monitors sample it at their rate
/// scaled by kBinSec / kCaptureSec (capped at 1), so a bin yields as many
/// samples as a full 5-minute bin would and the estimates (pkt/s) carry
/// the same noise the loop is tuned for, at 1/300 of the packet volume.
constexpr double kCaptureSec = 1.0;

/// The sampling rates the capture window runs at for `rates`.
sampling::RateVector window_rates(const sampling::RateVector& rates) {
  sampling::RateVector scaled = rates;
  for (double& p : scaled) p = std::min(1.0, p * (kBinSec / kCaptureSec));
  return scaled;
}

/// The program's long-lived state: scenario, loop, ingest pool.
struct Plant {
  core::GeantScenario base;
  traffic::TrafficMatrix task_demands;
  std::unique_ptr<netflow::EgressMap> egress;
  std::unique_ptr<runtime::ThreadPool> pool;
  obs::ManualClock clock;
  std::unique_ptr<control::ControlLoop> loop;
};

std::unique_ptr<Plant> build_plant() {
  auto plant = std::make_unique<Plant>();
  plant->base = core::make_geant_scenario();
  plant->task_demands = core::janet_demands(plant->base.net);
  plant->egress = std::make_unique<netflow::EgressMap>(
      netflow::EgressMap::for_pop_blocks(plant->base.net.graph));
  plant->pool = std::make_unique<runtime::ThreadPool>(2);
  control::ControlDeps deps;
  deps.clock = &plant->clock;
  plant->loop = std::make_unique<control::ControlLoop>(
      plant->base.net.graph, plant->base.task, control::ControlConfig{}, deps);
  return plant;
}

/// One bin's generated inputs.
struct BinInput {
  control::BinObservation obs;
  std::unique_ptr<routing::RoutingMatrix> matrix;
  std::vector<topo::LinkId> links;
  std::vector<std::vector<std::uint8_t>> pcap;
  std::vector<std::uint64_t> link_packets;  // per source
  std::uint64_t packets = 0;
};

struct DayScript {
  traffic::DiurnalPattern pattern{0.2, 14.0 * 3600.0};
  std::vector<traffic::AnomalySpike> spikes;
  topo::LinkId uk_nl = 0;
};

DayScript make_script(const Plant& plant) {
  DayScript script;
  for (std::size_t k = 0; k < 3; ++k) {
    traffic::AnomalySpike spike;
    spike.od = plant.base.task.ods[k];
    spike.start_sec = 18.0 * 3600.0;
    spike.end_sec = 19.0 * 3600.0;
    spike.factor = 8.0;
    script.spikes.push_back(spike);
  }
  script.uk_nl = *plant.base.net.graph.find_link("UK", "NL");
  return script;
}

/// Generates bin `bin`'s inputs (untimed): loads, failures, and packets
/// for the links `rates` monitors.
BinInput generate_bin(const Plant& plant, const DayScript& script, int bin,
                      const sampling::RateVector& rates, bool have_rates,
                      std::uint64_t seed) {
  const auto& graph = plant.base.net.graph;
  const double t = (bin - 1) * kBinSec;
  BinInput in;
  if (bin >= kFailBin && bin < kRecoverBin) in.obs.failed.insert(script.uk_nl);
  const traffic::TrafficMatrix all = traffic::matrix_at(
      plant.base.demands, script.pattern, script.spikes, t);
  Rng snmp = Rng(seed).split(static_cast<std::uint64_t>(bin));
  in.obs.loads =
      telemetry::measured_loads(graph, all, 120.0, 60.0, snmp, in.obs.failed);
  in.matrix = std::make_unique<routing::RoutingMatrix>(
      routing::RoutingMatrix::single_path(graph, plant.base.task.ods,
                                          in.obs.failed));
  if (!have_rates) return in;
  ingest::SyntheticOptions synth;
  synth.flowgen.interval_sec = kCaptureSec;
  // Flow sizes scale with the window: a 5-minute flow of at most 2e5
  // packets shows at most its window's share in the capture.
  synth.flowgen.max_flow_packets *= kCaptureSec / kBinSec;
  synth.seed = Rng(seed).split(100000 + static_cast<std::uint64_t>(bin))();
  const ingest::SyntheticTraffic traffic(
      *in.matrix,
      traffic::matrix_at(plant.task_demands, script.pattern, script.spikes, t),
      synth);
  std::vector<ingest::PacketRecord> packets;
  ingest::PacketRecord batch[512];
  for (const auto& source : traffic.sources(rates)) {
    packets.clear();
    for (std::size_t n; (n = source->next_batch(batch, 512)) > 0;)
      packets.insert(packets.end(), batch, batch + n);
    in.packets += packets.size();
    in.link_packets.push_back(packets.size());
    in.links.push_back(source->link());
    in.pcap.push_back(ingest::encode_trace(packets));
  }
  return in;
}

/// What one pipeline + loop did with one bin.
struct BinOutcome {
  double bin_ms = 0.0;
  double cpu_ms = 0.0;  // CPU time of every thread over the timed path
  double run_ms = 0.0;
  double estimate_ms = 0.0;
  double step_ms = 0.0;
  ingest::IngestStats stats;
  std::vector<double> estimates;
  control::StepResult step;
};

/// The timed path for one bin on `plant`, consuming `pcap`.
BinOutcome process_bin(Plant& plant, const BinInput& in,
                       std::vector<std::vector<std::uint8_t>> pcap,
                       std::uint64_t ingest_seed, Tracer* tracer, int bin) {
  BinOutcome out;
  control::BinObservation obs = in.obs;  // copied before timing starts
  const auto op = static_cast<std::uint64_t>(bin);
  auto span = [&](const char* name, std::int32_t parent) {
    return tracer != nullptr ? tracer->begin(tracer->id(name), parent, op)
                             : -1;
  };
  auto close = [&](std::int32_t s) {
    if (tracer != nullptr) tracer->end(s);
  };

  const std::int64_t cpu0 = cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::int32_t root = span("bin", -1);
  if (!pcap.empty()) {
    const sampling::RateVector rates = window_rates(plant.loop->rates());
    std::int32_t s = span("ingest.sources", root);
    std::vector<std::unique_ptr<ingest::PacketSource>> sources;
    for (std::size_t i = 0; i < pcap.size(); ++i)
      sources.push_back(std::make_unique<ingest::TraceReader>(
          std::move(pcap[i]), ingest::TraceReadOptions{.link = in.links[i]}));
    close(s);
    s = span("ingest.pipeline_build", root);
    ingest::IngestOptions options;
    options.collector.bin_sec = kCaptureSec;
    options.producers = 2;
    options.consumers = 2;
    options.overflow = ingest::OverflowPolicy::kBlock;
    options.seed = ingest_seed;
    ingest::IngestDeps deps;
    deps.pool = plant.pool.get();
    ingest::IngestPipeline pipeline(rates, *plant.egress, options, deps);
    pipeline.add_sources(std::move(sources));
    close(s);
    s = span("ingest.run", root);
    const std::int64_t r0 = now_ns();
    out.stats = pipeline.run();
    out.run_ms = static_cast<double>(now_ns() - r0) * 1e-6;
    close(s);
    s = span("estimate", root);
    const std::int64_t e0 = now_ns();
    out.estimates = ingest::od_rate_estimates(pipeline.collector(), *in.matrix,
                                              rates, 0, kCaptureSec);
    out.estimate_ms = static_cast<double>(now_ns() - e0) * 1e-6;
    close(s);
    obs.od_rates = out.estimates;
  }
  const std::int32_t s = span("control.step", root);
  const std::int64_t c0 = now_ns();
  out.step = plant.loop->step(obs);
  out.step_ms = static_cast<double>(now_ns() - c0) * 1e-6;
  close(s);
  close(root);
  out.bin_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  out.cpu_ms = static_cast<double>(cpu_ns() - cpu0) * 1e-6;
  plant.clock.advance(300s);
  return out;
}

bool same_decision(const control::StepResult& a, const control::StepResult& b) {
  return a.resolved == b.resolved && a.reconfigured == b.reconfigured &&
         a.reason == b.reason && a.solve_iterations == b.solve_iterations &&
         a.utility == b.utility && a.budget_used == b.budget_used;
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

/// Everything the metrics need from one replayed day.
struct Day {
  std::vector<BinOutcome> bins;   // primary
  std::vector<double> shadow_ms;  // shadow bin times
  std::uint64_t packets = 0;
  /// Packets the deployed (unscaled) rates would sample, in expectation.
  double deployed_sampled = 0.0;
  std::uint64_t digest = 1469598103934665603ULL;
  int resolves = 0;
  int pushes = 0;
  int reasons[6] = {};  // resolves per control::ResolveReason
  int failed = 0;  // bins that failed a check
  double seconds = 0.0;
};

Day replay_day(const Options& options, Report& report, Tracer* tracer) {
  const std::int64_t start = now_ns();
  std::unique_ptr<Plant> plant = build_plant();
  std::unique_ptr<Plant> shadow = build_plant();
  const DayScript script = make_script(*plant);
  const std::uint64_t ingest_seed = Rng(options.seed).split(7)();
  const double theta = core::ProblemOptions{}.theta;
  Day day;
  bool mismatch = false;
  for (int bin = 1; bin <= kBins; ++bin) {
    BinInput in =
        generate_bin(*plant, script, bin, plant->loop->rates(),
                     plant->loop->have_rates(), options.seed);
    day.packets += in.packets;
    for (std::size_t i = 0; i < in.links.size(); ++i)
      day.deployed_sampled += static_cast<double>(in.link_packets[i]) *
                              plant->loop->rates()[in.links[i]];
    std::vector<std::vector<std::uint8_t>> copy = in.pcap;
    BinOutcome primary, twin;
    if (bin % 2 == 1) {
      primary = process_bin(*plant, in, std::move(in.pcap), ingest_seed,
                            tracer, bin);
      twin = process_bin(*shadow, in, std::move(copy), ingest_seed, nullptr,
                         bin);
    } else {
      twin = process_bin(*shadow, in, std::move(copy), ingest_seed, nullptr,
                         bin);
      primary = process_bin(*plant, in, std::move(in.pcap), ingest_seed,
                            tracer, bin);
    }
    const ingest::IngestStats& st = primary.stats;
    const control::StepResult& r = primary.step;
    const std::string where = "bin " + std::to_string(bin) + ": ";
    const bool lossless = st.dropped_packets == 0 &&
                          st.offered_packets == in.packets &&
                          st.consumed_packets == st.offered_packets;
    report.check(lossless, where + "packets dropped or offered != consumed");
    const bool stepped = !r.skipped && !r.solve_expired;
    report.check(stepped, where + "step skipped or its solve expired");
    const bool budget =
        !r.reconfigured || std::abs(r.budget_used - theta) <= 1e-9 * theta;
    report.check(budget, where + "pushed budget != theta");
    bool bounds = true;
    for (double p : plant->loop->rates()) bounds = bounds && p >= 0.0 && p <= 1.0;
    report.check(bounds, where + "rate outside [0, alpha]");
    day.failed += lossless && stepped && budget && bounds ? 0 : 1;
    if (!mismatch &&
        (twin.estimates != primary.estimates || !same_decision(twin.step, r) ||
         shadow->loop->rates() != plant->loop->rates())) {
      mismatch = true;
      report.check(false, where + "shadow replay diverged from the primary");
    }
    day.digest = fnv(day.digest, &bin, sizeof(bin));
    const std::uint8_t flags = (r.resolved ? 1 : 0) | (r.reconfigured ? 2 : 0);
    day.digest = fnv(day.digest, &flags, 1);
    if (r.reconfigured) {
      const auto& rates = plant->loop->rates();
      day.digest = fnv(day.digest, rates.data(), rates.size() * sizeof(double));
    }
    day.resolves += r.resolved ? 1 : 0;
    ++day.reasons[static_cast<int>(r.reason) % 6];
    day.pushes += r.reconfigured ? 1 : 0;
    day.shadow_ms.push_back(twin.bin_ms);
    day.bins.push_back(std::move(primary));
  }
  day.seconds = since_s(start);
  return day;
}

/// Compares the day's push digest with the one an earlier run of this
/// build recorded for the same seed (recording it when there is none).
/// The file name carries the binary's modification time, so a rebuild
/// starts a fresh record.
void check_digest_across_runs(const Options& options, Report& report,
                              std::uint64_t digest) {
  struct stat exe {};
  stat("/proc/self/exe", &exe);
  const std::string path = options.out_dir + "/digest-dataplane_day-" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(exe.st_mtime) + ".txt";
  std::ifstream in(path);
  std::uint64_t recorded = 0;
  if (in >> recorded) {
    report.check(recorded == digest,
                 "push digest differs from an earlier run with this seed");
    if (recorded == digest)
      report.note("push digest matches the earlier run recorded in " + path);
    return;
  }
  std::ofstream(path) << digest << '\n';
}

}  // namespace

void run_dataplane_day(const Options& options, Report& report) {
  const std::int64_t start = now_ns();
  std::unique_ptr<Plant> plant;
  const double setup_s = median_setup_s(
      401, [&] { plant = build_plant(); }, [&] { plant.reset(); });
  plant.reset();

  Tracer tracer(1 << 12);
  std::vector<Day> days;
  for (;;) {
    days.push_back(replay_day(options, report,
                              options.trace && days.empty() ? &tracer : nullptr));
    if (since_s(start) + days.back().seconds > options.seconds) break;
  }
  const Day& day = days.front();
  for (const Day& d : days)
    report.check(d.digest == day.digest, "push digest differs between days");
  check_digest_across_runs(options, report, day.digest);

  std::vector<double> bin_ms, run_ms, hold_us, resolve_ms, iters, day_ms;
  double timed_s = 0.0, cpu_ms = 0.0, estimate_ms = 0.0;
  std::uint64_t consumed = 0, sampled = 0, dropped = 0, exported = 0;
  int ingest_bins = 0;
  for (const Day& d : days) {
    for (const BinOutcome& b : d.bins) {
      bin_ms.push_back(b.bin_ms);
      timed_s += b.bin_ms * 1e-3;
      cpu_ms += b.cpu_ms;
      consumed += b.stats.consumed_packets;
    }
    report.add_ops(d.bins.size(), static_cast<std::uint64_t>(d.failed));
  }
  for (const BinOutcome& b : day.bins) {
    day_ms.push_back(b.bin_ms);
    if (b.stats.sources > 0) {
      ++ingest_bins;
      run_ms.push_back(b.run_ms);
      estimate_ms += b.estimate_ms;
      sampled += b.stats.sampled_packets;
      dropped += b.stats.dropped_packets;
      exported += b.stats.exported_records;
    }
    if (b.step.resolved) {
      resolve_ms.push_back(b.step_ms);
      iters.push_back(b.step.solve_iterations);
    } else {
      hold_us.push_back(b.step_ms * 1e3);
    }
  }
  std::uint64_t day_consumed = 0;
  for (const BinOutcome& b : day.bins) day_consumed += b.stats.consumed_packets;

  const Summary bins = summarize(bin_ms, 0.9);
  report.check(supported_tail(bins.n) >= 0.9, "too few bins for a p90");
  char line[240];
  std::snprintf(line, sizeof(line),
                "%zu days, %zu bins (p90 has %zu beyond), %llu packets, "
                "%d resolves, %d pushes, digest %016llx",
                days.size(), bins.n, bins.beyond_tail,
                static_cast<unsigned long long>(consumed), day.resolves,
                day.pushes, static_cast<unsigned long long>(day.digest));
  report.note(line);
  std::string reasons = "resolve reasons:";
  for (int k = 1; k < 6; ++k)
    reasons += std::string(" ") +
               control::to_string(static_cast<control::ResolveReason>(k)) +
               "=" + std::to_string(day.reasons[k]);
  report.note(reasons);
  std::snprintf(line, sizeof(line),
                "sampled share of captured packets: %.4g at the capture "
                "window's rates (x%.0f, capped at 1) vs %.4g at the deployed "
                "rates",
                static_cast<double>(sampled) / static_cast<double>(day_consumed),
                kBinSec / kCaptureSec,
                day.deployed_sampled / static_cast<double>(day_consumed));
  report.note(line);

  report.set("latency_p50_ms", bins.p50);
  report.set("e2e.latency_tail_ms", bins.tail);
  report.set("throughput_per_s", static_cast<double>(consumed) / timed_s);
  report.set("cpu_ms_per_op", cpu_ms / static_cast<double>(bin_ms.size()));
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", peak_rss_mb());

  if (!options.trace) return;
  const Summary run = summarize(run_ms, 0.9);
  double run_s = 0.0;
  for (double ms : run_ms) run_s += ms * 1e-3;
  report.set("ingest.run_ms.p50", run.p50);
  report.set("ingest.run_ms.p90", run.tail);
  report.set("ingest.pkts_per_s", static_cast<double>(day_consumed) / run_s);
  report.set("ingest.sampled_frac",
             static_cast<double>(sampled) / static_cast<double>(day_consumed));
  report.set("ingest.deployed_sampled_frac",
             day.deployed_sampled / static_cast<double>(day_consumed));
  report.set("ingest.exported_per_bin",
             static_cast<double>(exported) / ingest_bins);
  report.set("ingest.dropped", static_cast<double>(dropped));
  report.set("estimate.ms", estimate_ms / ingest_bins);
  report.set("control.step_hold_us", summarize(hold_us, 0.5).p50);
  report.set("control.step_resolve_ms", summarize(resolve_ms, 0.5).p50);
  report.set("control.resolves", day.resolves);
  report.set("control.pushes", day.pushes);
  report.set("opt.iters_per_resolve", mean(iters));
  report_overhead(report, summarize(day_ms, 0.5).p50,
                  summarize(day.shadow_ms, 0.5).p50);
  report_ledger(report, make_ledger(tracer, "bin"), "bin");
  write_trace(report, tracer, options);
}

}  // namespace netbench
