// Tests of the benchmark's own machinery (src/harness.hpp, src/mix.hpp):
// percentiles and sample counts, per-window rates, the seeded query mix,
// span self-time arithmetic and the ledger. Prints one line per failed check
// and exits non-zero when any failed. Run: netbench_selftest
#include <cstdio>

#include "harness.hpp"
#include "mix.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace netbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100..1, unsorted
  const Summary s = summarize(v, 0.99);
  CHECK(s.n == 100);
  CHECK(s.p50 == 50.0);     // nearest rank: ceil(0.5 * 100) = 50th
  CHECK(s.tail == 99.0);    // ceil(0.99 * 100) = 99th
  CHECK(s.beyond_tail == 1);
  const Summary p90 = summarize(v, 0.9);
  CHECK(p90.tail == 90.0 && p90.beyond_tail == 10);

  CHECK(quantile_sorted({7.0}, 0.5) == 7.0);
  CHECK(quantile_sorted({1.0, 2.0, 3.0}, 0.5) == 2.0);
  CHECK(quantile_sorted({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.0);
  CHECK(quantile_sorted({1.0, 2.0, 3.0, 4.0}, 1.0) == 4.0);
  CHECK(quantile_sorted({1.0, 2.0, 3.0, 4.0}, 0.0) == 1.0);
  bool threw = false;
  try {
    quantile_sorted({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  // Ties: everything equal to the tail is not "beyond" it.
  const Summary ties = summarize({1, 2, 2, 2, 2}, 0.9);
  CHECK(ties.tail == 2.0 && ties.beyond_tail == 0);
  // A failed request (infinite latency) lands in the tail.
  const Summary failed = summarize({1, 1, 1, 1e300 * 1e300}, 0.99);
  CHECK(failed.tail > 1e308);

  // Per-window tails: one stalled window moves the pooled p99 and its own
  // window's, not the others'.
  std::vector<double> lat, at;
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < 200; ++i) {
      at.push_back(w * 1000.0 + i * 5.0);
      lat.push_back(w == 2 && i < 20 ? 50.0 : 1.0 + i * 0.001);
    }
  const std::vector<double> per = window_quantiles(lat, at, 1000.0, 0.99, 100);
  CHECK(per.size() == 5);
  CHECK(per[2] == 50.0 && per[0] < 2.0 && per[4] < 2.0);
  CHECK(summarize(per, 0.5).p50 < 2.0);
  CHECK(summarize(lat, 0.99).tail == 50.0);
  // Windows below the sample floor are skipped.
  CHECK(window_quantiles(lat, at, 1000.0, 0.99, 201).empty());
  CHECK(window_quantiles(lat, at, 500.0, 0.5, 100).size() == 10);
  CHECK(window_quantiles({}, {}, 1000.0, 0.99, 1).empty());

  // The highest percentile with at least ten samples beyond it.
  CHECK(supported_tail(5) == 0.5);
  CHECK(supported_tail(100) == 0.9);
  CHECK(supported_tail(999) == 0.9);
  CHECK(supported_tail(1000) == 0.99);
  CHECK(supported_tail(10000) == 0.999);
  CHECK(mean({}) == 0.0 && mean({1.0, 2.0, 6.0}) == 3.0);
}

void test_window_rates() {
  // 2.5 s of events from t = 10 ns: 3 in the first second, 1 in the
  // second, the half second after that is a partial window and dropped.
  const std::int64_t s = 10, sec = 1000000000;
  const std::vector<std::int64_t> t = {s + 1, s + 5, -1, s + sec - 1,
                                       s + sec + 7, s + 2 * sec + sec / 2};
  const std::vector<double> r = window_rates(t, s, sec);
  CHECK(r.size() == 2 && r[0] == 3.0 && r[1] == 1.0);
  // Half-second windows report per-second rates.
  const std::vector<double> h = window_rates(t, s, sec / 2);
  CHECK(h.size() == 5 && h[0] == 4.0 && h[1] == 2.0 && h[2] == 2.0);
  CHECK(window_rates({}, 0, sec).empty());
  CHECK(window_rates({s - 1}, s, sec).empty());
}

void test_mix_determinism() {
  auto encoded = [](std::uint64_t seed, std::size_t first, std::size_t rest) {
    MixGenerator generator(seed);
    Mix mix;
    generator.extend(mix, first);
    generator.extend(mix, rest);
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& q : mix.requests)
      out.push_back(netmon::serve::encode_request(q));
    return out;
  };
  const auto a = encoded(42, 300, 700);
  CHECK(a.size() == 1000);
  CHECK(a == encoded(42, 1000, 0));  // same seed, same mix, in any chunks
  CHECK(a != encoded(43, 1000, 0));  // another seed, another mix
  MixGenerator generator(7);
  Mix mix;
  generator.extend(mix, 2000);
  std::size_t per_kind[kKinds] = {};
  bool ids = true;
  for (std::size_t i = 0; i < mix.requests.size(); ++i) {
    ++per_kind[static_cast<int>(mix.kinds[i])];
    ids = ids && mix.requests[i].id == i + 1;
  }
  CHECK(ids);
  for (int k = 0; k < kKinds; ++k) CHECK(per_kind[k] > 0);
  // 55% hot repeats: expect ~1100 of 2000 (sd ~22).
  CHECK(per_kind[0] > 1000 && per_kind[0] < 1200);
}

void test_self_times() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover 10..50;
  // grandchild [12,18) inside the first child.
  std::vector<Span> spans = {
      {0, 0, 100, -1, 1},
      {1, 10, 30, 0, 1},
      {1, 20, 50, 0, 1},
      {2, 12, 18, 1, 1},
  };
  const auto self = self_times(spans);
  CHECK(self[0] == 60);  // 100 - 40 covered
  CHECK(self[1] == 14);  // 20 - 6
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);

  // A child sticking out of its parent is clipped; a disjoint one ignored.
  spans = {{0, 100, 200, -1, 1}, {1, 50, 150, 0, 1}, {1, 300, 400, 0, 1}};
  const auto clipped = self_times(spans);
  CHECK(clipped[0] == 50);

  // Adjacent children do not double count; no children -> full duration.
  spans = {{0, 0, 10, -1, 1}, {1, 0, 5, 0, 1}, {1, 5, 10, 0, 1},
           {2, 3, 4, -1, 2}};
  const auto adjacent = self_times(spans);
  CHECK(adjacent[0] == 0 && adjacent[3] == 1);
}

void test_ledger() {
  Tracer tracer(16);
  const auto root = tracer.id("op");
  const auto a = tracer.id("layer.a");
  const auto b = tracer.id("layer.b");
  const auto other = tracer.id("other");
  // Two ops: sequential children, some glue between them.
  std::int32_t r = tracer.add(root, 0, 100, -1, 1);
  tracer.add(a, 5, 45, r, 1);
  const std::int32_t bb = tracer.add(b, 50, 90, r, 1);
  tracer.add(a, 60, 70, bb, 1);  // a nested inside b
  r = tracer.add(root, 200, 260, -1, 2);
  tracer.add(a, 200, 250, r, 2);
  tracer.add(other, 0, 1000, -1, 3);  // another root kind: excluded

  const Ledger ledger = make_ledger(tracer, "op");
  CHECK(ledger.ops == 2);
  CHECK(ledger.total_ms == (100.0 + 60.0) / 2 * 1e-6);
  CHECK(ledger.unattributed_ms == (20.0 + 10.0) / 2 * 1e-6);
  double attributed = 0.0;
  for (const auto& [name, ms] : ledger.self_ms) {
    attributed += ms;
    if (name == "layer.a") CHECK(ms == (40.0 + 10.0 + 50.0) / 2 * 1e-6);
    if (name == "layer.b") CHECK(ms == 30.0 / 2 * 1e-6);
    CHECK(name != "other" && name != "op");
  }
  // Self times plus the unattributed remainder account for the total.
  CHECK(std::abs(attributed + ledger.unattributed_ms - ledger.total_ms) <
        1e-15);

  // An op filter keeps only the accepted ops' roots and descendants.
  const Ledger second =
      make_ledger(tracer, "op", [](std::uint64_t op) { return op == 2; });
  CHECK(second.ops == 1);
  CHECK(second.total_ms == 60.0 * 1e-6);
  CHECK(second.unattributed_ms == 10.0 * 1e-6);
  CHECK(second.self_ms.size() == 1 && second.self_ms[0].first == "layer.a" &&
        second.self_ms[0].second == 50.0 * 1e-6);

  bool threw = false;
  try {
    tracer.add(a, 0, 1, 99, 1);  // parent not recorded yet
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_percentiles();
  test_window_rates();
  test_mix_determinism();
  test_self_times();
  test_ledger();
  if (failures == 0) std::printf("netbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
