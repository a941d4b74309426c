// The benchmark's own measurement machinery, kept free of netmon types so
// tests/selftest.cpp can check it in isolation: percentiles with sample
// counts, per-window percentiles and rates, and the in-memory span tracer
// with self-time arithmetic.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>


namespace netbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time (ns) used so far by `clock`: CLOCK_PROCESS_CPUTIME_ID (every
/// thread of the process) or CLOCK_THREAD_CPUTIME_ID (the caller). Unlike
/// wall time, it leaves out time a thread spends waiting to be woken and
/// time the hypervisor steals.
inline std::int64_t cpu_ns(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------
// Percentiles

/// 1-based nearest rank of quantile q in a sample of n: ceil(q * n),
/// within [1, n] (the epsilon absorbs rounding in q * n, e.g. 0.9 * 100).
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least q*n samples at or below it. Throws on an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// A latency sample reduced to a median and one tail percentile, with
/// the sample count and how many samples lie strictly beyond the tail.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  std::size_t beyond_tail = 0;
};

/// Median plus the `tail_q` quantile of `values` (any order). The tail is
/// only meaningful when beyond_tail >= 10; callers print the counts.
inline Summary summarize(std::vector<double> values, double tail_q) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  s.tail_q = tail_q;
  if (values.empty()) return s;
  s.p50 = quantile_sorted(values, 0.5);
  s.tail = quantile_sorted(values, tail_q);
  s.beyond_tail = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), s.tail));
  return s;
}

/// The `q` quantile computed separately over consecutive windows of
/// `window` (in the units of `at`, e.g. scheduled send times): one value
/// per window holding at least `min_samples` samples. `values[i]` was
/// observed at `at[i]`; `at` is ascending. A host stall inflates the
/// windows it falls in, not the others.
inline std::vector<double> window_quantiles(const std::vector<double>& values,
                                            const std::vector<double>& at,
                                            double window, double q,
                                            std::size_t min_samples) {
  std::vector<double> per_window, bucket;
  std::size_t i = 0;
  while (i < values.size()) {
    const double end = (std::floor(at[i] / window) + 1.0) * window;
    bucket.clear();
    for (; i < values.size() && at[i] < end; ++i) bucket.push_back(values[i]);
    if (bucket.size() >= min_samples)
      per_window.push_back(summarize(bucket, q).tail);
  }
  return per_window;
}

/// The highest of p50/p90/p99/p99.9 that has at least `min_beyond`
/// samples beyond it in a sample of `n` (0.5 when none does).
inline double supported_tail(std::size_t n, std::size_t min_beyond = 10) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999})
    if (n > 0 && n - nearest_rank(n, q) >= min_beyond) best = q;
  return best;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Events per second in each full window of `window_ns` from `start_ns`:
/// `times` are event timestamps in ns (any order; negative ones, such as
/// failed requests, are skipped). Windows run up to the last event; the
/// partial window at the end is dropped.
inline std::vector<double> window_rates(const std::vector<std::int64_t>& times,
                                        std::int64_t start_ns,
                                        std::int64_t window_ns) {
  std::int64_t last = start_ns;
  for (std::int64_t t : times) last = std::max(last, t);
  const std::size_t full =
      static_cast<std::size_t>((last - start_ns) / window_ns);
  std::vector<double> counts(full, 0.0);
  for (std::int64_t t : times) {
    if (t < start_ns) continue;
    const std::size_t w = static_cast<std::size_t>((t - start_ns) / window_ns);
    if (w < full) counts[w] += 1.0;
  }
  for (double& c : counts) c *= 1e9 / static_cast<double>(window_ns);
  return counts;
}

// ---------------------------------------------------------------------
// Span tracer

/// One traced interval: a call the benchmark made into a layer.
struct Span {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t op = 0;      // the request / bin / solve it belongs to
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children are clipped to the
/// parent, and overlapping children are counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ns);
      b = std::min(b, p.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
      } else {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      }
    }
    if (open) covered += run_end - run_start;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

/// In-memory span store. Spans are appended in O(1) into pre-reserved
/// storage and written out once, at exit.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /// Interned id of a span name.
  std::uint32_t id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Records a finished span; returns its index (a parent handle). A
  /// parent is always recorded before its children.
  std::int32_t add(std::uint32_t name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::uint64_t op) {
    if (parent >= static_cast<std::int32_t>(spans_.size()))
      throw std::logic_error("span parent recorded after its child");
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Opens a span now; close it with end().
  std::int32_t begin(std::uint32_t name, std::int32_t parent,
                     std::uint64_t op) {
    return add(name, now_ns(), 0, parent, op);
  }
  void end(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }


  /// Writes one JSON object per span (name, start/end ns, parent, op,
  /// self ns). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"self_ns\":" << self[i] << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Where the operations under one kind of root span spent their time:
/// the mean per operation of the root's duration (the measured total),
/// of every descendant span's self time by name, and of the root's own
/// self time — the part no traced call covers (unattributed). When
/// sibling spans do not overlap (the benchmark's calls are sequential)
/// and children lie inside their parents, the named self times plus the
/// unattributed remainder add up to the total exactly.
struct Ledger {
  std::size_t ops = 0;
  double total_ms = 0.0;
  double unattributed_ms = 0.0;
  std::vector<std::pair<std::string, double>> self_ms;  // per name
};

/// `keep`, when given, restricts the ledger to the operations (root span
/// op ids) it accepts.
inline Ledger make_ledger(
    const Tracer& tracer, const std::string& root,
    const std::function<bool(std::uint64_t)>& keep = nullptr) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::int32_t> root_of(spans.size());
  std::vector<double> by_name;
  Ledger ledger;
  double total_ns = 0.0, unattributed_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? static_cast<std::int32_t>(i)
                              : root_of[static_cast<std::size_t>(s.parent)];
    const Span& r = spans[static_cast<std::size_t>(root_of[i])];
    if (tracer.name(r.name) != root || (keep && !keep(r.op))) continue;
    if (s.parent < 0) {
      ++ledger.ops;
      total_ns += static_cast<double>(s.end_ns - s.start_ns);
      unattributed_ns += static_cast<double>(self[i]);
      continue;
    }
    if (by_name.size() <= s.name) by_name.resize(s.name + 1, -1.0);
    if (by_name[s.name] < 0.0) by_name[s.name] = 0.0;
    by_name[s.name] += static_cast<double>(self[i]);
  }
  const double per_op = ledger.ops > 0 ? 1e-6 / static_cast<double>(ledger.ops)
                                       : 0.0;
  ledger.total_ms = total_ns * per_op;
  ledger.unattributed_ms = unattributed_ns * per_op;
  for (std::size_t n = 0; n < by_name.size(); ++n)
    if (by_name[n] >= 0.0)
      ledger.self_ms.emplace_back(tracer.name(static_cast<std::uint32_t>(n)),
                                  by_name[n] * per_op);
  return ledger;
}

}  // namespace netbench
