// Measurement helpers shared by the benchmark's workloads: percentiles,
// layer spans, completion conservation, process/host readers, the
// Prometheus text reader, and result digests. Everything here is the
// benchmark's own bookkeeping; none of it reaches into the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- time -------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- percentiles ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of unsorted `v`: the value of
/// rank ceil(p/100 * n), 1-based. Reorders `v`. 0 for an empty input.
[[nodiscard]] double nearest_rank(std::vector<double>& v, double p);

/// 1-based rank nearest_rank() picks for percentile p over n samples.
[[nodiscard]] std::size_t nearest_rank_index(std::size_t n, double p);

/// Highest percentile on the ladder 50, 90, 99, 99.9, 99.99, 99.999 with
/// at least ten samples ranked beyond it; 0 when not even p50 has ten.
[[nodiscard]] double top_supported_percentile(std::size_t n);

struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_p = 0.0;      // top_supported_percentile(n)
  double top_value = 0.0;  // value at top_p
};

/// Summarize `v` (reordered) with the percentiles above.
[[nodiscard]] Distribution summarize(std::vector<double>& v);

/// Median of a small sample (copies).
[[nodiscard]] double median(std::vector<double> v);

// ---- spans ------------------------------------------------------------------

/// One timed call into a layer. The layer is the name's prefix before the
/// first '.', so "net.wire_pass" belongs to `net`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t run_id = 0;  // the run's seed, so traces of runs can merge
};

/// Self time of spans[i]: its duration minus the union of its direct
/// children's intervals clipped to it (overlapping children count once).
[[nodiscard]] std::int64_t self_time_ns(const std::vector<Span>& spans,
                                        std::size_t i);

/// In-memory span log of one run, written out once at the end. Spans nest
/// through a stack: begin() parents the new span to the innermost open one.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id = 0) : run_id_(run_id) {}

  int begin(std::string name);
  void end(int id);

  /// Record an already-measured child of the innermost open span (used
  /// where the benchmark times sub-steps in a loop).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  [[nodiscard]] std::int64_t self_ns(std::size_t i) const {
    return self_time_ns(spans_, i);
  }

  /// Self time summed per layer.
  [[nodiscard]] std::map<std::string, std::int64_t> self_by_layer() const;

  /// Chrome trace_event JSON: complete ("X") events, microseconds.
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

[[nodiscard]] std::string layer_of(std::string_view span_name);

// ---- completion conservation -------------------------------------------------

/// Every submitted tag must be answered exactly once, in submission order.
/// State is the outstanding window only: an answered tag is forgotten.
class Conservation {
 public:
  void submitted(std::uint64_t tag) { outstanding_.push_back(tag); }
  void answered(std::uint64_t tag);
  void pushed_back(std::uint64_t tag);

  [[nodiscard]] std::uint64_t in_order() const noexcept { return in_order_; }
  [[nodiscard]] std::uint64_t out_of_order() const noexcept {
    return out_of_order_;
  }
  [[nodiscard]] std::uint64_t duplicates() const noexcept {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t pushbacks() const noexcept { return pushbacks_; }
  [[nodiscard]] std::uint64_t missing() const noexcept {
    return outstanding_.size();
  }
  /// Requests that were not answered exactly once, in order.
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return out_of_order_ + duplicates_ + pushbacks_ + missing();
  }

 private:
  enum class Take { kInOrder, kOutOfOrder, kUnknown };
  Take take(std::uint64_t tag);

  std::deque<std::uint64_t> outstanding_;
  std::uint64_t in_order_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t pushbacks_ = 0;
};

// ---- process and host readers -----------------------------------------------

/// User + system CPU seconds of this process, all threads (getrusage).
[[nodiscard]] double process_cpu_s();

/// Aggregate "cpu" line of /proc/stat, in ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
/// Parse the text of /proc/stat; zeros when the cpu line is absent.
[[nodiscard]] CpuTicks parse_proc_stat(std::string_view text);
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Steal share of the ticks between two readings (0 when none passed).
[[nodiscard]] double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Peak resident set of this process in MiB (VmHWM), parsed from the text
/// of /proc/self/status.
[[nodiscard]] double parse_vm_hwm_mb(std::string_view status_text);
[[nodiscard]] double peak_rss_mb();
/// Reset VmHWM to the current resident set (writes "5" to
/// /proc/self/clear_refs); false when the kernel refuses.
[[nodiscard]] bool reset_peak_rss();

[[nodiscard]] std::string read_file(const char* path);

// ---- Prometheus text ---------------------------------------------------------

/// A scrape of the program's /metrics text: sample name (with the
/// flashqos_ prefix and _total suffix as exported) → value, labels kept.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(std::string_view text);

  /// Sum of every sample of `family` across label sets; `label` (if not
  /// empty) must appear inside the label body, e.g. stage="ingest".
  [[nodiscard]] double sum(std::string_view family,
                           std::string_view label = {}) const;

  /// Per-family difference this - before, for counters and sums.
  [[nodiscard]] double delta(const Scrape& before, std::string_view family,
                             std::string_view label = {}) const {
    return sum(family, label) - before.sum(family, label);
  }

 private:
  struct Sample {
    std::string family;
    std::string labels;
    double value = 0.0;
  };
  std::vector<Sample> samples_;
};

/// GET http://127.0.0.1:port/metrics and return the body ("" on error).
[[nodiscard]] std::string http_get_metrics(std::uint16_t port);

// ---- digests ----------------------------------------------------------------

/// 64-bit FNV-1a over raw field values; equality of two digests stands in
/// for field-for-field equality of results too large to keep.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_d(double d);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- output -----------------------------------------------------------------

/// Compact JSON number with all significant digits (17 g).
[[nodiscard]] std::string num(double v);

/// Ordered "name": {"value": v, "unit": u} accumulator.
class MetricSet {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const noexcept {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

}  // namespace perfbench
