// The benchmark's workload interface. A workload builds its inputs from
// the seed, sets the program up (timed as setup_s), then runs identical
// timed passes over one fixed stream, checking every result as it goes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "helpers.hpp"
#include "util/config.hpp"

namespace perfbench {

struct PassStats {
  std::uint64_t requests = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;  // requests not answered correctly
};

/// Simulated-time QoS over the fixed stream (identical for a given seed).
struct SimStats {
  std::uint64_t reads = 0;
  std::uint64_t deferred = 0;
  std::vector<double> delays_ms;  // admission delay of every deferred read
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Program work before the first timed request (timed as setup_s).
  virtual void setup() = 0;

  /// Untimed benchmark bookkeeping after set-up: the references the
  /// correctness gate compares against.
  virtual void prepare() = 0;

  /// One timed pass over the whole stream, checked against the reference.
  virtual PassStats pass() = 0;

  /// Simulated-time outcomes of the fixed stream.
  [[nodiscard]] virtual const SimStats& sim() const = 0;

  /// Failures visible only in the exported counters between two scrapes
  /// taken around the timed phase (clamps, pushbacks, dropped answers).
  [[nodiscard]] virtual std::uint64_t counter_failures(
      const Scrape& before, const Scrape& after) const;

  /// Traced run: time each layer from outside, recording spans into `log`
  /// and per-layer metrics into `m`.
  virtual void trace_layers(SpanLog& log, MetricSet& m) = 0;

  /// Throughput of the traced run's main leg (the same work as pass()).
  [[nodiscard]] virtual double traced_kreq_s() const = 0;

  /// Requests the traced legs' own checks found wrong.
  [[nodiscard]] virtual std::uint64_t trace_failures() const = 0;

  /// Per-layer metrics (full names, or whole layers) this workload's path
  /// never reaches; they read 0.
  [[nodiscard]] virtual std::vector<std::string> layers_not_on_path() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_served_oltp(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_backlog_burst(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_sweep_paper(std::uint64_t seed);

// ---- shared pieces -----------------------------------------------------------

/// Parse an INI text with the program's own config reader.
[[nodiscard]] flashqos::Config config_from(const std::string& text);

/// Fold a served read into the simulated-time statistics.
void fold_outcome(SimStats& s, const flashqos::core::RequestOutcome& o);

/// Field-for-field equality of two aggregate reports.
[[nodiscard]] bool same_report(const flashqos::core::IntervalReport& a,
                               const flashqos::core::IntervalReport& b);
[[nodiscard]] bool same_stream_result(const flashqos::core::StreamResult& a,
                                      const flashqos::core::StreamResult& b);

/// Digest of every outcome field and report of a materialized result.
[[nodiscard]] std::uint64_t digest(const flashqos::core::PipelineResult& r);

/// Scrape this process's /metrics (the exporter is started by main).
[[nodiscard]] Scrape scrape_metrics();

/// Per-layer metrics derived from the engine counters between two
/// scrapes: core.*, retrieval.* and flashsim.* ratios over `requests`.
/// `engine_ns` is the wall time of the engine leg the scrapes bracket,
/// `sim_span_ns` the simulated span of the stream, `devices` the array.
void engine_counter_metrics(MetricSet& m, const Scrape& before,
                            const Scrape& after, double requests,
                            double engine_ns, double sim_span_ns,
                            double devices);

/// One cold P_k sampling at `scheme`'s parameters with the memo off.
[[nodiscard]] double cold_pk_sample_s(
    const flashqos::decluster::AllocationScheme& scheme);

/// Every per-layer metric name with its unit, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

}  // namespace perfbench
