#include "verify/stream_oracle.hpp"

#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "trace/cursor.hpp"
#include "trace/disksim_format.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "verify/result_compare.hpp"

namespace flashqos::verify {
namespace {

/// Instruments that legitimately differ between the reference run() leg and
/// the audited legs: wall-clock stage timings (nondeterministic values) and
/// byte/batch accounting that depends on how the stream was chunked.
/// Everything else must be identical instrument by instrument.
bool excluded_instrument(std::string_view name) {
  return name == "pipeline.interval_ns" || name.starts_with("trace.stream.");
}

bool metrics_snapshots_match_local(const obs::MetricsSnapshot& want,
                                   const obs::MetricsSnapshot& got,
                                   std::string* why) {
  return metrics_snapshots_match(want, got, excluded_instrument, why);
}

struct Snapshots {
  obs::MetricsSnapshot reg;
  obs::TimeSeriesSnapshot ts;
};

}  // namespace

Report verify_streaming(const decluster::AllocationScheme& scheme,
                        const StreamCheckParams& params) {
  Report report("streaming-identity N=" + std::to_string(scheme.devices()));

  auto& reg = obs::MetricRegistry::global();
  auto& tsr = obs::TimeSeriesRegistry::global();
  auto& tracer = obs::Tracer::global();
  // Per-request trace records interleave differently with streaming's
  // incremental interval records; registry/series snapshots are the
  // order-insensitive contract, so the ring stays off for the comparison.
  const bool tracer_was_enabled = tracer.enabled();
  tracer.set_enabled(false);

  // Traces: bucket-domain synthetic, block-domain Exchange-style (bursty,
  // hot-set drift), a write-mixed variant, and a multi-tenant mix.
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = 2000;
  sp.seed = params.seed;
  const auto synthetic = trace::generate_synthetic(sp);
  const auto wp = trace::exchange_params(params.trace_scale, params.seed);
  const auto exchange = trace::generate_workload(wp);
  auto wwp = wp;
  wwp.write_fraction = 0.2;
  const auto with_writes = trace::generate_workload(wwp);
  trace::MultiTenantParams mt;
  mt.intervals = 60;
  mt.tenants = {{.requests_per_interval = 3, .bucket_pool = 6},
                {.requests_per_interval = 12, .bucket_pool = 6}};
  mt.seed = params.seed;
  const auto tenant_trace = trace::generate_multi_tenant(mt);

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

  const auto baseline = [&](const core::PipelineConfig& cfg,
                            const trace::Trace& t)
      -> std::pair<core::PipelineResult, Snapshots> {
    reg.reset();
    tsr.reset();
    auto r = core::QosPipeline(scheme, cfg).run(t);
    return {std::move(r), Snapshots{reg.snapshot(), tsr.snapshot()}};
  };

  const auto check_leg = [&](const std::string& name,
                             const core::PipelineResult& want,
                             const Snapshots& snaps,
                             const core::StreamResult& got) {
    std::string why;
    bool ok = stream_result_matches(want, got, &why);
    if (ok) ok = metrics_snapshots_match_local(snaps.reg, reg.snapshot(), &why);
    if (ok) ok = series_snapshots_match(snaps.ts, tsr.snapshot(), &why);
    report.add(name, ok, ok ? "" : why);
  };

  /// One config × trace: run() once, then the cursor path at every batch
  /// size (1 exercises the per-event boundary, 7 straddles every
  /// same-instant burst, 4096 is the production default).
  const auto audit = [&](const std::string& label,
                         const core::PipelineConfig& cfg, const trace::Trace& t,
                         SimTime horizon) {
    const auto [want, snaps] = baseline(cfg, t);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}}) {
      reg.reset();
      tsr.reset();
      trace::VectorCursor cursor(t);
      const auto got = core::QosPipeline(scheme, cfg).run_stream(
          cursor, {.batch_size = batch, .horizon = horizon});
      check_leg(label + " stream b=" + std::to_string(batch), want, snaps, got);
    }
  };

  {
    core::PipelineConfig cfg;  // online deterministic: the flat line
    audit("online/det/fim @synthetic", cfg, synthetic, 0);
  }
  {
    core::PipelineConfig cfg;  // aligned batches + per-slice FIM mining
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    audit("aligned/det/fim @exchange", cfg, exchange, 0);
  }
  {
    core::PipelineConfig cfg;  // no admission, no mining
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    cfg.admission = core::AdmissionMode::kNone;
    cfg.mapping = core::MappingMode::kModulo;
    audit("aligned/none/modulo @exchange", cfg, exchange, 0);
  }
  {
    core::PipelineConfig cfg;  // statistical admission: Q estimation state
    cfg.admission = core::AdmissionMode::kStatistical;
    cfg.epsilon = 0.01;
    cfg.p_table = p_table;
    audit("online/stat/fim @exchange", cfg, exchange, 0);
  }
  {
    core::PipelineConfig cfg;  // replicated page programs in the stream
    audit("online/det/fim @writes", cfg, with_writes, 0);
  }
  {
    core::PipelineConfig cfg;  // RAID-1 baseline path
    cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
    audit("primary-only @synthetic", cfg, synthetic, 0);
  }
  {
    core::PipelineConfig cfg;  // multi-tenant WFQ front end, bronze sheds
    cfg.tenants = {{.name = "gold",
                    .weight = 3.0,
                    .reservation = 2,
                    .queue_capacity = 16,
                    .mark_threshold = 12},
                   {.name = "bronze",
                    .weight = 1.0,
                    .reservation = 0,
                    .queue_capacity = 4,
                    .mark_threshold = 3}};
    audit("tenant-wfq @multi-tenant", cfg, tenant_trace, 0);

    // Same config through the generator cursor instead of the vector
    // adapter: the synthetic producers must honor the cursor contract too.
    const auto [want, snaps] = baseline(cfg, tenant_trace);
    reg.reset();
    tsr.reset();
    const auto cursor = trace::make_multi_tenant_cursor(mt);
    const auto got = core::QosPipeline(scheme, cfg).run_stream(*cursor);
    check_leg("tenant-wfq @multi-tenant generator cursor", want, snaps, got);
  }
  {
    core::PipelineConfig cfg;  // fault windows need the explicit horizon
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    cfg.faults.outages.push_back(
        {.device = 0, .fail_at = from_ms(1.0), .recover_at = from_ms(6.0)});
    cfg.faults.outages.push_back(
        {.device = scheme.devices() - 1,
         .fail_at = from_ms(2.0),
         .recover_at = core::DeviceFailure::kNeverRecovers});
    const SimTime horizon = exchange.events.back().time + cfg.qos_interval;
    audit("aligned/det/fim +failures @exchange", cfg, exchange, horizon);
  }

  // Generator cursors against their materialized twins: the streaming
  // producers promise the exact events drain_cursor() would collect.
  {
    core::PipelineConfig cfg;
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    const auto [want, snaps] = baseline(cfg, exchange);
    reg.reset();
    tsr.reset();
    const auto cursor = trace::make_workload_cursor(wp);
    const auto got = core::QosPipeline(scheme, cfg).run_stream(*cursor);
    check_leg("workload generator cursor @exchange", want, snaps, got);
  }
  {
    core::PipelineConfig cfg;
    const auto [want, snaps] = baseline(cfg, synthetic);
    reg.reset();
    tsr.reset();
    const auto cursor = trace::make_synthetic_cursor(sp);
    const auto got = core::QosPipeline(scheme, cfg).run_stream(*cursor);
    check_leg("synthetic generator cursor", want, snaps, got);
  }

  // Chunked file-format reader: serialize the Exchange trace to DiskSim
  // ASCII, then replay the bytes through the streaming cursor with a chunk
  // size small enough that every record straddles a chunk edge, against
  // read_disksim_ascii + run() on the same bytes. (Both sides share the
  // per-line parser, so this pins the framing, not the parsing.)
  {
    std::ostringstream serialized;
    trace::write_disksim_ascii(exchange, serialized);
    const std::string text = serialized.str();
    std::istringstream replayed(text);
    const auto parsed = trace::read_disksim_ascii(
        replayed, exchange.name, exchange.volumes, exchange.report_interval);
    core::PipelineConfig cfg;
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    const auto [want, snaps] = baseline(cfg, parsed);
    reg.reset();
    tsr.reset();
    trace::DisksimCursor cursor(
        std::make_unique<trace::MemoryByteSource>(text, 61), exchange.name,
        exchange.volumes, exchange.report_interval);
    const auto got =
        core::QosPipeline(scheme, cfg).run_stream(cursor, {.batch_size = 7});
    std::string why;
    bool ok = cursor.parse_errors() == 0;
    if (!ok) {
      why = std::to_string(cursor.parse_errors()) + " parse errors on " +
            "well-formed input";
    }
    if (ok) ok = stream_result_matches(want, got, &why);
    if (ok) ok = metrics_snapshots_match_local(snaps.reg, reg.snapshot(), &why);
    if (ok) ok = series_snapshots_match(snaps.ts, tsr.snapshot(), &why);
    report.add("disksim chunked reader (chunk=61B, batch=7)", ok, why);
  }

  // An empty stream must return an empty result with zero registry side
  // effects — the exact twin of run()'s empty-trace early-out.
  {
    reg.reset();
    tsr.reset();
    const auto before_reg = reg.snapshot();
    const auto before_ts = tsr.snapshot();
    trace::Trace empty;
    empty.report_interval = synthetic.report_interval;
    empty.volumes = 1;
    trace::VectorCursor cursor(empty);
    core::PipelineConfig cfg;
    const auto got = core::QosPipeline(scheme, cfg).run_stream(cursor);
    std::string why;
    bool ok = got.requests == 0 && got.intervals.empty() &&
              got.deadline_violations == 0 && got.tenant_usage.empty();
    if (!ok) why = "non-empty result from an empty stream";
    if (ok) ok = metrics_snapshots_match_local(before_reg, reg.snapshot(), &why);
    if (ok) ok = series_snapshots_match(before_ts, tsr.snapshot(), &why);
    report.add("empty stream: empty result, no registry effects", ok, why);
  }

  // Aggregate-only mode (keep_intervals = false) drops exactly one thing:
  // the per-reporting-interval reports. Overall fold, counts, registry,
  // and time-series must be untouched — the knob exists so trace-scale
  // replays stay O(batch) in memory, not to change any number.
  {
    core::PipelineConfig cfg;
    const auto [want, snaps] = baseline(cfg, synthetic);
    reg.reset();
    tsr.reset();
    trace::VectorCursor cursor(synthetic);
    const auto got = core::QosPipeline(scheme, cfg).run_stream(
        cursor, {.keep_intervals = false});
    std::string why;
    bool ok = got.intervals.empty();
    if (!ok) why = "intervals retained despite keep_intervals = false";
    if (ok) {
      ok = count_eq(got.requests, want.outcomes.size(), "request count", 0,
                    &why) &&
           count_eq(got.deadline_violations, want.deadline_violations,
                    "deadline_violations", 0, &why) &&
           interval_report_eq(want.overall, got.overall, 0, &why);
    }
    if (ok) ok = metrics_snapshots_match_local(snaps.reg, reg.snapshot(), &why);
    if (ok) ok = series_snapshots_match(snaps.ts, tsr.snapshot(), &why);
    report.add("keep_intervals=false: aggregate-only, nothing else moves", ok,
               why);
  }

  // Mutation check: misdrain_for_test seeds the off-by-one drain bound
  // (<= instead of <), dispatching groups at the ingestion frontier
  // before later batches deliver their same-instant members, so bursts
  // straddling a batch get scheduled split. The synthetic trace emits
  // whole same-instant bursts every interval, so a small batch size is
  // guaranteed to straddle them. If no leg diverges, the identity checks
  // above prove nothing.
  {
    std::size_t tripped = 0;
    const auto try_trip = [&](core::PipelineConfig cfg, std::size_t batch) {
      cfg.mapping = core::MappingMode::kModulo;  // keep FIM slices out of it
      reg.reset();
      tsr.reset();
      const auto want = core::QosPipeline(scheme, cfg).run(synthetic);
      reg.reset();
      tsr.reset();
      trace::VectorCursor cursor(synthetic);
      const auto got = core::QosPipeline(scheme, cfg).run_stream(
          cursor, {.batch_size = batch, .misdrain_for_test = true});
      if (!stream_result_matches(want, got, nullptr)) ++tripped;
    };
    core::PipelineConfig online;
    try_trip(online, 1);
    core::PipelineConfig aligned;
    aligned.retrieval = core::RetrievalMode::kIntervalAligned;
    try_trip(aligned, 7);
    report.add("misdrain_for_test: seeded drain-bound defect detected",
               tripped > 0,
               tripped > 0 ? std::to_string(tripped) + " of 2 legs diverged"
                           : "broken read-ahead bound went unnoticed");
  }

  tracer.set_enabled(tracer_was_enabled);
  return report;
}

}  // namespace flashqos::verify
