#include "verify/obs_check.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "design/block_design.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "retrieval/maxflow.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace flashqos::verify {
namespace {

inline constexpr std::size_t kPathCount = 10;

/// Ground truth recomputed from the replay results the registry claims to
/// describe — the same fold the engine's per-outcome observability folder
/// performs.
struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t violations = 0;
  std::int64_t response_sum = 0;
  std::array<std::uint64_t, kPathCount> by_path{};
};

void tally(const core::PipelineResult& r, Tally& t) {
  t.requests += r.outcomes.size();
  t.violations += r.deadline_violations;
  for (const auto& o : r.outcomes) {
    ++t.by_path[static_cast<std::size_t>(o.path)];
    if (o.failed) {
      ++t.failed;
      continue;
    }
    if (o.is_write) {
      ++t.writes;
      continue;
    }
    ++t.reads;
    t.response_sum += o.response();
    if (o.deferred()) ++t.deferred;
  }
}

/// Expected content of one windowed-series point, built with the same
/// associative/commutative merges obs::TimeSeries uses.
struct WinPoint {
  std::int64_t sum = 0;
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  SimTime first_time = 0;

  void add(SimTime at, std::int64_t value) {
    if (count == 0) {
      min = value;
      max = value;
      first_time = at;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
      first_time = std::min(first_time, at);
    }
    sum += value;
    ++count;
  }
};

/// Ground truth for the windowed time-series: every record the pipeline's
/// window tallies should have produced, rederived from returned outcomes
/// with the documented rules (dispatch-instant keyed, one record per
/// outcome per applicable series). Windows merge in a map, so the expected
/// content is order-independent — exactly the series determinism contract.
struct WindowOracle {
  struct ExpSeries {
    SimTime width = 0;
    std::map<std::int64_t, WinPoint> windows;
  };
  std::map<std::pair<std::string, std::string>, ExpSeries> series;

  void rec(const std::string& name, const std::string& labels, SimTime width,
           SimTime at, std::int64_t value) {
    auto& s = series[{name, labels}];
    s.width = width;
    s.windows[at / width].add(at, value);
  }

  void add_run(const core::PipelineConfig& cfg, const core::PipelineResult& r) {
    const SimTime T = cfg.qos_interval;
    const bool stat_mode = cfg.admission == core::AdmissionMode::kStatistical;
    const bool tenant_mode = !cfg.tenants.empty();
    for (const auto& o : r.outcomes) {
      const SimTime at = o.dispatch;
      if (o.is_write) {
        rec("win.writes", "", T, at, 1);
        continue;
      }
      if (o.failed) {
        if (o.path == core::RetrievalPath::kShed) {
          rec("win.shed", "", T, at, 1);
          rec("win.tenant.shed",
              "tenant=\"" + cfg.tenants[o.tenant].name + "\"", T, at, 1);
        } else {
          rec("win.failed", "", T, at, 1);
        }
        continue;
      }
      rec("win.reads", "", T, at, 1);
      rec("win.response_ns", "", T, at, o.response());
      rec("win.device.reads", "device=\"" + std::to_string(o.device) + "\"", T,
          at, 1);
      if (stat_mode) rec("win.q_ppm", "", T, at, o.q_ppm);
      if (o.path == core::RetrievalPath::kDegraded) {
        rec("win.degraded", "", T, at, 1);
      }
      if (tenant_mode) {
        rec("win.tenant.reads",
            "tenant=\"" + cfg.tenants[o.tenant].name + "\"", T, at, 1);
      }
    }
  }

  /// The ring-retention rule: per residue class (window mod capacity) only
  /// the highest window ever recorded survives to the snapshot.
  static std::map<std::int64_t, WinPoint> retained(
      const std::map<std::int64_t, WinPoint>& all, std::size_t capacity) {
    const auto cap = static_cast<std::int64_t>(capacity);
    std::map<std::int64_t, std::int64_t> newest;  // residue -> window
    for (const auto& [w, p] : all) {
      auto [it, fresh] = newest.try_emplace(w % cap, w);
      if (!fresh && w > it->second) it->second = w;
    }
    std::map<std::int64_t, WinPoint> out;
    for (const auto& [res, w] : newest) out.emplace(w, all.at(w));
    return out;
  }
};

/// Count exact-equality divergences between the expected windows and an
/// exported snapshot, in both directions. `first_diff` (optional) receives
/// a description of the first divergence for the report.
std::uint64_t window_divergences(const WindowOracle& oracle,
                                 const obs::TimeSeriesSnapshot& snap,
                                 std::string* first_diff) {
  std::uint64_t diverged = 0;
  const auto note = [&](const std::string& msg) {
    ++diverged;
    if (first_diff != nullptr && first_diff->empty()) *first_diff = msg;
  };
  for (const auto& [key, exp] : oracle.series) {
    const std::string id = key.first + "{" + key.second + "}";
    const auto* s = snap.find(key.first, key.second);
    if (s == nullptr) {
      note("missing series " + id);
      continue;
    }
    if (s->width != exp.width) note(id + ": width mismatch");
    const auto want = WindowOracle::retained(exp.windows,
                                             obs::kDefaultSeriesCapacity);
    if (s->points.size() != want.size()) {
      note(id + ": " + std::to_string(s->points.size()) + " points != expected " +
           std::to_string(want.size()));
    }
    for (const auto& [w, p] : want) {
      const auto* got = s->find_window(w);
      if (got == nullptr) {
        note(id + ": missing window " + std::to_string(w));
        continue;
      }
      if (got->sum != p.sum || got->count != p.count || got->min != p.min ||
          got->max != p.max || got->first_time != p.first_time) {
        note(id + " window " + std::to_string(w) + ": {sum=" +
             std::to_string(got->sum) + ",count=" + std::to_string(got->count) +
             ",min=" + std::to_string(got->min) + ",max=" +
             std::to_string(got->max) + ",first=" +
             std::to_string(got->first_time) + "} != expected {sum=" +
             std::to_string(p.sum) + ",count=" + std::to_string(p.count) +
             ",min=" + std::to_string(p.min) + ",max=" + std::to_string(p.max) +
             ",first=" + std::to_string(p.first_time) + "}");
      }
    }
  }
  // The reverse direction: an exported non-empty series the outcomes cannot
  // explain is fiction. (Empty series are fine — created by a replay that
  // never produced the quantity.)
  for (const auto& s : snap.series) {
    if (s.points.empty()) continue;
    if (oracle.series.find({s.name, s.labels}) == oracle.series.end()) {
      note("unexpected series " + s.name + "{" + s.labels + "}");
    }
  }
  return diverged;
}

void check_eq(Report& report, const std::string& name, std::uint64_t got,
              std::uint64_t want) {
  report.add(name, got == want,
             got == want ? std::string{}
                         : std::to_string(got) + " != expected " +
                               std::to_string(want));
}

std::uint64_t cval(const obs::MetricsSnapshot& snap, std::string_view name,
                   std::string_view labels = {}) {
  const auto* c = snap.find_counter(name, labels);
  return c != nullptr ? c->value : 0;
}

/// Every histogram must account for exactly the events recorded into it:
/// bucket counts sum to `count`, the exact multiset (when held) sums to it
/// too, and nearest-rank percentiles are monotone and bounded by max.
void check_histogram_consistency(Report& report, const obs::MetricsSnapshot& snap) {
  for (const auto& h : snap.histograms) {
    const std::string label =
        h.labels.empty() ? h.name : h.name + "{" + h.labels + "}";
    std::uint64_t bucket_sum = 0;
    for (const auto& b : h.buckets) bucket_sum += b.count;
    check_eq(report, label + ": bucket counts sum to count", bucket_sum, h.count);
    if (h.exact) {
      std::uint64_t value_sum = 0;
      for (const auto& [v, c] : h.values) value_sum += c;
      check_eq(report, label + ": exact values sum to count", value_sum, h.count);
    }
    if (h.count > 0) {
      const auto p50 = h.percentile(0.50);
      const auto p95 = h.percentile(0.95);
      const auto p99 = h.percentile(0.99);
      const bool monotone = p50 <= p95 && p95 <= p99 && p99 <= h.max &&
                            (!h.exact || (h.min <= p50 && h.percentile(1.0) == h.max));
      report.add(label + ": percentiles monotone within [min, max]", monotone,
                 monotone ? std::string{}
                          : "p50=" + std::to_string(p50) +
                                " p95=" + std::to_string(p95) +
                                " p99=" + std::to_string(p99) +
                                " min=" + std::to_string(h.min) +
                                " max=" + std::to_string(h.max));
    }
  }
}

}  // namespace

Report verify_observability(const decluster::AllocationScheme& scheme,
                            const ObsCheckParams& params) {
  Report report("observability N=" + std::to_string(scheme.devices()));
  if constexpr (!obs::kEnabled) {
    report.add("skipped (FLASHQOS_OBS=OFF)", true,
               "instrumentation compiled out of this build");
    return report;
  } else {
    auto& reg = obs::MetricRegistry::global();
    auto& tsr = obs::TimeSeriesRegistry::global();
    auto& tracer = obs::Tracer::global();
    const bool tracer_was_enabled = tracer.enabled();
    tracer.set_enabled(false);
    reg.reset();
    tsr.reset();

    // Traces: a bucket-domain synthetic stream, the Exchange-style block
    // stream, and an Exchange variant with writes mixed in.
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 4;
    sp.total_requests = 2000;
    sp.seed = params.seed;
    const auto synthetic = trace::generate_synthetic(sp);
    const auto exchange = trace::generate_workload(
        trace::exchange_params(params.trace_scale, params.seed));
    auto wp = trace::exchange_params(params.trace_scale, params.seed);
    wp.write_fraction = 0.2;
    const auto with_writes = trace::generate_workload(wp);

    const auto p_table = core::sample_optimal_probabilities(
        scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

    // Serial replays chosen to exercise every retrieval path and every
    // instrumented subsystem at least once. The tally mirrors the
    // registry's own post-run fold, from the returned outcomes.
    Tally want;
    WindowOracle win_oracle;
    const auto run = [&](const core::PipelineConfig& cfg, const trace::Trace& t) {
      const auto r = core::QosPipeline(scheme, cfg).run(t);
      win_oracle.add_run(cfg, r);
      tally(r, want);
    };

    core::PipelineConfig online_det;  // slot matching, the flat line
    run(online_det, synthetic);

    core::PipelineConfig aligned_none;  // batch DTR + max-flow, no admission
    aligned_none.retrieval = core::RetrievalMode::kIntervalAligned;
    aligned_none.admission = core::AdmissionMode::kNone;
    aligned_none.mapping = core::MappingMode::kModulo;
    run(aligned_none, exchange);

    core::PipelineConfig online_stat;  // statistical admission: Q series
    online_stat.admission = core::AdmissionMode::kStatistical;
    online_stat.epsilon = 0.01;
    online_stat.p_table = p_table;
    run(online_stat, exchange);

    core::PipelineConfig aligned_failures;  // degraded retrieval
    aligned_failures.retrieval = core::RetrievalMode::kIntervalAligned;
    aligned_failures.faults.outages.push_back(
        {.device = 0, .fail_at = from_ms(1.0), .recover_at = from_ms(6.0)});
    aligned_failures.faults.outages.push_back(
        {.device = scheme.devices() - 1,
         .fail_at = from_ms(2.0),
         .recover_at = core::DeviceFailure::kNeverRecovers});
    run(aligned_failures, exchange);

    core::PipelineConfig online_writes;  // replicated page programs
    run(online_writes, with_writes);

    core::PipelineConfig primary_only;  // the RAID-1 baseline path
    primary_only.scheduler = core::SchedulerMode::kPrimaryOnly;
    run(primary_only, synthetic);

    // Multi-tenant WFQ config tuned to shed: bronze's per-boundary burst
    // (12) exceeds its queue capacity (4), so the kShed path and the
    // per-tenant window series are exercised every interval.
    core::PipelineConfig tenant_wfq;
    tenant_wfq.tenants = {{.name = "gold",
                           .weight = 3.0,
                           .reservation = 2,
                           .queue_capacity = 16,
                           .mark_threshold = 12},
                          {.name = "bronze",
                           .weight = 1.0,
                           .reservation = 0,
                           .queue_capacity = 4,
                           .mark_threshold = 3}};
    trace::MultiTenantParams mt;
    mt.intervals = 60;
    mt.tenants = {{.requests_per_interval = 3, .bucket_pool = 6},
                  {.requests_per_interval = 12, .bucket_pool = 6}};
    mt.seed = params.seed;
    run(tenant_wfq, trace::generate_multi_tenant(mt));

    // SLO config: a latency spike on every device turns a known span of
    // windows into response breaches under the no-admission baseline
    // (admitted work queues instead of deferring, so 8× service blows past
    // the M·L bound; deterministic admission would absorb the spike as
    // delay and hide it). Run here so its outcomes feed the same window
    // oracle; the monitor assertions come after the registry checks.
    core::PipelineConfig slo_cfg;
    slo_cfg.admission = core::AdmissionMode::kNone;
    const auto slo_bound =
        static_cast<std::int64_t>(slo_cfg.access_budget) * slo_cfg.service_time;
    slo_cfg.slos.push_back({.tenant = {},
                            .kind = obs::SloKind::kP99Response,
                            .threshold_ns = slo_bound,
                            .budget = 1e-6,
                            .short_windows = 1,
                            .long_windows = 1,
                            .warn_burn = 0.5,
                            .page_burn = 1.0});
    for (DeviceId d = 0; d < scheme.devices(); ++d) {
      slo_cfg.faults.spikes.push_back({.device = d,
                                       .start = from_ms(2.0),
                                       .end = from_ms(6.0),
                                       .factor = 8.0});
    }
    const auto slo_result = core::QosPipeline(scheme, slo_cfg).run(synthetic);
    win_oracle.add_run(slo_cfg, slo_result);
    tally(slo_result, want);

    const auto snap = reg.snapshot();

    // Pipeline counters against the outcome tallies.
    check_eq(report, "pipeline.requests == replayed requests",
             cval(snap, "pipeline.requests"), want.requests);
    check_eq(report, "pipeline.reads_served == read outcomes",
             cval(snap, "pipeline.reads_served"), want.reads);
    check_eq(report, "pipeline.writes == write outcomes",
             cval(snap, "pipeline.writes"), want.writes);
    check_eq(report, "pipeline.failed == failed outcomes",
             cval(snap, "pipeline.failed"), want.failed);
    check_eq(report, "pipeline.deferred == deferred outcomes",
             cval(snap, "pipeline.deferred"), want.deferred);
    check_eq(report, "pipeline.deadline_violations == result field",
             cval(snap, "pipeline.deadline_violations"), want.violations);
    check_eq(report, "pipeline.dispatches == reads served",
             cval(snap, "pipeline.dispatches"), want.reads);

    // Latency histograms fold exactly the served-read population.
    const auto* resp = snap.find_histogram("pipeline.response_ns");
    report.add("pipeline.response_ns present", resp != nullptr);
    if (resp != nullptr) {
      check_eq(report, "pipeline.response_ns count == reads served",
               resp->count, want.reads);
      check_eq(report, "pipeline.response_ns sum == sum of responses",
               static_cast<std::uint64_t>(resp->sum),
               static_cast<std::uint64_t>(want.response_sum));
    }
    const auto* delay = snap.find_histogram("pipeline.delay_ns");
    check_eq(report, "pipeline.delay_ns count == deferred reads",
             delay != nullptr ? delay->count : 0, want.deferred);
    const auto* e2e = snap.find_histogram("pipeline.e2e_ns");
    check_eq(report, "pipeline.e2e_ns count == reads served",
             e2e != nullptr ? e2e->count : 0, want.reads);

    // Path accounting: every request took exactly one path, none was left
    // unclassified, and the configs above exercised each serving path.
    std::uint64_t path_total = 0;
    for (std::size_t i = 0; i < kPathCount; ++i) {
      const auto path = static_cast<core::RetrievalPath>(i);
      const std::string labels =
          std::string("path=\"") + core::to_string(path) + "\"";
      const auto got = cval(snap, "pipeline.path", labels);
      path_total += got;
      check_eq(report, "pipeline.path{" + labels + "} == outcome count", got,
               want.by_path[i]);
    }
    check_eq(report, "pipeline.path family covers every request", path_total,
             want.requests);
    check_eq(report, "no request left path=unset",
             want.by_path[static_cast<std::size_t>(core::RetrievalPath::kUnset)],
             0);
    for (const auto path :
         {core::RetrievalPath::kPrimary, core::RetrievalPath::kSlotMatched,
          core::RetrievalPath::kSurplus, core::RetrievalPath::kDegraded,
          core::RetrievalPath::kWrite, core::RetrievalPath::kShed}) {
      const auto i = static_cast<std::size_t>(path);
      report.add(std::string("path exercised: ") + core::to_string(path),
                 want.by_path[i] > 0);
    }
    report.add("path exercised: aligned (dtr or max-flow)",
               want.by_path[static_cast<std::size_t>(
                   core::RetrievalPath::kAlignedDtr)] +
                       want.by_path[static_cast<std::size_t>(
                           core::RetrievalPath::kAlignedMaxFlow)] >
                   0);

    // Device accounting: per-device service counters sum to total array
    // accesses, which equal submissions, which equal read dispatches plus
    // per-replica write ops.
    const auto submits = cval(snap, "flashsim.submits");
    const auto completions = cval(snap, "flashsim.completions");
    check_eq(report, "sum(flashsim.device.requests) == flashsim.completions",
             snap.counter_family_total("flashsim.device.requests"), completions);
    check_eq(report, "flashsim.completions == flashsim.submits", completions,
             submits);
    check_eq(report, "flashsim.submits == dispatches + write replica ops",
             submits,
             cval(snap, "pipeline.dispatches") +
                 cval(snap, "pipeline.write_replica_ops"));
    const auto* qd = snap.find_histogram("flashsim.queue_depth");
    check_eq(report, "flashsim.queue_depth count == flashsim.submits",
             qd != nullptr ? qd->count : 0, submits);

    // Retrieval identity: every retrieve() call either took the DTR fast
    // path or fell back to max-flow; degraded retrievals are counted apart
    // and must have been exercised by the failure config.
    check_eq(report, "retrieval fast path + max-flow fallback == invocations",
             cval(snap, "retrieval.fast_path") +
                 cval(snap, "retrieval.max_flow_fallback"),
             cval(snap, "retrieval.invocations"));
    report.add("retrieval.degraded exercised",
               cval(snap, "retrieval.degraded") > 0);

    // Statistical admission: one Q sample per over-limit interval.
    const auto* q_hist = snap.find_histogram("admission.q_ppm");
    check_eq(report, "admission.q_ppm count == over-limit intervals",
             q_hist != nullptr ? q_hist->count : 0,
             cval(snap, "admission.over_limit_intervals"));

    check_histogram_consistency(report, snap);

    // Window-identity oracle: every exported point of every windowed series
    // must rederive exactly — {sum, count, min, max, first_time}, both
    // directions — from the outcomes the replays returned, after applying
    // the documented ring-retention rule.
    {
      const auto tsnap = tsr.snapshot();
      std::string diff;
      const auto diverged = window_divergences(win_oracle, tsnap, &diff);
      std::size_t points = 0;
      for (const auto& s : tsnap.series) points += s.points.size();
      report.add("windows: every exported point rederives from outcomes (" +
                     std::to_string(tsnap.series.size()) + " series, " +
                     std::to_string(points) + " points)",
                 diverged == 0, diff);
      // Mutation check: the seeded mis-fold knob (sum off by one per point)
      // must be caught, or the oracle above proves nothing.
      tsr.set_misfold_for_test(true);
      const auto bad = tsr.snapshot();
      tsr.set_misfold_for_test(false);
      report.add("windows: seeded mis-fold defect detected",
                 window_divergences(win_oracle, bad, nullptr) > 0);
    }

    // SLO oracle: with short = long = 1 the burn machinery degenerates to
    // exact per-window classification, so the monitor must have paged in
    // every window where some read's response exceeded the bound — and
    // only there.
    {
      std::set<std::int64_t> expect_pages;
      std::set<std::int64_t> read_windows;
      for (const auto& o : slo_result.outcomes) {
        if (o.failed || o.is_write) continue;
        const auto w = o.dispatch / slo_cfg.qos_interval;
        read_windows.insert(w);
        if (o.response() > slo_bound) expect_pages.insert(w);
      }
      const auto slo_snap = obs::SloMonitor::global().snapshot();
      std::set<std::int64_t> got_pages;
      std::uint64_t non_page_log = 0;
      for (const auto& v : slo_snap.log) {
        if (v.state == obs::SloMonitor::State::kPage) {
          got_pages.insert(v.window);
        } else {
          ++non_page_log;
        }
      }
      report.add("slo: spike plan breached the p99 bound in a strict subset "
                 "of windows",
                 !expect_pages.empty() &&
                     expect_pages.size() < read_windows.size(),
                 std::to_string(expect_pages.size()) + " of " +
                     std::to_string(read_windows.size()) + " windows breach");
      std::string diff;
      if (got_pages != expect_pages) {
        diff = std::to_string(got_pages.size()) + " paged windows != " +
               std::to_string(expect_pages.size()) + " breaching windows";
      }
      report.add("slo: monitor paged in every breaching window and only there",
                 got_pages == expect_pages, diff);
      check_eq(report, "slo: violation log holds pages only (1-window burn)",
               non_page_log, 0);
      check_eq(report, "slo: violation log not truncated", slo_snap.log_dropped,
               0);
      check_eq(report, "slo: spec status page count == breaching windows",
               slo_snap.specs.size() == 1 ? slo_snap.specs[0].pages : 0,
               expect_pages.size());
      obs::SloMonitor::global().configure({});  // leave no stale specs behind
    }

    // Trace-ring audit on a fresh small run: one arrival/admission/retrieval
    // span triple per request, three stage slices per served read, one
    // service slice per completed array access, nothing dropped.
    reg.reset();
    tracer.clear();
    tracer.set_enabled(true);
    const auto traced = core::QosPipeline(scheme, online_det).run(synthetic);
    tracer.set_enabled(false);
    const auto events = tracer.events();
    const auto traced_snap = reg.snapshot();
    std::array<std::uint64_t, 6> by_kind{};
    std::uint64_t malformed = 0;
    for (const auto& e : events) {
      ++by_kind[static_cast<std::size_t>(e.kind)];
      if (e.end < e.start) ++malformed;
    }
    const auto traced_requests = static_cast<std::uint64_t>(traced.outcomes.size());
    std::uint64_t traced_reads = 0;
    for (const auto& o : traced.outcomes) {
      if (!o.failed && !o.is_write) ++traced_reads;
    }
    check_eq(report, "trace: one arrival event per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kArrival)],
             traced_requests);
    check_eq(report, "trace: one admission verdict per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kAdmission)],
             traced_requests);
    check_eq(report, "trace: one retrieval span per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kRetrieval)],
             traced_requests);
    check_eq(report, "trace: one service slice per completed access",
             by_kind[static_cast<std::size_t>(obs::EventKind::kDeviceService)],
             cval(traced_snap, "flashsim.completions"));
    check_eq(report, "trace: three stage slices per served read",
             by_kind[static_cast<std::size_t>(obs::EventKind::kStage)],
             3 * traced_reads);
    check_eq(report, "trace: no events dropped", tracer.dropped(), 0);
    check_eq(report, "trace: spans well-formed (end >= start)", malformed, 0);
    tracer.clear();
    tracer.set_enabled(tracer_was_enabled);

    // P_k memo audit. The memo is process-global (it survives registry
    // resets), so the cross-check is delta-based on a key no prior call can
    // have touched: a process-unique seed guarantees the first call misses
    // and the second hits, and the cached table must be bit-identical to
    // both the first call's and an uncached recomputation.
    {
      static std::atomic<std::uint64_t> audit_seed{0x9E3779B97F4A7C15ULL};
      const auto seed = audit_seed.fetch_add(1, std::memory_order_relaxed);
      const core::SamplerParams pk_params{.samples_per_size = 64, .seed = seed};
      const auto before = reg.snapshot();
      const auto first = core::sample_optimal_probabilities(scheme, 8, pk_params);
      const auto second = core::sample_optimal_probabilities(scheme, 8, pk_params);
      core::SamplerParams uncached = pk_params;
      uncached.cache = false;
      const auto recomputed = core::sample_optimal_probabilities(scheme, 8, uncached);
      const auto after = reg.snapshot();
      check_eq(report, "pk_cache: fresh key misses exactly once",
               cval(after, "retrieval.pk_cache.miss") -
                   cval(before, "retrieval.pk_cache.miss"),
               1);
      check_eq(report, "pk_cache: repeated key hits exactly once",
               cval(after, "retrieval.pk_cache.hit") -
                   cval(before, "retrieval.pk_cache.hit"),
               1);
      report.add("pk_cache: cached table bit-identical to recomputation",
                 first == second && first == recomputed);
    }

    // Flow-workspace reuse audit. optimal_schedule over a workspace builds
    // the network once and re-solves in place per extra round, so across
    // the controlled calls below: builds == calls, reuses == sum over calls
    // of (result rounds − lower bound ⌈b/N⌉) — each counted from the
    // returned schedules, not from the implementation.
    {
      retrieval::FlowWorkspace ws;
      retrieval::Schedule out;
      Rng rng(params.seed);
      std::uint64_t expect_builds = 0;
      std::uint64_t expect_reuses = 0;
      bool all_solvable = true;
      const auto before = reg.snapshot();
      for (std::size_t trial = 0; trial < 16; ++trial) {
        const std::size_t k = 1 + rng.below(2 * scheme.devices());
        std::vector<BucketId> batch(k);
        for (auto& b : batch) b = static_cast<BucketId>(rng.below(scheme.buckets()));
        if (!retrieval::optimal_schedule(batch, scheme, {}, ws, out)) {
          all_solvable = false;
          break;
        }
        ++expect_builds;
        expect_reuses += out.rounds - static_cast<std::uint32_t>(
                                          design::optimal_accesses(k, scheme.devices()));
      }
      const auto after = reg.snapshot();
      report.add("flow_ws: all-up optimal_schedule solvable", all_solvable);
      check_eq(report, "flow_ws: builds == one network per solve",
               cval(after, "retrieval.flow_ws.builds") -
                   cval(before, "retrieval.flow_ws.builds"),
               expect_builds);
      check_eq(report, "flow_ws: reuses == extra feasibility rounds",
               cval(after, "retrieval.flow_ws.reuses") -
                   cval(before, "retrieval.flow_ws.reuses"),
               expect_reuses);
    }

    return report;
  }
}

}  // namespace flashqos::verify
