#include "core/qos_pipeline.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <queue>

#include "core/sampler.hpp"
#include "core/slot_matcher.hpp"
#include "design/block_design.hpp"
#include "fault/injector.hpp"
#include "fim/apriori.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "retrieval/dtr.hpp"
#include "trace/cursor.hpp"
#include "util/stats.hpp"

namespace flashqos::core {

const char* to_string(RetrievalPath path) noexcept {
  switch (path) {
    case RetrievalPath::kUnset: return "unset";
    case RetrievalPath::kPrimary: return "primary";
    case RetrievalPath::kSlotMatched: return "slot_matched";
    case RetrievalPath::kSurplus: return "surplus";
    case RetrievalPath::kAlignedDtr: return "aligned_dtr";
    case RetrievalPath::kAlignedMaxFlow: return "aligned_max_flow";
    case RetrievalPath::kDegraded: return "degraded";
    case RetrievalPath::kWrite: return "write";
    case RetrievalPath::kFailed: return "failed";
    case RetrievalPath::kShed: return "shed";
  }
  return "unknown";
}

namespace {

inline constexpr std::size_t kPathCount = 10;

/// Pipeline-level registry handles, resolved once. Per-event tallies
/// (dispatches, deferrals, write replica ops, map calls) count in engine
/// locals published once per replay; per-request counters and histograms
/// fold through OutcomeObsFolder as each slot finalizes, so the hot loop
/// never touches a shared counter.
struct PipelineMetrics {
  obs::Counter& requests;
  obs::Counter& reads_served;
  obs::Counter& writes;
  obs::Counter& failed;
  obs::Counter& deferred;
  obs::Counter& deadline_violations;
  obs::Counter& dispatches;
  obs::Counter& write_replica_ops;
  obs::Counter& deferral_events;
  obs::Counter& map_calls;
  obs::LatencyHistogram& response_ns;
  obs::LatencyHistogram& delay_ns;
  obs::LatencyHistogram& e2e_ns;
  // Per-request latency attribution (obs v2): where each served read spent
  // its life — queue (arrival → dispatch), schedule (dispatch → first
  // device access), service (first access → completion).
  obs::LatencyHistogram& stage_queue_ns;
  obs::LatencyHistogram& stage_schedule_ns;
  obs::LatencyHistogram& stage_service_ns;
  std::array<obs::Counter*, kPathCount> by_path;

  static PipelineMetrics& get() {
    static PipelineMetrics m = [] {
      auto& reg = obs::MetricRegistry::global();
      PipelineMetrics p{reg.counter("pipeline.requests"),
                        reg.counter("pipeline.reads_served"),
                        reg.counter("pipeline.writes"),
                        reg.counter("pipeline.failed"),
                        reg.counter("pipeline.deferred"),
                        reg.counter("pipeline.deadline_violations"),
                        reg.counter("pipeline.dispatches"),
                        reg.counter("pipeline.write_replica_ops"),
                        reg.counter("pipeline.deferral_events"),
                        reg.counter("pipeline.work.map_calls"),
                        reg.histogram("pipeline.response_ns"),
                        reg.histogram("pipeline.delay_ns"),
                        reg.histogram("pipeline.e2e_ns"),
                        reg.histogram("pipeline.stage_ns", "stage=\"queue\""),
                        reg.histogram("pipeline.stage_ns", "stage=\"schedule\""),
                        reg.histogram("pipeline.stage_ns", "stage=\"service\""),
                        {}};
      for (std::size_t i = 0; i < kPathCount; ++i) {
        const std::string label =
            std::string("path=\"") +
            to_string(static_cast<RetrievalPath>(i)) + "\"";
        p.by_path[i] = &reg.counter("pipeline.path", label);
      }
      return p;
    }();
    return m;
  }
};

/// Fault-subsystem registry handles. Tallied in replay-loop locals and
/// published once per replay, like PipelineMetrics.
struct FaultMetrics {
  obs::Counter& injected_outages;
  obs::Counter& injected_spikes;
  obs::Counter& degraded_intervals;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& rebuild_reads;
  obs::Gauge& rebuild_pending;

  static FaultMetrics& get() {
    static FaultMetrics m = [] {
      auto& reg = obs::MetricRegistry::global();
      return FaultMetrics{reg.counter("fault.injected.outages"),
                          reg.counter("fault.injected.spikes"),
                          reg.counter("fault.degraded_intervals"),
                          reg.counter("fault.retries"),
                          reg.counter("fault.timeouts"),
                          reg.counter("fault.rebuild.reads"),
                          reg.gauge("fault.rebuild.pending_reads")};
    }();
    return m;
  }
};

obs::EventDetail trace_detail(RetrievalPath path) noexcept {
  switch (path) {
    case RetrievalPath::kUnset: return obs::EventDetail::kNone;
    case RetrievalPath::kPrimary: return obs::EventDetail::kPrimary;
    case RetrievalPath::kSlotMatched: return obs::EventDetail::kSlotMatched;
    case RetrievalPath::kSurplus: return obs::EventDetail::kSurplus;
    case RetrievalPath::kAlignedDtr: return obs::EventDetail::kDtrFastPath;
    case RetrievalPath::kAlignedMaxFlow: return obs::EventDetail::kMaxFlowFallback;
    case RetrievalPath::kDegraded: return obs::EventDetail::kDegraded;
    case RetrievalPath::kWrite: return obs::EventDetail::kWrite;
    case RetrievalPath::kFailed: return obs::EventDetail::kNone;
    case RetrievalPath::kShed: return obs::EventDetail::kNone;
  }
  return obs::EventDetail::kNone;
}

/// Value→count tally for one histogram, flushed with record_n on scope
/// exit. Latency multisets here usually hold a few distinct values (fixed
/// service quanta — the flat line), so a short linear scan beats one
/// shared-atomic record() per outcome; genuinely high-cardinality series
/// blow past the cap and fall through to direct records, where the
/// histogram's overflowed-tracker fast path keeps the cost bounded.
class HistogramTally {
 public:
  explicit HistogramTally(obs::LatencyHistogram& h) : hist_(h) {}
  HistogramTally(const HistogramTally&) = delete;
  HistogramTally& operator=(const HistogramTally&) = delete;
  ~HistogramTally() {
    for (const auto& [v, n] : items_) hist_.record_n(v, n);
  }

  void add(std::int64_t v) {
    for (auto& [val, n] : items_) {
      if (val == v) {
        ++n;
        return;
      }
    }
    if (items_.size() < kCap) {
      items_.emplace_back(v, 1);
    } else {
      hist_.record(v);
    }
  }

 private:
  static constexpr std::size_t kCap = 16;
  obs::LatencyHistogram& hist_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> items_;
};

/// One QoS window's in-flight tally for a windowed time-series. The replay
/// loop adds into these plain locals (no locking) and merges each non-empty
/// tally into its obs::TimeSeries exactly once, at the interval rollover —
/// all stats are the associative/commutative merges the series contract
/// requires, so this batching cannot change exported window content.
struct WindowAgg {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
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

/// Single-pass fold of finished outcomes into the observability registry:
/// add() takes one outcome (trace order) — counters, histogram tallies,
/// and (when tracing) that request's arrival → admission → retrieval spans
/// plus one stage slice per lifecycle segment — and publish() writes the
/// whole-run counter increments. The engine folds each request as it
/// leaves the in-flight window, so registry content is identical at any
/// batch size. Per-request *tracer* records interleave with the replay's
/// kInterval records; registry snapshots are order-insensitive, and the
/// stream oracle keeps tracing off while comparing.
class OutcomeObsFolder {
 public:
  OutcomeObsFolder()
      : m_(PipelineMetrics::get()),
        response_(m_.response_ns),
        e2e_(m_.e2e_ns),
        delay_(m_.delay_ns),
        stage_queue_(m_.stage_queue_ns),
        stage_schedule_(m_.stage_schedule_ns),
        stage_service_(m_.stage_service_ns),
        tracer_(obs::Tracer::global()),
        trace_on_(tracer_.enabled()) {}

  void add(std::uint64_t idx, const RequestOutcome& o) {
    ++by_path_[static_cast<std::size_t>(o.path)];
    if (o.failed) {
      ++failed_;
    } else if (o.is_write) {
      ++writes_;
    } else {
      ++reads_;
      response_.add(o.response());
      e2e_.add(o.end_to_end());
      stage_queue_.add(o.dispatch - o.arrival);
      stage_schedule_.add(o.start - o.dispatch);
      stage_service_.add(o.finish - o.start);
      if (o.deferred()) {
        ++deferred_;
        delay_.add(o.delay());
      }
    }
    if (trace_on_) trace_outcome(idx, o);
  }

  void publish(std::size_t requests, std::size_t deadline_violations) {
    m_.requests.inc(requests);
    m_.reads_served.inc(reads_);
    m_.writes.inc(writes_);
    m_.failed.inc(failed_);
    m_.deferred.inc(deferred_);
    m_.deadline_violations.inc(deadline_violations);
    for (std::size_t i = 0; i < kPathCount; ++i) {
      if (by_path_[i] > 0) m_.by_path[i]->inc(by_path_[i]);
    }
  }

 private:
  void trace_outcome(std::uint64_t idx, const RequestOutcome& o) {
    const auto req = static_cast<std::int64_t>(idx);
    tracer_.record({.request = req,
                    .start = o.arrival,
                    .end = o.arrival,
                    .value = 0,
                    .device = -1,
                    .kind = obs::EventKind::kArrival,
                    .detail = obs::EventDetail::kNone});
    tracer_.record({.request = req,
                    .start = o.dispatch,
                    .end = o.dispatch,
                    .value = o.q_ppm,
                    .device = -1,
                    .kind = obs::EventKind::kAdmission,
                    .detail = o.failed      ? obs::EventDetail::kRejected
                              : o.deferred() ? obs::EventDetail::kDeferred
                                             : obs::EventDetail::kAdmitted});
    tracer_.record({.request = req,
                    .start = o.dispatch,
                    .end = o.finish,
                    .value = 0,
                    .device = o.device == kInvalidDevice
                                  ? -1
                                  : static_cast<std::int32_t>(o.device),
                    .kind = obs::EventKind::kRetrieval,
                    .detail = trace_detail(o.path)});
    // Stage slices exist only for served reads: failed/shed requests never
    // reach the device and writes follow the replication path instead.
    if (o.failed || o.is_write) return;
    tracer_.record({.request = req,
                    .start = o.arrival,
                    .end = o.dispatch,
                    .value = o.dispatch - o.arrival,
                    .device = -1,
                    .kind = obs::EventKind::kStage,
                    .detail = obs::EventDetail::kStageQueue});
    tracer_.record({.request = req,
                    .start = o.dispatch,
                    .end = o.start,
                    .value = o.start - o.dispatch,
                    .device = -1,
                    .kind = obs::EventKind::kStage,
                    .detail = obs::EventDetail::kStageSchedule});
    tracer_.record({.request = req,
                    .start = o.start,
                    .end = o.finish,
                    .value = o.finish - o.start,
                    .device = o.device == kInvalidDevice
                                  ? -1
                                  : static_cast<std::int32_t>(o.device),
                    .kind = obs::EventKind::kStage,
                    .detail = obs::EventDetail::kStageService});
  }

  PipelineMetrics& m_;
  HistogramTally response_;
  HistogramTally e2e_;
  HistogramTally delay_;
  HistogramTally stage_queue_;
  HistogramTally stage_schedule_;
  HistogramTally stage_service_;
  obs::Tracer& tracer_;
  bool trace_on_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t deferred_ = 0;
  std::array<std::uint64_t, kPathCount> by_path_{};
};

/// A request waiting for dispatch. Ordered by (dispatch time, idx); idx is
/// the trace position, so deferred requests keep FIFO priority over newer
/// arrivals at the same boundary.
struct Pending {
  SimTime dispatch = 0;
  std::size_t idx = 0;  // ingestion index (the request's window slot)

  bool operator>(const Pending& other) const noexcept {
    return dispatch != other.dispatch ? dispatch > other.dispatch : idx > other.idx;
  }
};
static_assert(sizeof(Pending) == 16, "dispatch-heap entries stay two words");

/// Streaming-safe interval summary: add() one outcome at a time (trace
/// order), finalize() into an IntervalReport. The engine's incremental
/// reports and replay_original's summarizer go through this one
/// accumulation order.
struct OutcomeFold {
  IntervalReport r;
  Accumulator resp, e2e, delay, write_ms;
  std::size_t matched = 0;
  std::size_t reads = 0;

  void add(const RequestOutcome& o) {
    ++r.requests;
    if (o.failed) {
      ++r.failed;
      return;  // never served: no response/delay statistics
    }
    if (o.is_write) {
      ++r.writes;
      write_ms.add(to_ms(o.end_to_end()));
      return;  // write completion tracked separately from read QoS
    }
    ++reads;
    resp.add(to_ms(o.response()));
    e2e.add(to_ms(o.end_to_end()));
    if (o.deferred()) {
      ++r.deferred;
      delay.add(to_ms(o.delay()));
    }
    if (o.fim_matched) ++matched;
  }

  [[nodiscard]] IntervalReport finalize() const {
    IntervalReport out = r;
    if (out.requests == 0) return out;
    out.avg_response_ms = resp.mean();
    out.max_response_ms = resp.max();
    out.avg_e2e_ms = e2e.mean();
    out.max_e2e_ms = e2e.max();
    out.avg_write_ms = write_ms.count() ? write_ms.mean() : 0.0;
    if (reads > 0) {
      out.pct_deferred =
          static_cast<double>(out.deferred) / static_cast<double>(reads);
      out.fim_match_rate =
          static_cast<double>(matched) / static_cast<double>(reads);
    }
    out.avg_delay_ms = delay.count() ? delay.mean() : 0.0;
    return out;
  }
};

IntervalReport summarize_outcome_range(std::span<const RequestOutcome> outcomes,
                                       std::size_t begin, std::size_t end) {
  OutcomeFold fold;
  for (std::size_t i = begin; i < end; ++i) fold.add(outcomes[i]);
  return fold.finalize();
}

void finalize_reports(PipelineResult& result, const trace::Trace& t) {
  const auto slices = trace::report_slices(t);
  result.intervals.clear();
  result.intervals.reserve(slices.size());
  for (const auto& [begin, end] : slices) {
    result.intervals.push_back(
        summarize_outcome_range(result.outcomes, begin, end));
  }
  result.overall =
      summarize_outcome_range(result.outcomes, 0, result.outcomes.size());
}

}  // namespace

std::vector<fim::FrequentPair> mine_event_range(const trace::Trace& t,
                                                std::size_t begin, std::size_t end,
                                                SimTime qos_interval,
                                                std::uint64_t min_support) {
  SliceTransactionBuilder slice(qos_interval);
  for (std::size_t i = begin; i < end; ++i) slice.add(t.events[i]);
  return fim::mine_pairs_apriori(slice.take(), min_support).pairs;
}

std::vector<std::string> PipelineConfig::validate(std::uint32_t devices) const {
  std::vector<std::string> out;
  if (qos_interval <= 0) out.push_back("qos_interval must be positive");
  if (access_budget < 1) {
    out.push_back("access_budget must be at least 1 (a zero budget admits nothing)");
  }
  if (service_time <= 0) out.push_back("service_time must be positive");
  if (write_latency <= 0) out.push_back("write_latency must be positive");
  if (fim_min_support < 1) out.push_back("fim_min_support must be at least 1");
  if (admission == AdmissionMode::kStatistical) {
    if (p_table.empty()) {
      out.push_back(
          "statistical admission needs a sampled p_table "
          "(core::sample_optimal_probabilities)");
    }
    for (const double p : p_table) {
      if (p < 0.0 || p > 1.0) {
        out.push_back("p_table values must be probabilities in [0, 1]");
        break;
      }
    }
    if (epsilon < 0.0 || epsilon > 1.0) out.push_back("epsilon must be in [0, 1]");
  }
  if (p_table_samples == 0) out.push_back("p_table_samples must be positive");
  for (const auto& d : faults.validate(devices)) out.push_back("faults: " + d);
  if (!tenants.empty()) {
    if (admission == AdmissionMode::kStatistical) {
      out.push_back(
          "statistical admission is not supported with a [tenants] section "
          "(the surplus rule and the WFQ share interact; use deterministic "
          "admission)");
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const auto& s = tenants[i];
      const std::string who = "tenant '" + s.name + "': ";
      if (s.name.empty()) out.push_back("tenant names must be non-empty");
      if (!(s.weight > 0.0) || !std::isfinite(s.weight)) {
        out.push_back(who + "weight must be positive and finite");
      }
      if (s.queue_capacity < 1) {
        out.push_back(who + "queue_capacity must be at least 1");
      }
      if (s.mark_threshold < 1 || s.mark_threshold > s.queue_capacity) {
        out.push_back(who + "mark_threshold must be in [1, queue_capacity]");
      }
      for (std::size_t j = i + 1; j < tenants.size(); ++j) {
        if (tenants[j].name == s.name) {
          out.push_back("duplicate tenant name '" + s.name + "'");
        }
      }
    }
  }
  for (const auto& spec : slos) {
    const std::string who = "slo '" + spec.name() + "': ";
    if (const auto d = spec.validate(); !d.empty()) out.push_back(who + d);
    if (spec.tenant.empty()) continue;
    const bool known =
        std::any_of(tenants.begin(), tenants.end(),
                    [&](const TenantSpec& s) { return s.name == spec.tenant; });
    if (!known) {
      out.push_back(who + "tenant is not declared in the [tenants] section");
    }
  }
  return out;
}

QosPipeline::QosPipeline(const decluster::AllocationScheme& scheme, PipelineConfig cfg)
    : scheme_(scheme), cfg_(std::move(cfg)), retriever_(scheme_, cfg_.service_time) {
  auto diags = cfg_.validate(scheme_.devices());
  if (!cfg_.tenants.empty()) {
    // Needs the scheme (S depends on c), so it lives here, not validate().
    const std::uint64_t s_budget =
        design::guarantee_buckets(scheme_.copies(), cfg_.access_budget);
    std::uint64_t reserved = 0;
    for (const auto& ten : cfg_.tenants) reserved += ten.reservation;
    if (reserved > s_budget) {
      diags.push_back("tenant reservations (" + std::to_string(reserved) +
                      ") exceed the interval budget S=" +
                      std::to_string(s_budget));
    }
  }
  for (const auto& d : diags) {
    // flashqos-lint: allow(adhoc-logging): diagnostics before the contract abort
    std::fprintf(stderr, "flashqos: invalid pipeline config: %s\n", d.c_str());
  }
  FLASHQOS_EXPECT(diags.empty(),
                  "invalid pipeline configuration (diagnostics on stderr)");
}

namespace {

/// Writes each outcome into its trace position of a pre-sized vector.
class MaterializingSink final : public OutcomeSink {
 public:
  explicit MaterializingSink(std::vector<RequestOutcome>& outcomes)
      : outcomes_(outcomes) {}
  void on_outcome(std::uint64_t seq, const trace::TraceEvent& /*ev*/,
                  const RequestOutcome& out) override {
    outcomes_[seq] = out;
  }

 private:
  std::vector<RequestOutcome>& outcomes_;
};

}  // namespace

PipelineResult QosPipeline::run(const trace::Trace& t) {
  PipelineResult result;
  if (t.events.empty()) return result;
  // The streaming ingest checks time order only; device range and request
  // size are checked here, over the whole trace, before anything runs.
  FLASHQOS_EXPECT(trace::valid_trace(t), "pipeline input must be a valid trace");
  result.outcomes.resize(t.events.size());
  MaterializingSink sink(result.outcomes);
  trace::VectorCursor cursor(t);
  auto s = run_stream(
      cursor, {.horizon = t.events.back().time + cfg_.qos_interval, .sink = &sink});
  FLASHQOS_EXPECT(s.requests == t.events.size(),
                  "materialized replay must consume the whole trace");
  result.intervals = std::move(s.intervals);
  result.overall = s.overall;
  result.deadline_violations = s.deadline_violations;
  result.tenant_usage = std::move(s.tenant_usage);
  return result;
}

namespace {

/// Array ids for per-replica write ops and background rebuild reads —
/// anything whose completion is not a trace outcome. The base sits far
/// above any realistic trace index so the id space never collides with
/// request indices (the simulator breaks event ties by submission
/// sequence, never by id, so the value itself is inert).
inline constexpr std::uint64_t kBackgroundIdBase = std::uint64_t{1} << 62;

/// drain() bound that pops every queued dispatch (no real dispatch instant
/// reaches it: recovery retries and boundary wakes are finite times).
inline constexpr SimTime kDrainAll = std::numeric_limits<SimTime>::max();

/// One in-flight request: the event, its outcome, its WFQ lifecycle
/// state, and how close it is to the result fold. st: 0 = awaiting
/// dispatch, 1 = dispatched to the simulator (awaiting the completion
/// cross-check), 2 = final (verified / failed / shed / write). The window
/// pops slots from the front as they reach 2, so resident memory tracks
/// the in-flight span, not the trace length.
struct StreamSlot {
  trace::TraceEvent ev;
  RequestOutcome out;
  std::uint8_t tstate = 0;
  std::uint8_t st = 0;
};

/// The in-flight window: slots for requests [base(), end()), addressed by
/// ingestion index. A power-of-two ring that doubles when full, so steady
/// state ingests and pops without allocating (a deque of these ~100-byte
/// slots would allocate a node every few requests).
class SlotWindow {
 public:
  [[nodiscard]] StreamSlot& operator[](std::uint64_t seq) {
    return slots_[seq & mask_];
  }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t end() const noexcept { return end_; }
  [[nodiscard]] bool empty() const noexcept { return base_ == end_; }
  void pop_front() { ++base_; }

  void push_back(const trace::TraceEvent& e) {
    if (end_ - base_ == slots_.size()) grow();
    auto& s = slots_[end_++ & mask_];
    s = StreamSlot{e, RequestOutcome{}, 0, 0};
    s.out.arrival = e.time;
  }

 private:
  void grow() {
    std::vector<StreamSlot> next(std::max<std::size_t>(64, 2 * slots_.size()));
    const std::uint64_t next_mask = next.size() - 1;
    for (auto seq = base_; seq < end_; ++seq) {
      next[seq & next_mask] = slots_[seq & mask_];
    }
    slots_.swap(next);
    mask_ = next_mask;
  }

  std::vector<StreamSlot> slots_;
  std::uint64_t mask_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

/// Wall-clock nanoseconds since `t0`, for the ingest/drain stage histograms.
[[nodiscard]] std::int64_t stream_elapsed_ns(
    // flashqos-lint: allow(wall-clock): stage-timing metric, never a result
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // flashqos-lint: allow(wall-clock): stage-timing metric only
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The replay core behind QosPipeline::run_stream (and so run()). One
/// instance is one replay.
///
/// Events arrive in cursor batches. After each batch the engine drains
/// dispatch instants *strictly before* the last ingested arrival time: the
/// cursor contract says every unread arrival is at or after that time, so
/// no same-instant dispatch group popped under the bound can ever gain a
/// member from unread input — which is why the batch size cannot change
/// the result. Outcomes live in a sliding window and fold into
/// per-interval / overall reports (and the observability registry) in
/// trace order as their slots reach the final state.
class ReplayEngine {
 public:
  ReplayEngine(const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
               retrieval::Retriever& retriever)
      : scheme_(scheme),
        cfg_(cfg),
        retriever_(retriever),
        T_(cfg.qos_interval),
        L_(cfg.service_time),
        mapper_(scheme),
        det_(scheme.copies(), cfg.access_budget),
        matcher_(scheme),
        tenant_mode_(!cfg.tenants.empty()),
        slot_matching_(cfg.scheduler == SchedulerMode::kReplicaScheduled &&
                       cfg.retrieval == RetrievalMode::kOnline) {}

  StreamResult run(trace::TraceCursor& cursor, const StreamOptions& opts) {
    FLASHQOS_EXPECT(opts.batch_size > 0, "stream batch size must be positive");
    report_interval_ = cursor.meta().report_interval;
    keep_intervals_ = opts.keep_intervals;
    StreamResult res;
    // Pull the first batch before any engine setup so an empty stream
    // returns an empty result with no registry side effects.
    std::vector<trace::TraceEvent> buf(opts.batch_size);
    std::size_t n = cursor.fill(buf);
    while (n == 0) {
      // Finite cursors are done; a live cursor that is merely idle blocks
      // in fill() until input or close.
      if (cursor.exhausted()) return res;
      n = cursor.fill(buf);
    }
    if (!cfg_.faults.empty()) {
      FLASHQOS_EXPECT(opts.horizon > 0,
                      "streaming replay with a fault plan needs "
                      "StreamOptions::horizon (the fault schedule compiles "
                      "before the trace length is known)");
    }
    init(opts.horizon);
    sink_ = opts.sink;
    obs::LatencyHistogram* ingest_ns = nullptr;
    obs::LatencyHistogram* drain_ns = nullptr;
    if constexpr (obs::kEnabled) {
      auto& reg = obs::MetricRegistry::global();
      ingest_ns = &reg.histogram("pipeline.interval_ns", "stage=\"ingest\"");
      drain_ns = &reg.histogram("pipeline.interval_ns", "stage=\"drain\"");
    }
    // Read-ahead identity rule: every unread arrival has time >= the last
    // ingested event's time AND >= the cursor's declared frontier, so
    // dispatch instants strictly before max(last, frontier) can never gain
    // same-instant members from unread input. Finite cursors promise
    // nothing (frontier() == 0) and the bound degenerates to the historical
    // last-ingested-arrival rule, bit for bit. The misdrain knob seeds the
    // off-by-one defect (<= instead of <): groups dispatching exactly at
    // the ingestion frontier are processed before later batches deliver
    // their same-instant members, splitting bursts — the stream oracle
    // proves it would notice a broken bound. (The defect must stay
    // clock-safe: draining further ahead would advance the simulator past
    // arrivals that have not been ingested yet and trip the submit
    // precondition instead of producing a comparable divergence.)
    const auto drain_step = [&] {
      const SimTime clock = std::max(last_time_, cursor.frontier());
      SimTime bound = clock;
      if (opts.misdrain_for_test) bound += 1;
      advance_fim_frontier(bound);
      // flashqos-lint: allow(wall-clock): stage-timing metric, never a result
      const auto t0 = std::chrono::steady_clock::now();
      drain(bound);
      // Verdict liveness for live streams: with the dispatch queue empty
      // the simulator's clock would otherwise stall at the last dispatch
      // instant, holding every in-flight completion hostage until end of
      // stream. The cursor contract makes `clock` safe: no unread arrival
      // (hence no future dispatch or simulator event) lies below it. The
      // misdrain knob must not leak in here — its +1 would advance the
      // simulator past arrivals not yet ingested and trip the submit
      // precondition instead of producing a comparable divergence.
      array_->run_until(clock);
      absorb_completions();
      if constexpr (obs::kEnabled) drain_ns->record(stream_elapsed_ns(t0));
    };
    while (n > 0) {
      // flashqos-lint: allow(wall-clock): stage-timing metric, never a result
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) ingest_event(buf[i]);
      if constexpr (obs::kEnabled) ingest_ns->record(stream_elapsed_ns(t0));
      drain_step();
      n = cursor.fill(buf);
      while (n == 0 && !cursor.exhausted()) {
        // Live stream, momentarily empty: the frontier may have advanced
        // (a flush) with no new events, so re-drain before blocking again.
        drain_step();
        n = cursor.fill(buf);
      }
    }
    finish_ingest();
    drain(kDrainAll);
    return finish();
  }

 private:
  // ---- request state (in-flight window) ------------------------------------

  [[nodiscard]] const trace::TraceEvent& ev(std::size_t i) { return win_[i].ev; }
  [[nodiscard]] RequestOutcome& out(std::size_t i) { return win_[i].out; }
  [[nodiscard]] std::uint8_t& tst(std::size_t i) { return win_[i].tstate; }
  /// The request reached a final state with no pending simulator
  /// cross-check (failed / shed / write).
  void mark_final(std::size_t i) { win_[i].st = 2; }
  /// The request was submitted to the simulator; final once its completion
  /// is cross-checked in absorb_completions().
  void mark_dispatched(std::size_t i) { win_[i].st = 1; }

  // ---- setup -------------------------------------------------------------

  void init(SimTime horizon) {
    if (cfg_.admission == AdmissionMode::kStatistical) {
      stat_.emplace(cfg_.p_table, det_.limit(), cfg_.epsilon);
    }
    if (tenant_mode_) ts_.emplace(cfg_.tenants, det_.limit(), cfg_.wfq_knobs);
    if constexpr (obs::kEnabled) {
      if (tenant_mode_) {
        auto& reg = obs::MetricRegistry::global();
        depth_hist_.reserve(cfg_.tenants.size());
        for (const auto& s : cfg_.tenants) {
          depth_hist_.push_back(
              &reg.histogram("wfq.queue_depth", "tenant=\"" + s.name + "\""));
        }
      }
      auto& tsr = obs::TimeSeriesRegistry::global();
      const auto series = [&](const char* name, const std::string& labels = {}) {
        return &tsr.series(name, labels, T_);
      };
      win_reads_ = series("win.reads");
      win_writes_ = series("win.writes");
      win_failed_ = series("win.failed");
      win_degraded_ = series("win.degraded");
      win_response_ = series("win.response_ns");
      if (stat_.has_value()) win_q_ = series("win.q_ppm");
      win_device_.reserve(scheme_.devices());
      agg_device_.resize(scheme_.devices());
      for (DeviceId d = 0; d < scheme_.devices(); ++d) {
        win_device_.push_back(
            series("win.device.reads", "device=\"" + std::to_string(d) + "\""));
      }
      if (tenant_mode_) {
        win_shed_ = series("win.shed");
        agg_tenant_reads_.resize(cfg_.tenants.size());
        agg_tenant_shed_.resize(cfg_.tenants.size());
        for (const auto& s : cfg_.tenants) {
          const std::string label = "tenant=\"" + s.name + "\"";
          win_tenant_reads_.push_back(series("win.tenant.reads", label));
          win_tenant_shed_.push_back(series("win.tenant.shed", label));
        }
      }
      if (!cfg_.slos.empty()) {
        obs::SloMonitor::global().configure(cfg_.slos);
        slo_tallies_.reserve(cfg_.slos.size());
        for (const auto& spec : cfg_.slos) {
          std::int32_t tid = -1;
          for (std::size_t k = 0; k < cfg_.tenants.size(); ++k) {
            if (cfg_.tenants[k].name == spec.tenant) {
              tid = static_cast<std::int32_t>(k);
            }
          }
          slo_tallies_.push_back({spec.kind, spec.threshold_ns, tid, 0, 0});
        }
      }
      obs_folder_.emplace();
    }

    // Fault state. The compiled plan is a pure function of (plan, scheme,
    // horizon), so a serial run() and every run_jobs job materialize
    // identical fault schedules — serial ≡ sweep bit-identity holds under
    // any plan. An empty plan takes none of the fault branches.
    injector_.emplace(cfg_.faults, scheme_, horizon);
    faults_active_ = injector_->active();
    retry_timeout_ = injector_->compiled().retry_timeout;
    det_limit_now_ = det_.limit();

    array_.emplace(scheme_.devices(),
                   std::make_shared<flashsim::FixedLatencyModel>(
                       L_, cfg_.write_latency));
    free_at_.assign(scheme_.devices(), 0);
    if constexpr (obs::kEnabled) {
      if (injector_->rebuild_reads_total() > 0) {
        FaultMetrics::get().rebuild_pending.add(
            static_cast<std::int64_t>(injector_->rebuild_reads_total()));
      }
    }
  }

  // ---- ingestion ---------------------------------------------------------

  void ingest_event(const trace::TraceEvent& e) {
    FLASHQOS_EXPECT(e.time >= last_time_ && e.time >= 0,
                    "stream cursor must yield time-sorted events");
    last_time_ = e.time;
    const auto idx = static_cast<std::size_t>(win_.end());
    win_.push_back(e);
    // Online mode dispatches at arrival; aligned mode at the enclosing
    // interval boundary (requests already exactly on a boundary run in
    // that interval, matching the paper's synthetic setup).
    const SimTime dispatch = cfg_.retrieval == RetrievalMode::kOnline
                                 ? e.time
                                 : next_interval_start(e.time, T_);
    queue_.push(Pending{dispatch, idx});
    if (mines_fim()) ingest_fim(e);
  }

  /// Incremental build of the per-reporting-slice FIM transaction
  /// databases. A slice's database is complete once any event of a later
  /// slice has been ingested (events are time-sorted), which the drain
  /// bound guarantees before the mapper ever asks for it.
  void ingest_fim(const trace::TraceEvent& e) {
    const auto s = static_cast<std::size_t>(e.time / report_interval_);
    while (fim_slice_ < s) close_fim_slice();
    fim_tx_.add(e);
  }

  void close_fim_slice() {
    slice_dbs_.push_back(fim_tx_.take());
    ++fim_slice_;
  }

  [[nodiscard]] bool mines_fim() const {
    return cfg_.mapping == MappingMode::kFim && report_interval_ > 0;
  }

  /// Close every FIM slice that ends at or below the drain bound: events
  /// already ingested are <= last_time_ and unread ones are >= the cursor
  /// frontier, so such a slice can never gain another transaction. For
  /// finite cursors (frontier 0) the bound is the last ingested arrival
  /// and ingestion has already closed those slices — a strict no-op. Only
  /// a live cursor whose frontier outruns its events closes (possibly
  /// empty) slices here; if such a stream ends before events reach the
  /// frontier, mining may have seen empty slices the materialized trace
  /// would not contain, so live producers that need exact replay identity
  /// must keep the frontier at or below the final event time (the daemon
  /// oracle does). Called only after a non-empty batch was ingested.
  void advance_fim_frontier(SimTime bound) {
    if (!mines_fim()) return;
    while (static_cast<SimTime>(fim_slice_ + 1) * report_interval_ <= bound) {
      close_fim_slice();
    }
  }

  [[nodiscard]] fim::TransactionDb take_slice_db(
      [[maybe_unused]] std::size_t idx) {
    FLASHQOS_ASSERT(idx == slice_db_base_ && !slice_dbs_.empty(),
                    "FIM slices mine in order off the ingested prefix");
    auto db = std::move(slice_dbs_.front());
    slice_dbs_.pop_front();
    ++slice_db_base_;
    return db;
  }

  /// End of stream: close the trailing slice and fix the reporting slice
  /// count, after which drain(kDrainAll) may mine every slice. Before EOF
  /// the rollover target now/RI can never overshoot the ingested prefix
  /// (now is strictly below the last ingested arrival), so the cap only
  /// binds once the stream length is known.
  void finish_ingest() {
    if (mines_fim()) close_fim_slice();
    slices_total_ = report_interval_ > 0
                        ? static_cast<std::size_t>(last_time_ / report_interval_) + 1
                        : 0;
    mine_limit_ = slices_total_;
  }

  // ---- result fold -------------------------------------------------------

  /// Cross-check the simulator's completions against the dispatch model
  /// and pop every finalized slot off the window front, folding outcomes
  /// into the reports and the observability registry in trace order.
  void absorb_completions() {
    array_->take_completions(completions_);
    for (const auto& c : completions_) {
      if (c.id >= kBackgroundIdBase) continue;  // write replica / rebuild op
      auto& s = win_[c.id];
      FLASHQOS_ASSERT(s.out.start == c.start && s.out.finish == c.finish,
                      "pipeline dispatch model diverged from the simulator");
      s.st = 2;
    }
    while (!win_.empty() && win_[win_.base()].st == 2) {
      fold_outcome(win_.base(), win_[win_.base()]);
      win_.pop_front();
    }
  }

  void fold_outcome(std::uint64_t idx, const StreamSlot& s) {
    if (sink_ != nullptr) sink_->on_outcome(idx, s.ev, s.out);
    overall_fold_.add(s.out);
    if (report_interval_ > 0 && keep_intervals_) {
      const auto slice = static_cast<std::size_t>(s.ev.time / report_interval_);
      if (interval_folds_.size() <= slice) interval_folds_.resize(slice + 1);
      interval_folds_[slice].add(s.out);
    }
    if (!s.out.failed && !s.out.is_write && s.out.response() > cfg_.qos_interval) {
      ++deadline_violations_;
    }
    if constexpr (obs::kEnabled) obs_folder_->add(idx, s.out);
  }

  // ---- dispatch core -----------------------------------------------------

  /// Pop every dispatch group at instants strictly before `bound`.
  void drain(SimTime bound) {
    while (!queue_.empty() && queue_.top().dispatch < bound) {
      process_group();
      absorb_completions();
    }
  }

  /// Merge every non-empty window tally into its series and feed the SLO
  /// monitor one sample per spec. Called with the window index that just
  /// closed; windows with no dispatch instants are simply never flushed
  /// (they hold no data and contribute no SLO sample).
  void flush_windows(std::int64_t window) {
    const auto fl = [&](obs::TimeSeries* s, WindowAgg& a) {
      if (s == nullptr || a.count == 0) return;
      s->merge(window, a.first_time, a.sum, a.count, a.min, a.max);
      a = WindowAgg{};
    };
    fl(win_reads_, agg_reads_);
    fl(win_writes_, agg_writes_);
    fl(win_shed_, agg_shed_);
    fl(win_failed_, agg_failed_);
    fl(win_degraded_, agg_degraded_);
    fl(win_response_, agg_response_);
    fl(win_q_, agg_q_);
    for (std::size_t d = 0; d < win_device_.size(); ++d) {
      fl(win_device_[d], agg_device_[d]);
    }
    for (std::size_t k = 0; k < win_tenant_reads_.size(); ++k) {
      fl(win_tenant_reads_[k], agg_tenant_reads_[k]);
      fl(win_tenant_shed_[k], agg_tenant_shed_[k]);
    }
    for (std::size_t si = 0; si < slo_tallies_.size(); ++si) {
      auto& st = slo_tallies_[si];
      obs::SloMonitor::global().record(si, window, st.total, st.bad);
      st.total = 0;
      st.bad = 0;
    }
  }

  /// Adaptive degraded-mode budgets. While devices are down, deterministic
  /// admission runs against the surviving sub-design's guarantee
  /// S' = (c-f-1)M² + (c-f)M (f = worst-case dead replicas over buckets
  /// that still have a live copy) and statistical admission re-derives Q
  /// from a P_k table sampled on the degraded array. Recomputed whenever
  /// the down-set changes; tables are memoized per mask.
  void update_budgets() {
    if (live_mask_.empty()) {
      det_limit_now_ = det_.limit();
      if (stat_.has_value()) stat_->set_budget(det_.limit(), cfg_.p_table);
      if (tenant_mode_) ts_->set_live_budget(det_limit_now_);
      return;
    }
    std::uint32_t f = 0;
    for (BucketId b = 0; b < scheme_.buckets(); ++b) {
      std::uint32_t dead = 0;
      std::uint32_t alive = 0;
      for (const auto d : scheme_.replicas(b)) {
        if (live_mask_[d]) {
          ++alive;
        } else {
          ++dead;
        }
      }
      if (alive > 0) f = std::max(f, dead);
    }
    const std::uint32_t c_eff = scheme_.copies() > f ? scheme_.copies() - f : 1;
    det_limit_now_ = design::guarantee_buckets(c_eff, cfg_.access_budget);
    if (stat_.has_value()) {
      auto [it, fresh] = degraded_tables_.try_emplace(live_mask_);
      if (fresh) {
        const auto max_k = static_cast<std::uint32_t>(cfg_.p_table.size() - 1);
        it->second = sample_optimal_probabilities(
            scheme_, max_k,
            {.samples_per_size = cfg_.p_table_samples,
             .seed = cfg_.p_table_seed,
             .threads = 1},
            live_mask_);
      }
      stat_->set_budget(det_limit_now_, it->second);
    }
    if (tenant_mode_) ts_->set_live_budget(det_limit_now_);
  }

  /// Effective read service on `dev` for a read starting at `at`: the base
  /// quantum stretched by any covering latency-spike window. Passed to the
  /// simulator as a per-request override so the dispatch model and the
  /// event simulator agree exactly.
  [[nodiscard]] SimTime read_service(DeviceId dev, SimTime at) const {
    if (!faults_active_) return L_;
    const double factor = injector_->service_multiplier(dev, at);
    if (factor == 1.0) return L_;
    return std::max<SimTime>(
        1, static_cast<SimTime>(std::llround(static_cast<double>(L_) * factor)));
  }

  void dispatch_request(std::size_t idx, DeviceId dev, SimTime start) {
    const SimTime svc = read_service(dev, start);
    array_->submit(flashsim::IoRequest{.id = idx,
                                       .device = dev,
                                       .submit_time = start,
                                       .pages = 1,
                                       .service_override =
                                           faults_active_ ? svc : SimTime{0}});
    auto& o = out(idx);
    o.device = dev;
    o.start = start;
    o.finish = start + svc;
    free_at_[dev] = std::max(free_at_[dev], o.finish);
    mark_dispatched(idx);
    if constexpr (obs::kEnabled) {
      ++dispatches_tally_;
      // Window tallies key on the dispatch instant (== `now_` at
      // every call site), which always lies in the open QoS window.
      const SimTime at = o.dispatch;
      const std::int64_t resp = o.finish - o.dispatch;
      agg_reads_.add(at, 1);
      agg_response_.add(at, resp);
      agg_device_[dev].add(at, 1);
      if (win_q_ != nullptr) agg_q_.add(at, o.q_ppm);
      if (o.path == RetrievalPath::kDegraded) agg_degraded_.add(at, 1);
      if (tenant_mode_) {
        agg_tenant_reads_[static_cast<std::size_t>(o.tenant)].add(at, 1);
      }
      for (auto& st : slo_tallies_) {
        if (st.kind == obs::SloKind::kAdmissionFloor) continue;
        if (st.tenant >= 0 &&
            static_cast<std::uint32_t>(st.tenant) != o.tenant) {
          continue;
        }
        ++st.total;
        if (resp > st.threshold_ns) ++st.bad;
      }
    }
  }

  /// Hot-spare rebuild reads are paced background work: submitted to the
  /// simulator like foreground dispatches (they occupy real device time, so
  /// the dispatch model folds them into free_at), but their completions are
  /// not trace outcomes.
  void submit_rebuild_due(SimTime now) {
    const auto due = injector_->take_rebuild_due(now);
    for (const auto& rr : due) {
      const SimTime start = std::max(free_at_[rr.source], rr.time);
      const SimTime svc = read_service(rr.source, start);
      array_->submit(flashsim::IoRequest{.id = next_background_op_++,
                                         .device = rr.source,
                                         .submit_time = start,
                                         .pages = 1,
                                         .service_override = svc});
      free_at_[rr.source] = start + svc;
    }
    if constexpr (obs::kEnabled) {
      if (!due.empty()) {
        auto& fm = FaultMetrics::get();
        fm.rebuild_reads.inc(due.size());
        fm.rebuild_pending.add(-static_cast<std::int64_t>(due.size()));
      }
    }
  }

  // ---- one dispatch instant ------------------------------------------------

  /// One same-instant dispatch group, as the paper's per-instant steps.
  /// Each phase is one member below; per-instant state (now_, group_ and
  /// buckets_, the batch/surplus lists, requeue_) lives in members so
  /// steady-state instants allocate nothing and ingestion can interleave
  /// between groups.
  ///  1. pop_group, roll_over — pop the group (dropping stale WFQ wakes),
  ///     submit due rebuild reads, advance the simulator, roll the FIM
  ///     mapping and the QoS interval forward;
  ///  2. resolve — count demand, map blocks to buckets, stamp the
  ///     tentative outcome;
  ///  3. check_availability — mask down devices, retry or fail requests
  ///     whose replicas are all down;
  ///  4. place_writes — replicate writes to every live copy;
  ///  5. admit (single-tenant budget) or enqueue_fresh + dispense (WFQ, in
  ///     virtual-finish order) — fill the batch and surplus lists;
  ///  6. place — one placement path for both front ends;
  ///  7. requeue — deferrals, boundary wakes and retries re-enter the
  ///     dispatch queue.
  void process_group() {
    pop_group();
    roll_over();
    resolve();
    if (faults_active_) check_availability();
    place_writes();
    if (tenant_mode_) {
      enqueue_fresh();
      dispense();
    } else {
      admit();
    }
    place();
    requeue();
  }

  /// Pop every entry dispatching at the earliest queued instant, drop
  /// stale WFQ wakes (requests dispensed or failed at an earlier instant
  /// while their boundary wake was pending), then bring the rebuild stream
  /// and the simulator up to the instant.
  void pop_group() {
    now_ = queue_.top().dispatch;
    group_.clear();
    while (!queue_.empty() && queue_.top().dispatch == now_) {
      group_.push_back(queue_.top());
      queue_.pop();
    }
    if (tenant_mode_) {
      std::erase_if(group_, [&](const Pending& g) { return tst(g.idx) == 2; });
    }
    if (faults_active_) submit_rebuild_due(now_);
    array_->run_until(now_);
  }

  /// Reporting-interval rollover rebuilds the FIM mapping from the slice
  /// that just closed (paper: "we use the trace one previous than the
  /// current interval for mining"); QoS-interval rollover closes the
  /// admission interval and resets its budget.
  void roll_over() {
    if (mines_fim()) {
      const auto target = static_cast<std::size_t>(now_ / report_interval_);
      while (report_idx_ < target && report_idx_ < mine_limit_) {
        mapper_.rebuild(fim::mine_pairs_apriori(take_slice_db(report_idx_),
                                                cfg_.fim_min_support)
                            .pairs);
        ++report_idx_;
      }
    }
    const std::int64_t qi = now_ / T_;
    if (qi == current_qi_) return;
    if (stat_.has_value() && current_qi_ >= 0) {
      stat_->end_interval(demand_, admitted_);
    }
    if constexpr (obs::kEnabled) {
      if (current_qi_ >= 0) {
        obs::Tracer::global().record(
            {.request = -1,
             .start = now_,
             .end = now_,
             .value = static_cast<std::int64_t>(admitted_),
             .device = -1,
             .kind = obs::EventKind::kInterval,
             .detail = obs::EventDetail::kNone});
        flush_windows(current_qi_);
      }
    }
    current_qi_ = qi;
    admitted_ = 0;
    demand_ = 0;
    if (tenant_mode_) {
      // Depth sampled at the boundary = backlog carried across it.
      ts_->observe_depths();
      if constexpr (obs::kEnabled) {
        for (std::size_t k = 0; k < depth_hist_.size(); ++k) {
          depth_hist_[k]->record(static_cast<std::int64_t>(ts_->depth(k)));
        }
      }
      ts_->begin_interval(det_limit_now_);
    }
  }

  /// Count read demand (writes bypass read admission), resolve buckets
  /// through the mapper and stamp each member's dispatch tentatively (a
  /// deferred request's outcome is overwritten on its next pass).
  void resolve() {
    // Q estimate for this interval (constant between end_interval calls).
    const auto q_ppm =
        stat_.has_value()
            ? static_cast<std::int32_t>(std::llround(stat_->q_with() * 1e6))
            : 0;
    buckets_.resize(group_.size());
    for (std::size_t i = 0; i < group_.size(); ++i) {
      const auto& e = ev(group_[i].idx);
      if (e.is_read) ++demand_;
      const auto m = mapper_.map(e.block);
      buckets_[i] = m.bucket;
      auto& o = out(group_[i].idx);
      o.dispatch = now_;
      o.fim_matched = cfg_.mapping == MappingMode::kFim && m.matched;
      o.q_ppm = q_ppm;
      o.tenant = e.tenant;
    }
    if constexpr (obs::kEnabled) map_calls_tally_ += group_.size();
  }

  /// Device availability at this instant: refresh the degraded budgets
  /// when the down-set changes, then settle every member with no live
  /// replica by the strand rule — requeued for a retry, or failed. In
  /// tenant mode reads pass through: a stranded head is settled at
  /// dispense time, where its WFQ queue can drop it. (`available_` stays
  /// empty — all up — while no device is down, so a fully recovered array
  /// is indistinguishable from a healthy one.)
  void check_availability() {
    const std::uint32_t down =
        injector_->fill_availability(now_, scheme_.devices(), mask_scratch_);
    if (down == 0) {
      available_.clear();
    } else {
      available_ = mask_scratch_;
    }
    if (available_ != live_mask_) {
      live_mask_ = available_;
      update_budgets();
    }
    if (down == 0) return;
    if (current_qi_ != last_degraded_qi_) {
      ++degraded_interval_tally_;
      last_degraded_qi_ = current_qi_;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      const std::size_t id = group_[i].idx;
      if (!(tenant_mode_ && ev(id).is_read)) {
        const Strand s = strand(id, buckets_[i]);
        if (s.kind == Strand::kWait) {
          requeue_.push_back(Pending{s.retry_at, id});
          ++retries_tally_;
        }
        if (s.kind != Strand::kLive) continue;
      }
      group_[kept] = group_[i];
      buckets_[kept++] = buckets_[i];
    }
    group_.resize(kept);
    buckets_.resize(kept);
  }

  /// A request's fate when every replica of its bucket may be down.
  struct Strand {
    enum Kind : std::uint8_t { kLive, kWait, kFailed } kind = kLive;
    SimTime retry_at = 0;  // kWait: the boundary to retry at
  };

  /// The strand rule, shared by the group filter and WFQ dispense: live
  /// while some replica is up; otherwise wait for the first boundary after
  /// the earliest recovery (chasing chained windows), or — when no replica
  /// ever comes back, or the wait would exceed the plan's retry timeout —
  /// fail, stamped here.
  [[nodiscard]] Strand strand(std::size_t id, BucketId bucket) {
    if (available_.empty()) return {};
    const auto reps = scheme_.replicas(bucket);
    if (std::any_of(reps.begin(), reps.end(),
                    [&](DeviceId d) { return available_[d]; })) {
      return {};
    }
    SimTime recovery = DeviceFailure::kNeverRecovers;
    for (const auto d : reps) {
      recovery = std::min(recovery, injector_->device_up_at(d, now_));
    }
    if (recovery != DeviceFailure::kNeverRecovers) {
      const SimTime retry_at =
          std::max(next_boundary(), next_interval_start(recovery, T_));
      if (retry_timeout_ == fault::RetryPolicy::kNoTimeout ||
          retry_at - out(id).arrival <= retry_timeout_) {
        return {Strand::kWait, retry_at};
      }
      ++timeouts_tally_;
    }
    finish_unserved(id, RetrievalPath::kFailed);
    return {Strand::kFailed, 0};
  }

  /// Final outcome of a request that never reaches a device: failed, or
  /// shed at the WFQ front end. Stamped at this instant so neither can
  /// distort the latency populations.
  void finish_unserved(std::size_t id, RetrievalPath path) {
    auto& o = out(id);
    o.dispatch = now_;
    o.start = now_;
    o.finish = now_;
    o.failed = true;
    o.path = path;
    tst(id) = 2;
    mark_final(id);
    if constexpr (obs::kEnabled) {
      if (path == RetrievalPath::kShed) {
        agg_shed_.add(now_, 1);
        agg_tenant_shed_[ev(id).tenant].add(now_, 1);
      } else {
        agg_failed_.add(now_, 1);
      }
    }
  }

  /// Writes (extension): replicate the program to every live copy and
  /// keep only the reads in the group. Writes bypass read admission, but
  /// the device time they consume is real — the matcher sees the updated
  /// free times and defers reads accordingly. Processed before the group's
  /// reads (pessimistic for read QoS).
  void place_writes() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      const std::size_t id = group_[i].idx;
      if (ev(id).is_read) {
        group_[kept] = group_[i];
        buckets_[kept++] = buckets_[i];
        continue;
      }
      auto& o = out(id);
      o.is_write = true;
      o.path = RetrievalPath::kWrite;
      SimTime first_start = INT64_MAX;
      SimTime last_finish = 0;
      DeviceId first_dev = kInvalidDevice;
      for (const auto dev : scheme_.replicas(buckets_[i])) {
        if (!available_.empty() && !available_[dev]) continue;
        const SimTime start = std::max(free_at_[dev], now_);
        const SimTime finish = start + cfg_.write_latency;
        array_->submit(flashsim::IoRequest{.id = next_background_op_++,
                                           .device = dev,
                                           .submit_time = now_,
                                           .pages = 1,
                                           .is_write = true});
        if constexpr (obs::kEnabled) ++write_ops_tally_;
        free_at_[dev] = finish;
        if (start < first_start) {
          first_start = start;
          first_dev = dev;
        }
        last_finish = std::max(last_finish, finish);
      }
      FLASHQOS_ASSERT(first_dev != kInvalidDevice, "filter left a dead write");
      o.device = first_dev;
      o.start = first_start;
      o.finish = last_finish;
      if constexpr (obs::kEnabled) agg_writes_.add(now_, 1);
      mark_final(id);
    }
    group_.resize(kept);
    buckets_.resize(kept);
  }

  /// How many of `count` more requests this interval's budget admits:
  /// S while healthy, S' while degraded. DeterministicAdmission itself
  /// stays fixed at S; only this wrapper tracks the adaptive limit.
  [[nodiscard]] std::uint64_t accept(std::uint64_t count) const {
    switch (cfg_.admission) {
      case AdmissionMode::kNone:
        break;
      case AdmissionMode::kDeterministic:
        return admitted_ >= det_limit_now_
                   ? 0
                   : std::min<std::uint64_t>(count, det_limit_now_ - admitted_);
      case AdmissionMode::kStatistical:
        return stat_->accept(admitted_, count);
    }
    return count;
  }

  /// Single-tenant admission. Primary-only and aligned admit a prefix of
  /// the group — the baseline one request at a time, the aligned batch in
  /// one accept — and defer the rest. Online admits a read only if it can
  /// be fitted inside the access budget on currently available device
  /// slots (with remapping of the same-instant batch), which is what makes
  /// every admitted request meet the guarantee exactly (the paper's flat
  /// 0.132507 ms line). Statistical surplus beyond S is admitted while
  /// Q < ε and served from the earliest-finishing replica, queueing
  /// allowed (the Fig. 10 response-time cost).
  void admit() {
    if (!slot_matching_) {
      std::size_t n = 0;
      if (cfg_.scheduler == SchedulerMode::kPrimaryOnly) {
        while (n < group_.size() && accept(1) > 0) {
          ++admitted_;
          ++n;
        }
      } else {
        n = accept(group_.size());
        admitted_ += n;
      }
      for (std::size_t i = 0; i < group_.size(); ++i) {
        if (i < n) {
          batch_ids_.push_back(group_[i].idx);
          batch_buckets_.push_back(buckets_[i]);
        } else {
          defer(group_[i].idx);
        }
      }
      return;
    }
    begin_matching();
    for (std::size_t i = 0; i < group_.size(); ++i) {
      const bool in_budget =
          cfg_.admission == AdmissionMode::kNone || admitted_ < det_limit_now_;
      switch (offer(buckets_[i], in_budget)) {
        case Fit::kMatched:
          ++admitted_;
          batch_ids_.push_back(group_[i].idx);
          break;
        case Fit::kOverflow:
          surplus_ids_.push_back(group_[i].idx);
          surplus_buckets_.push_back(buckets_[i]);
          break;
        case Fit::kRefused:
          if (cfg_.admission == AdmissionMode::kStatistical &&
              admitted_ >= det_limit_now_ && stat_->accept(admitted_, 1) > 0) {
            matching_open_ = false;  // surplus placements stale the slot view
            ++admitted_;
            surplus_ids_.push_back(group_[i].idx);
            surplus_buckets_.push_back(buckets_[i]);
          } else {
            defer(group_[i].idx);
          }
          break;
      }
    }
  }

  /// Arm the slot matcher for this instant. Under a latency spike it gets
  /// per-device effective quanta: a stretched slot fits fewer times in the
  /// guarantee window.
  void begin_matching() {
    const std::vector<SimTime>* svc_ptr = nullptr;
    if (faults_active_ && injector_->any_spike_at(now_)) {
      svc_now_.resize(scheme_.devices());
      for (DeviceId d = 0; d < scheme_.devices(); ++d) {
        svc_now_[d] = read_service(d, now_);
      }
      svc_ptr = &svc_now_;
    }
    matcher_.begin_instant(free_at_, now_, L_, cfg_.access_budget, available_,
                           svc_ptr);
    matching_open_ = true;
  }

  enum class Fit : std::uint8_t { kMatched, kOverflow, kRefused };

  /// Offer one read to the slot matcher: matched while `in_budget` and the
  /// slot view is valid. With no admission (kNone) a refusal overflows to
  /// the surplus list instead, and closes matching: surplus placements
  /// change free_at under the matcher, so the slot view is stale from the
  /// first refusal on.
  [[nodiscard]] Fit offer(BucketId bucket, bool in_budget) {
    if (in_budget && matching_open_ && matcher_.add(bucket)) return Fit::kMatched;
    if (cfg_.admission != AdmissionMode::kNone) return Fit::kRefused;
    matching_open_ = false;
    return Fit::kOverflow;
  }

  /// WFQ front end, part 1: fresh reads join their tenant queue, with
  /// mark/shed backpressure applied at enqueue. Wakes are already queued.
  void enqueue_fresh() {
    for (const auto& g : group_) {
      const std::size_t id = g.idx;
      if (tst(id) != 0) continue;
      const std::size_t tid = ev(id).tenant;
      const auto verdict = ts_->enqueue(tid, id);
      if constexpr (obs::kEnabled) {
        tally_admission_floor(tid, verdict == WfqQueues::Enqueue::kShed);
      }
      switch (verdict) {
        case WfqQueues::Enqueue::kShed:
          // Hard backpressure: dropped at the front end, never queued.
          finish_unserved(id, RetrievalPath::kShed);
          break;
        case WfqQueues::Enqueue::kMarked:
          out(id).wfq_marked = true;
          [[fallthrough]];
        case WfqQueues::Enqueue::kAccepted:
          tst(id) = 1;
          break;
      }
    }
  }

  /// Admission-floor SLOs count every fresh enqueue attempt; sheds are
  /// the bad half.
  void tally_admission_floor(std::size_t tid, bool shed) {
    for (auto& st : slo_tallies_) {
      if (st.kind != obs::SloKind::kAdmissionFloor) continue;
      if (st.tenant >= 0 && static_cast<std::size_t>(st.tenant) != tid) continue;
      ++st.total;
      if (shed) ++st.bad;
    }
  }

  /// WFQ front end, part 2: dispense the live budget across backlogged
  /// tenants in virtual-finish-time order, reservations honored as floors.
  /// Every candidate head takes one path: stale drop, map, strand rule,
  /// then the scheduler's take rule. Primary-only and aligned take every
  /// head the budget offers; online offers it to the slot matcher, and a
  /// refused head blocks its tenant for this instant only — the next head
  /// in VFT order may still fit, which keeps slots from idling while any
  /// queue is backlogged. The Pending queue doubles as the wake clock:
  /// every still-queued request holds exactly one wake at the next
  /// boundary, so backlog keeps draining after the last arrival.
  void dispense() {
    const bool unlimited = cfg_.admission == AdmissionMode::kNone;
    tenant_blocked_.assign(ts_->tenants(), false);
    if (slot_matching_) begin_matching();
    while (const auto tid = ts_->next_candidate(tenant_blocked_, unlimited)) {
      const std::uint64_t id = ts_->head(*tid);
      if (tst(id) == 2) {
        ts_->drop_head(*tid);
        continue;
      }
      const auto m = mapper_.map(ev(id).block);
      if constexpr (obs::kEnabled) ++map_calls_tally_;
      const Strand s = strand(id, m.bucket);
      if (s.kind == Strand::kFailed) {
        ts_->drop_head(*tid);
        continue;
      }
      const Fit fit = s.kind == Strand::kWait ? Fit::kRefused
                      : slot_matching_        ? offer(m.bucket, true)
                                              : Fit::kMatched;
      if (fit == Fit::kRefused) {
        tenant_blocked_[*tid] = true;
        continue;
      }
      ts_->pop(*tid, unlimited);
      // The dispatch instant is when the scheduler releases the request,
      // so delay and deferral mean what they mean single-tenant.
      auto& o = out(id);
      o.dispatch = now_;
      o.fim_matched = cfg_.mapping == MappingMode::kFim && m.matched;
      o.q_ppm = 0;
      tst(id) = 2;
      if (fit == Fit::kOverflow) {
        surplus_ids_.push_back(id);
        surplus_buckets_.push_back(m.bucket);
      } else {
        ++admitted_;
        batch_ids_.push_back(id);
        batch_buckets_.push_back(m.bucket);
      }
    }
    // One wake per still-queued member of this group; queued requests
    // from older groups already hold theirs.
    for (const auto& g : group_) {
      if (tst(g.idx) == 1) defer(g.idx);
    }
  }

  /// Placement, one path for both front ends. The admitted batch goes to
  /// its first live replica (primary-only), through one DTR/max-flow
  /// schedule (aligned), or into its matched slots (online); surplus reads
  /// go to their earliest-finishing live replica. WFQ overflow heads take
  /// their devices before the matched slots materialize, single-tenant
  /// surplus after them; the golden snapshots pin both orders.
  void place() {
    if (cfg_.scheduler == SchedulerMode::kPrimaryOnly) {
      for (std::size_t k = 0; k < batch_ids_.size(); ++k) {
        place_on(batch_ids_[k], first_live(batch_buckets_[k]),
                 RetrievalPath::kPrimary);
      }
    } else if (!slot_matching_) {
      place_aligned();
    } else if (tenant_mode_) {
      place_surplus();
      place_matched();
    } else {
      place_matched();
      place_surplus();
    }
    batch_ids_.clear();
    batch_buckets_.clear();
    surplus_ids_.clear();
    surplus_buckets_.clear();
  }

  void place_on(std::size_t id, DeviceId dev, RetrievalPath path) {
    out(id).path = path;
    dispatch_request(id, dev, std::max(free_at_[dev], now_));
  }

  /// First live replica — the primary-only baseline's degraded RAID read.
  [[nodiscard]] DeviceId first_live(BucketId bucket) const {
    DeviceId dev = kInvalidDevice;
    for (const auto d : scheme_.replicas(bucket)) {
      if (available_.empty() || available_[d]) {
        dev = d;
        break;
      }
    }
    FLASHQOS_ASSERT(dev != kInvalidDevice, "strand rule left a dead request");
    return dev;
  }

  /// Live replica that frees up first (ties to the earlier replica).
  [[nodiscard]] DeviceId earliest_live(BucketId bucket) const {
    DeviceId best = kInvalidDevice;
    for (const auto d : scheme_.replicas(bucket)) {
      if (!available_.empty() && !available_[d]) continue;
      if (best == kInvalidDevice ||
          std::max(free_at_[d], now_) < std::max(free_at_[best], now_)) {
        best = d;
      }
    }
    FLASHQOS_ASSERT(best != kInvalidDevice, "strand rule left a dead request");
    return best;
  }

  /// Aligned batch: one DTR (+ max-flow fallback) schedule, dispatched
  /// behind any residual device work; requests on one device start back to
  /// back in round order.
  void place_aligned() {
    if (batch_ids_.empty()) return;
    const retrieval::Schedule* sched =
        retriever_.schedule(batch_buckets_, available_);
    FLASHQOS_ASSERT(sched != nullptr, "strand rule left a dead request");
    const RetrievalPath path = !available_.empty() ? RetrievalPath::kDegraded
                               : sched->via == retrieval::SolvedBy::kMaxFlow
                                   ? RetrievalPath::kAlignedMaxFlow
                                   : RetrievalPath::kAlignedDtr;
    order_.resize(batch_ids_.size());
    for (std::size_t k = 0; k < order_.size(); ++k) order_[k] = k;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return sched->assignments[a].round <
                              sched->assignments[b].round;
                     });
    for (const auto k : order_) {
      place_on(batch_ids_[k], sched->assignments[k].device, path);
    }
  }

  /// Materialize matched slots. Add order is admission order (FIFO, or VFT
  /// under WFQ), so per-device slots follow it.
  void place_matched() {
    cursor_.assign(free_at_.size(), -1);
    for (std::size_t a = 0; a < batch_ids_.size(); ++a) {
      const std::size_t id = batch_ids_[a];
      const DeviceId dev = matcher_.device_of(a);
      FLASHQOS_ASSERT(dev != kInvalidDevice, "matched request must have a device");
      SimTime& c = cursor_[dev];
      if (c < 0) c = std::max(free_at_[dev], now_);
      out(id).path = RetrievalPath::kSlotMatched;
      dispatch_request(id, dev, c);
      // Advance by the *actual* finish — under a latency spike the slot is
      // wider than L, and the next slot on this device starts after it.
      c = out(id).finish;
    }
  }

  /// Statistical surplus and no-admission overflow, queueing allowed.
  void place_surplus() {
    for (std::size_t k = 0; k < surplus_ids_.size(); ++k) {
      place_on(surplus_ids_[k], earliest_live(surplus_buckets_[k]),
               RetrievalPath::kSurplus);
    }
  }

  [[nodiscard]] SimTime next_boundary() const { return (current_qi_ + 1) * T_; }

  /// Carry a request to the next QoS boundary: an admission deferral or a
  /// WFQ boundary wake.
  void defer(std::size_t id) {
    requeue_.push_back(Pending{next_boundary(), id});
    if constexpr (obs::kEnabled) ++deferrals_tally_;
  }

  /// Everything carried past this instant re-enters the dispatch queue.
  void requeue() {
    for (const auto& p : requeue_) queue_.push(p);
    requeue_.clear();
  }

  // ---- finish ------------------------------------------------------------

  /// Per-replay registry publication: the final open window, the loop
  /// tallies, fault accounting, per-tenant WFQ counters.
  void publish_run_metrics() {
    if (current_qi_ >= 0) flush_windows(current_qi_);
    auto& m = PipelineMetrics::get();
    m.dispatches.inc(dispatches_tally_);
    m.deferral_events.inc(deferrals_tally_);
    m.map_calls.inc(map_calls_tally_);
    m.write_replica_ops.inc(write_ops_tally_);
    if (faults_active_) {
      auto& fm = FaultMetrics::get();
      fm.injected_outages.inc(injector_->compiled().outages.size());
      fm.injected_spikes.inc(injector_->compiled().spikes.size());
      if (degraded_interval_tally_ > 0) {
        fm.degraded_intervals.inc(degraded_interval_tally_);
      }
      if (retries_tally_ > 0) fm.retries.inc(retries_tally_);
      if (timeouts_tally_ > 0) fm.timeouts.inc(timeouts_tally_);
      // Rebuild reads due after the last dispatch instant never run (the
      // trace ended); return their pending-gauge contribution so the gauge
      // reads 0 between replays.
      const auto leftover = static_cast<std::int64_t>(
          injector_->rebuild_reads_total() - injector_->rebuild_reads_issued());
      if (leftover > 0) fm.rebuild_pending.add(-leftover);
    }
    if (tenant_mode_) {
      // Per-tenant WFQ tallies, published once per replay like everything
      // else; wfq.vtime accumulates virtual-clock progress (micro-units)
      // across replays.
      auto& reg = obs::MetricRegistry::global();
      reg.gauge("wfq.vtime").add(std::llround(ts_->virtual_time() * 1e6));
      for (std::size_t k = 0; k < ts_->tenants(); ++k) {
        const auto& u = ts_->usage(k);
        const std::string label = "tenant=\"" + cfg_.tenants[k].name + "\"";
        if (u.arrivals > 0) reg.counter("wfq.arrivals", label).inc(u.arrivals);
        if (u.admitted > 0) reg.counter("wfq.admitted", label).inc(u.admitted);
        if (u.shed > 0) reg.counter("wfq.shed", label).inc(u.shed);
        if (u.marked > 0) reg.counter("wfq.marked", label).inc(u.marked);
      }
    }
  }

  StreamResult finish() {
    if (stat_.has_value()) stat_->end_interval(demand_, admitted_);
    StreamResult res;
    if (tenant_mode_) {
      FLASHQOS_ASSERT(!ts_->backlogged(),
                      "tenant backlog must drain before the replay ends");
      res.tenant_usage.resize(ts_->tenants());
      for (std::size_t k = 0; k < ts_->tenants(); ++k) {
        res.tenant_usage[k] = ts_->usage(k);
      }
    }
    array_->run();
    absorb_completions();
    FLASHQOS_ASSERT(win_.empty(),
                    "every request must reach a final state by end of stream");
    if constexpr (obs::kEnabled) {
      publish_run_metrics();
      obs_folder_->publish(static_cast<std::size_t>(win_.end()),
                          deadline_violations_);
      obs_folder_.reset();  // flushes the histogram tallies
    }
    res.requests = win_.end();
    res.deadline_violations = deadline_violations_;
    if (report_interval_ > 0 && keep_intervals_) {
      if (interval_folds_.size() < slices_total_) {
        interval_folds_.resize(slices_total_);
      }
      res.intervals.reserve(slices_total_);
      for (std::size_t i = 0; i < slices_total_; ++i) {
        res.intervals.push_back(interval_folds_[i].finalize());
      }
    }
    res.overall = overall_fold_.finalize();
    return res;
  }

  // ---- wiring ------------------------------------------------------------
  const decluster::AllocationScheme& scheme_;
  const PipelineConfig& cfg_;
  retrieval::Retriever& retriever_;
  const SimTime T_;
  const SimTime L_;
  BlockMapper mapper_;
  DeterministicAdmission det_;
  SlotMatcher matcher_;  // persists across instants; begin_instant() re-arms
  const bool tenant_mode_;
  bool keep_intervals_ = true;
  OutcomeSink* sink_ = nullptr;
  SimTime report_interval_ = 0;

  // ---- ingestion and result fold -------------------------------------------
  SlotWindow win_;               // in-flight requests, by ingestion index
  std::vector<flashsim::IoCompletion> completions_;  // reused every instant
  SimTime last_time_ = 0;        // arrival time of the last ingested event
  std::size_t slices_total_ = 0;
  /// Reporting slices the FIM rollover may mine: unbounded until EOF.
  std::size_t mine_limit_ = std::numeric_limits<std::size_t>::max();
  std::deque<fim::TransactionDb> slice_dbs_;  // slices [slice_db_base_, ...]
  std::size_t slice_db_base_ = 0;
  std::size_t fim_slice_ = 0;    // slice fim_tx_ is filling
  SliceTransactionBuilder fim_tx_{cfg_.qos_interval};
  OutcomeFold overall_fold_;
  std::vector<OutcomeFold> interval_folds_;
  std::optional<OutcomeObsFolder> obs_folder_;
  std::size_t deadline_violations_ = 0;

  // ---- replay state --------------------------------------------------------
  std::optional<StatisticalAdmission> stat_;
  std::optional<TenantScheduler> ts_;
  std::vector<bool> tenant_blocked_;
  std::vector<obs::LatencyHistogram*> depth_hist_;

  obs::TimeSeries* win_reads_ = nullptr;
  obs::TimeSeries* win_writes_ = nullptr;
  obs::TimeSeries* win_shed_ = nullptr;
  obs::TimeSeries* win_failed_ = nullptr;
  obs::TimeSeries* win_degraded_ = nullptr;
  obs::TimeSeries* win_response_ = nullptr;
  obs::TimeSeries* win_q_ = nullptr;
  std::vector<obs::TimeSeries*> win_device_;
  std::vector<obs::TimeSeries*> win_tenant_reads_;
  std::vector<obs::TimeSeries*> win_tenant_shed_;
  WindowAgg agg_reads_, agg_writes_, agg_shed_, agg_failed_, agg_degraded_,
      agg_response_, agg_q_;
  std::vector<WindowAgg> agg_device_;
  std::vector<WindowAgg> agg_tenant_reads_;
  std::vector<WindowAgg> agg_tenant_shed_;
  // Live SLO evaluation: per-spec {total, bad} tallies for the open window,
  // fed to the global SloMonitor at the same rollover flush. `tenant` is
  // the resolved tenant index (-1 = all traffic).
  struct SloTally {
    obs::SloKind kind;
    std::int64_t threshold_ns;
    std::int32_t tenant;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  std::vector<SloTally> slo_tallies_;

  std::optional<fault::FaultInjector> injector_;
  bool faults_active_ = false;
  SimTime retry_timeout_ = 0;
  std::uint64_t det_limit_now_ = 0;
  /// Availability mask of the last dispatch instant, as fill_availability
  /// writes it: true = up. Empty = all devices up.
  std::vector<bool> live_mask_;
  std::vector<bool> mask_scratch_;
  std::map<std::vector<bool>, std::vector<double>> degraded_tables_;
  std::uint64_t retries_tally_ = 0;
  std::uint64_t timeouts_tally_ = 0;
  std::uint64_t degraded_interval_tally_ = 0;
  std::int64_t last_degraded_qi_ = -1;

  std::optional<flashsim::FlashArray> array_;
  std::uint64_t next_background_op_ = kBackgroundIdBase;
  std::vector<SimTime> free_at_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;

  std::size_t report_idx_ = 0;  // which reporting interval the mapper is built for
  std::int64_t current_qi_ = -1;  // current QoS interval index
  std::uint64_t admitted_ = 0;   // requests admitted in current QoS interval
  std::uint64_t demand_ = 0;     // requests that asked for this interval

  // Per-event counters are tallied in plain locals and published once after
  // the loop — the shared sharded counters cost an atomic RMW per inc,
  // which is measurable at one inc per dispatched request.
  std::uint64_t dispatches_tally_ = 0;
  std::uint64_t deferrals_tally_ = 0;
  std::uint64_t write_ops_tally_ = 0;
  std::uint64_t map_calls_tally_ = 0;

  // Per-instant state, hoisted out of the dispatch loop so steady-state
  // scheduling reuses its capacity instead of reallocating every group.
  SimTime now_ = 0;              // the dispatch instant being processed
  const bool slot_matching_;     // online, replica-scheduled placement
  bool matching_open_ = false;   // the matcher's slot view is still valid
  std::vector<Pending> group_;
  std::vector<BucketId> buckets_;  // group_'s resolved buckets
  std::vector<bool> available_;
  // Admitted batch (aligned / primary-only) or matched reads in add order
  // (online), and surplus reads; filled by admission, emptied by place().
  std::vector<std::size_t> batch_ids_;
  std::vector<BucketId> batch_buckets_;
  std::vector<std::size_t> surplus_ids_;
  std::vector<BucketId> surplus_buckets_;
  std::vector<Pending> requeue_;  // carried past this instant
  std::vector<std::size_t> order_;
  std::vector<SimTime> cursor_;
  std::vector<SimTime> svc_now_;  // per-device effective quanta under spikes
};

}  // namespace

StreamResult QosPipeline::run_stream(trace::TraceCursor& cursor,
                                     const StreamOptions& opts) {
  ReplayEngine engine(scheme_, cfg_, retriever_);
  return engine.run(cursor, opts);
}

PipelineResult replay_original(const trace::Trace& t, SimTime service_time,
                               SimTime deadline) {
  PipelineResult result;
  result.outcomes.resize(t.events.size());
  if (t.events.empty()) return result;
  FLASHQOS_EXPECT(valid_trace(t), "replay input must be a valid trace");
  FLASHQOS_EXPECT(t.volumes > 0, "original replay needs the trace volume count");

  flashsim::FlashArray array(
      t.volumes, std::make_shared<flashsim::FixedLatencyModel>(service_time));
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const auto& e = t.events[i];
    array.submit(flashsim::IoRequest{.id = i,
                                     .device = e.device,
                                     .submit_time = e.time,
                                     .pages = e.size_blocks});
    result.outcomes[i].arrival = e.time;
    result.outcomes[i].dispatch = e.time;
    result.outcomes[i].device = e.device;
  }
  array.run();
  std::vector<flashsim::IoCompletion> completions;
  array.take_completions(completions);
  for (const auto& c : completions) {
    result.outcomes[c.id].start = c.start;
    result.outcomes[c.id].finish = c.finish;
  }
  for (const auto& o : result.outcomes) {
    if (o.response() > deadline) ++result.deadline_violations;
  }
  finalize_reports(result, t);
  return result;
}

}  // namespace flashqos::core
