// End-to-end QoS pipeline (the paper's full system, §III-§IV).
//
// A pipeline owns the glue: trace events → FIM block mapping → admission
// control → retrieval scheduling → flash-array simulation → per-interval
// metrics. Two retrieval modes:
//
//  * kIntervalAligned — requests arriving inside an interval are deferred
//    to the next interval boundary and scheduled as one batch with
//    design-theoretic retrieval (+ max-flow remapping). §III-C.
//  * kOnline — requests are served the moment they arrive (FCFS, earliest-
//    finish replica); same-instant bursts are batch-scheduled. §IV-B.
//
// Admission is per QoS interval T: deterministic (≤ S), statistical
// (Q < ε), or none (baseline comparisons). Requests over the budget are
// *delayed* to the next interval (the paper's choice: "canceling the
// requests may effect the running state of applications").
//
// Metric conventions (matching the paper's figures):
//  * response time  = finish − dispatch. Dispatch is when admission releases
//    the request; the flat 0.132507 ms lines in Figs. 8/9 are this metric.
//  * delay          = dispatch − arrival; a request is "delayed" iff
//    admission pushed it to a later interval. Figs. 8(c,d), 9 labels, 12.
//  * end-to-end     = finish − arrival (reported for completeness).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/block_mapper.hpp"
#include "core/tenant_scheduler.hpp"
#include "decluster/allocation.hpp"
#include "fault/fault_plan.hpp"
#include "fim/transaction.hpp"
#include "flashsim/flash_array.hpp"
#include "obs/slo.hpp"
#include "retrieval/retriever.hpp"
#include "trace/event.hpp"

namespace flashqos::trace {
class TraceCursor;
}

namespace flashqos::core {

enum class RetrievalMode { kIntervalAligned, kOnline };
enum class AdmissionMode { kNone, kDeterministic, kStatistical };
enum class MappingMode { kModulo, kFim };

/// How a dispatched request picks among its replicas.
///  * kReplicaScheduled — the framework's retrieval machinery (batch DTR +
///    max-flow remapping, earliest-finish for singletons).
///  * kPrimaryOnly — always read the first copy. This is how the paper's
///    RAID-1 baselines behave in Table III (they have an allocation but no
///    retrieval algorithm); a mirrored layout under primary-only reads
///    concentrates each group's load on one device and collapses.
enum class SchedulerMode { kReplicaScheduled, kPrimaryOnly };

/// A device outage window (now defined by the fault subsystem; the core
/// spelling remains for existing code). Requests are never routed to a
/// down device; replication serves them from surviving copies (degraded
/// mode). A request whose replicas are all down waits for the earliest
/// recovery, or is marked failed if none of them ever comes back.
using DeviceFailure = fault::DeviceFailure;

struct PipelineConfig {
  SimTime qos_interval = kBaseInterval;  // T
  std::uint32_t access_budget = 1;       // M
  SimTime service_time = kPageReadLatency;
  RetrievalMode retrieval = RetrievalMode::kOnline;
  AdmissionMode admission = AdmissionMode::kDeterministic;
  SchedulerMode scheduler = SchedulerMode::kReplicaScheduled;
  double epsilon = 0.0;                  // statistical admission budget
  std::vector<double> p_table;           // P_k for statistical admission
  MappingMode mapping = MappingMode::kFim;
  std::uint64_t fim_min_support = 1;
  /// Everything that can go wrong during the replay: scripted outage and
  /// latency-spike windows, seeded generators, hot-spare rebuild, retry
  /// timeouts. Empty plan (the default) = healthy array, bit-identical to
  /// a run without the fault subsystem. Scripted outages live in
  /// `faults.outages` (the former `failures` vector).
  fault::FaultPlan faults;
  /// Monte-Carlo effort and stream for the *degraded* P_k tables the
  /// adaptive statistical admission re-samples when devices go down (the
  /// healthy table arrives pre-sampled in `p_table`).
  std::size_t p_table_samples = 400;
  std::uint64_t p_table_seed = 7;
  /// Page program time for write requests (extension; the paper's
  /// evaluation is read-only). Writes go to every live replica and bypass
  /// read admission, but they occupy devices — reads defer around them.
  SimTime write_latency = flashsim::kPageWriteLatency;
  /// Multi-tenant WFQ front end. Empty (the default) = single-tenant
  /// pipeline, bit-identical to a build without the tenant subsystem.
  /// Non-empty: every read is queued per its event's tenant index and the
  /// scheduler dispenses the live interval budget across tenants in
  /// virtual-finish-time order, reservations honored as floors
  /// (core/tenant_scheduler.hpp). Statistical admission is not yet
  /// supported with tenants (the surplus rule and the WFQ share interact;
  /// validate() rejects the combination).
  std::vector<TenantSpec> tenants;
  /// Deliberate-defect switches for the fairness oracle's liveness tests
  /// (see WfqKnobs); production configs leave this default.
  WfqKnobs wfq_knobs;
  /// Declarative SLOs evaluated live while this config replays (obs v2).
  /// Non-empty: the pipeline configures obs::SloMonitor::global() at
  /// replay start and feeds it one {total, bad} sample per spec per QoS
  /// window at interval rollovers. Response/miss specs count dispatched
  /// reads whose response exceeds the spec threshold; admission-floor
  /// specs count WFQ enqueue attempts vs sheds. A spec naming a tenant
  /// applies to that tenant's requests only (the name must exist in
  /// `tenants`); an empty tenant means all traffic. One SLO-configured
  /// pipeline at a time — the monitor is process-global, so concurrent
  /// sweep jobs must leave this empty.
  std::vector<obs::SloSpec> slos;

  /// Readable diagnostics; empty means the config is coherent. `devices`
  /// bounds fault-plan device ids when nonzero. QosPipeline's constructor
  /// and build_experiment() both call this, so an invalid combination
  /// fails at the boundary with context instead of deep inside the run.
  [[nodiscard]] std::vector<std::string> validate(std::uint32_t devices = 0) const;
};

/// Which serving path a request took. Recorded for observability but part
/// of the result contract: a serial run() and a run_jobs job must agree on
/// it exactly (audited by flashqos_verify --replay), so instrumentation
/// cannot silently change behaviour.
enum class RetrievalPath : std::uint8_t {
  kUnset = 0,
  kPrimary,         // primary-only scheduler: first live replica
  kSlotMatched,     // online deterministic slot matching (the flat line)
  kSurplus,         // online statistical surplus / no-admission overflow
  kAlignedDtr,      // aligned batch, DTR fast path produced the schedule
  kAlignedMaxFlow,  // aligned batch, max-flow fallback produced it
  kDegraded,        // scheduled around a device outage
  kWrite,           // replicated page program
  kFailed,          // no replica ever available
  kShed,            // dropped at the WFQ front end: tenant queue full
};

[[nodiscard]] const char* to_string(RetrievalPath path) noexcept;

struct RequestOutcome {
  SimTime arrival = 0;
  SimTime dispatch = 0;
  SimTime start = 0;
  SimTime finish = 0;
  DeviceId device = kInvalidDevice;
  bool fim_matched = false;  // bucket came from the FIM mapping table
  bool failed = false;       // all replicas permanently down; never served
  bool is_write = false;     // replicated page program, not a QoS read
  RetrievalPath path = RetrievalPath::kUnset;
  /// Estimated long-run miss probability Q at this request's dispatch
  /// instant, in parts per million (0 outside statistical admission).
  /// Integral so the equivalence audit can compare exactly.
  std::int32_t q_ppm = 0;
  /// Tenant class index (0 outside multi-tenant configs). Part of the
  /// serial ≡ parallel result contract like every other field here.
  std::uint32_t tenant = 0;
  /// ECN-style congestion bit: the tenant queue was at or past its mark
  /// threshold when this request was accepted into it.
  bool wfq_marked = false;

  [[nodiscard]] SimTime delay() const noexcept { return dispatch - arrival; }
  /// A request is "delayed" when it was not dispatched the instant it
  /// arrived — admission deferral in online mode, interval alignment (and
  /// deferral) in aligned mode. This is the population Figs. 8(c,d)/9/12
  /// report on.
  [[nodiscard]] bool deferred() const noexcept { return dispatch > arrival; }
  [[nodiscard]] SimTime response() const noexcept { return finish - dispatch; }
  [[nodiscard]] SimTime end_to_end() const noexcept { return finish - arrival; }
};

struct IntervalReport {
  std::size_t requests = 0;
  double avg_response_ms = 0.0;
  double max_response_ms = 0.0;
  double avg_e2e_ms = 0.0;
  double max_e2e_ms = 0.0;
  std::size_t deferred = 0;
  double pct_deferred = 0.0;      // deferred / requests
  double avg_delay_ms = 0.0;      // mean delay over deferred requests
  double fim_match_rate = 0.0;    // matched / requests
  std::size_t failed = 0;         // requests with no live replica, ever
  std::size_t writes = 0;         // write requests (excluded from read stats)
  double avg_write_ms = 0.0;      // mean write completion (finish - arrival)
};

struct PipelineResult {
  std::vector<IntervalReport> intervals;  // one per trace reporting interval
  std::vector<RequestOutcome> outcomes;   // per request, trace order
  IntervalReport overall;                 // aggregate over all requests
  std::size_t deadline_violations = 0;    // response > qos_interval
  /// Per-tenant WFQ tallies, indexed like PipelineConfig::tenants (empty
  /// for single-tenant configs). Part of the serial ≡ parallel contract.
  std::vector<TenantUsage> tenant_usage;
};

/// Observer of finalized streaming outcomes. run_stream() calls
/// on_outcome() once per event, in trace order (seq is the 0-based global
/// ingestion index, strictly increasing), at the moment the outcome folds
/// into the reports — which is exactly when the engine guarantees no field
/// can change again. This is how the service facade routes completions
/// back to live clients without materializing an outcomes vector, and how
/// run() materializes one. The callback runs on the replay thread;
/// implementations must not re-enter the pipeline.
class OutcomeSink {
 public:
  virtual ~OutcomeSink() = default;
  virtual void on_outcome(std::uint64_t seq, const trace::TraceEvent& ev,
                          const RequestOutcome& out) = 0;
};

/// Options for the replay path (QosPipeline::run_stream).
struct StreamOptions {
  /// Events pulled from the cursor per fill() call. Any positive value
  /// yields bit-identical results (the engine's read-ahead rule is
  /// batch-agnostic — audited by flashqos_verify --stream); larger batches
  /// amortize the per-batch virtual dispatch.
  std::size_t batch_size = 4096;
  /// Fault-schedule compile horizon. A streaming replay does not know the
  /// trace duration up front, so configs with a non-empty fault plan must
  /// pass the horizon run() derives (trace duration + qos_interval) to
  /// materialize the identical schedule. Ignored (may stay 0) when the
  /// fault plan is empty.
  SimTime horizon = 0;
  /// Retain per-reporting-interval reports (`StreamResult::intervals`).
  /// They are the one result component that grows with trace duration
  /// (one `IntervalReport` per reporting interval); trace-scale replays
  /// that only need the overall report, the deadline count, and the
  /// observability plane set this false to keep memory flat in trace
  /// length. Does not change any other field, metric, or time-series.
  bool keep_intervals = true;
  /// Deliberately break the engine's read-ahead drain bound by one
  /// instant (verification only): groups dispatching exactly at the
  /// ingestion frontier run before later batches deliver their
  /// same-instant members. The stream oracle flips this to prove it
  /// would catch an engine that dispatches ahead of ingestion.
  bool misdrain_for_test = false;
  /// Optional per-outcome observer (see OutcomeSink). Null = no callback;
  /// results, metrics, and time-series are identical either way.
  OutcomeSink* sink = nullptr;
};

/// Result of a streaming replay: everything PipelineResult carries except
/// the per-request outcomes vector, which would be O(trace) memory — the
/// point of streaming is that nothing here grows with trace length.
struct StreamResult {
  std::vector<IntervalReport> intervals;  // one per trace reporting interval
  IntervalReport overall;                 // aggregate over all requests
  std::uint64_t requests = 0;             // events consumed from the cursor
  std::size_t deadline_violations = 0;    // response > qos_interval
  std::vector<TenantUsage> tenant_usage;  // indexed like cfg.tenants
};

/// Cuts one reporting slice of events into the FIM transaction database:
/// each QoS interval's distinct read blocks form one transaction (the
/// paper mines read requests). Callers feed a slice's events in time
/// order and take() it at the slice boundary; a QoS window never straddles
/// that boundary. mine_event_range and the replay engine's inline miner
/// both cut slices through this one builder.
class SliceTransactionBuilder {
 public:
  explicit SliceTransactionBuilder(SimTime qos_interval) : T_(qos_interval) {}

  void add(const trace::TraceEvent& e) {
    if (!e.is_read) return;
    const std::int64_t w = e.time / T_;
    if (w != window_) {
      flush();
      window_ = w;
    }
    tx_.push_back(e.block);
  }

  /// Close the slice: its database, with the builder reset for the next.
  [[nodiscard]] fim::TransactionDb take() {
    flush();
    window_ = -1;
    return std::exchange(db_, fim::TransactionDb{});
  }

 private:
  void flush() {
    if (!tx_.empty()) db_.add(std::exchange(tx_, {}));
  }

  SimTime T_;
  fim::TransactionDb db_;
  std::vector<fim::Item> tx_;
  std::int64_t window_ = -1;
};

/// Mine events [begin, end) of `t` as one slice (SliceTransactionBuilder),
/// returning pairs with support >= min_support. Pure and deterministic.
[[nodiscard]] std::vector<fim::FrequentPair> mine_event_range(
    const trace::Trace& t, std::size_t begin, std::size_t end,
    SimTime qos_interval, std::uint64_t min_support);

/// The single-threaded replay engine. New code should not construct this
/// directly: service::PipelineService wraps it behind a thread-safe facade
/// with the same one-shot run()/run_stream() semantics plus live submit/
/// flush/drain, and is what flashqosd, flashqos_sim, and the examples use.
/// Direct construction remains supported for the engine's own harnesses
/// (oracles, model checker, benches) that need sub-facade access.
///
/// There is one replay path, run_stream(); run() is run_stream() over a
/// trace::VectorCursor with a sink that materializes every outcome.
class QosPipeline {
 public:
  QosPipeline(const decluster::AllocationScheme& scheme, PipelineConfig cfg);

  /// Run the full pipeline over a trace. Trace block ids are data blocks
  /// (mapped to buckets); with MappingMode::kModulo a bucket-domain trace
  /// whose ids are < buckets() passes through unchanged. Rejects an invalid
  /// trace (trace::valid_trace) up front.
  [[nodiscard]] PipelineResult run(const trace::Trace& t);

  /// Replay events pulled from `cursor` in batches without materializing
  /// the trace or the outcomes vector — resident memory is O(batch +
  /// in-flight window), flat in trace length. Results, registry metrics
  /// and windowed time-series are bit-identical at any batch size and for
  /// any cursor yielding the same events (audited by flashqos_verify
  /// --stream). FIM mapping re-mines each reporting slice inline, at the
  /// rollover into the next one.
  [[nodiscard]] StreamResult run_stream(trace::TraceCursor& cursor,
                                        const StreamOptions& opts = {});

 private:
  const decluster::AllocationScheme& scheme_;
  PipelineConfig cfg_;
  /// Retrieval facade owning the solver scratch, reused across every batch
  /// the pipeline schedules. One per pipeline is one per thread: the
  /// parallel replay engine constructs a fresh QosPipeline inside each job.
  retrieval::Retriever retriever_;
};

/// Baseline: replay a trace on its original volumes (the paper's "original
/// stand": "every block request is retrieved from the device it is stated
/// in the trace"), with no QoS machinery. response == end-to-end here.
[[nodiscard]] PipelineResult replay_original(const trace::Trace& t,
                                             SimTime service_time = kPageReadLatency,
                                             SimTime deadline = kBaseInterval);

}  // namespace flashqos::core
