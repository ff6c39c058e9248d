// The one sanctioned embedding API: a thread-safe facade over the pipeline.
//
// service::PipelineService wraps QosPipeline (and through it the
// TenantScheduler, FaultInjector, and the retrieval facade the
// retrieval::Retriever pattern pioneered in PR 5) behind two faces:
//
//  * Embedding (single-threaded): run() / run_stream() — what examples/
//    and flashqos_sim call instead of constructing QosPipeline directly.
//    Same results, one construction point, one place to evolve the API.
//
//  * Live (multi-threaded): start() spawns a dedicated service thread that
//    runs the streaming replay engine over an MPSC ingress (a bounded
//    HandoffQueue of submit batches — the same seam PR 7's
//    BasicTenantIngress and PR 9's TraceCursor proved out). Any number of
//    producer threads submit(); verdicts come back through a ServedSink
//    in global ingestion order with full latency attribution. Admission
//    stays interval-clocked: the engine is the unmodified replay core, so
//    every guarantee the oracles audit (S = (c-1)M² + cM, Q ≤ ε, WFQ
//    floors, degraded-mode budgets) holds for live traffic verbatim.
//
// Time discipline: clients submit events stamped in simulated time. The
// service keeps one global ingestion floor — the maximum time it has
// accepted so far — and clamps any lower arrival up to it (a late request
// is treated as arriving now; service.clamped_events counts them). That
// keeps the merged multi-connection stream time-sorted, which is the
// cursor contract the batch-size invariance of replay rests on: a
// single-connection session that submits in order is never clamped and is
// bit-identical to an in-process replay of the same stream — exactly what
// flashqos_verify --daemon proves over the loopback wire.
//
// flush(floor) promises no future event below `floor`, letting the engine
// dispatch (and answer) everything strictly below it while the stream
// stays open. drain() ends the stream: the engine drains every queued
// dispatch, outstanding verdicts flush to the sink, and the aggregate
// StreamResult comes back.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/qos_pipeline.hpp"
#include "trace/cursor.hpp"
#include "util/handoff_queue.hpp"
#include "util/sync.hpp"

namespace flashqos::service {

/// A served request: the client's routing id + opaque tag, the event as
/// ingested (post-clamp), and the full outcome (admission verdict,
/// latency attribution, Q estimate, path).
struct Served {
  std::uint64_t seq = 0;   // global ingestion sequence, strictly increasing
  std::uint64_t conn = 0;  // producer routing id (connection id; 0 embedded)
  std::uint64_t tag = 0;   // producer opaque tag, echoed verbatim
  trace::TraceEvent ev;
  core::RequestOutcome out;
};

/// Consumer of live verdicts. on_served runs on the service thread, in
/// ingestion order; implementations must be fast and never re-enter the
/// service (route, count, hand off — no blocking on the producer side).
class ServedSink {
 public:
  virtual ~ServedSink() = default;
  virtual void on_served(const Served& s) = 0;
};

struct ServiceOptions {
  core::PipelineConfig pipeline;
  /// Live-stream metadata (name, volumes, report_interval). Volumes
  /// defaults to the scheme's device count when 0.
  trace::TraceMeta meta;
  /// Fault-schedule horizon for live/streaming runs (required by the
  /// engine when the fault plan is non-empty).
  SimTime horizon = 0;
  /// Events the service thread pulls from the ingress per engine batch.
  std::size_t batch_size = 1024;
  /// Submit batches buffered ahead of the engine; producers block when
  /// it is full (bounded memory, TCP-style backpressure up the stack).
  std::size_t ingress_batches = 64;
  /// Keep per-reporting-interval reports in the final StreamResult.
  bool keep_intervals = false;
  /// Verification-only: perturb every served finish time by one
  /// nanosecond. The daemon oracle flips this to prove it would catch a
  /// service that diverges from the in-process replay.
  bool mangle_for_test = false;
};

class PipelineService {
 public:
  /// `scheme` must outlive the service (same borrow rule as QosPipeline).
  PipelineService(const decluster::AllocationScheme& scheme,
                  ServiceOptions opts);
  ~PipelineService();
  PipelineService(const PipelineService&) = delete;
  PipelineService& operator=(const PipelineService&) = delete;

  // ---- embedding API ------------------------------------------------------

  /// Full in-memory replay (what flashqos_sim and the examples call).
  [[nodiscard]] core::PipelineResult run(const trace::Trace& t);

  /// Streaming replay over a caller-supplied cursor; forwards to
  /// QosPipeline::run_stream with this service's horizon/batch options.
  [[nodiscard]] core::StreamResult run_stream(trace::TraceCursor& cursor);

  // ---- live API -----------------------------------------------------------

  /// Spawn the service thread. False if already started.
  bool start(ServedSink& sink);

  /// Enqueue a batch of events for routing id `conn` (tags[i] pairs with
  /// evs[i]). Blocks while the ingress is full; false iff the service is
  /// not accepting (never started, draining, or drained) — the batch is
  /// dropped then. Thread-safe.
  bool submit(std::uint64_t conn, std::span<const trace::TraceEvent> evs,
              std::span<const std::uint64_t> tags);

  /// Raise the ingestion floor: no future submit carries a time below
  /// `floor` (lower ones would clamp). Wakes the engine so everything
  /// strictly below the floor dispatches. Thread-safe.
  void flush(SimTime floor);

  /// Stop accepting, close the ingress, drain the engine to the end of
  /// the stream, join the service thread, and return the aggregate
  /// result. Idempotent (later calls return the stored result).
  core::StreamResult drain();

  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Events whose time was raised to the ingestion floor so far.
  [[nodiscard]] std::uint64_t clamped_events() const noexcept {
    return clamped_.load(std::memory_order_relaxed);
  }

  /// Events accepted into the ingress so far.
  [[nodiscard]] std::uint64_t submitted_events() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }

  /// Events whose tenant index was out of range and got folded to class 0.
  [[nodiscard]] std::uint64_t tenant_folds() const noexcept {
    return tenant_folds_.load(std::memory_order_relaxed);
  }

  /// Current ingestion floor (monotone).
  [[nodiscard]] SimTime floor() const noexcept {
    return floor_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const decluster::AllocationScheme& scheme() const noexcept {
    return scheme_;
  }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }

 private:
  class LiveIngress;
  class EngineSink;

  void service_thread();

  const decluster::AllocationScheme& scheme_;
  ServiceOptions opts_;

  std::unique_ptr<LiveIngress> ingress_;
  std::unique_ptr<EngineSink> engine_sink_;
  ServedSink* sink_ = nullptr;
  std::thread thread_;

  util::StdSyncPolicy::Mutex submit_mutex_;  // serializes clamp + enqueue
  std::atomic<bool> started_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<SimTime> floor_{0};
  std::atomic<std::uint64_t> clamped_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> tenant_folds_{0};
  std::optional<core::StreamResult> result_;
};

/// Build a PipelineService setup straight from an experiment config: the
/// [design] and [pipeline] sections materialize exactly as
/// build_experiment() would (validate() enforced); the [workload] section
/// is ignored — a daemon's workload arrives over the wire. The scheme is
/// owned by the returned bundle.
struct ServiceSetup {
  std::unique_ptr<design::BlockDesign> design;
  std::unique_ptr<decluster::AllocationScheme> scheme;
  ServiceOptions options;
};
[[nodiscard]] ServiceSetup build_service(const Config& cfg);

}  // namespace flashqos::service
