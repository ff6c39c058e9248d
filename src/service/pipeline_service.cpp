#include "service/pipeline_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace flashqos::service {

namespace {

struct LiveItem {
  trace::TraceEvent ev;
  std::uint64_t conn = 0;
  std::uint64_t tag = 0;
};

/// Sentinel conn id for flush markers (real connection ids are small).
constexpr std::uint64_t kMarkerConn = ~std::uint64_t{0};

}  // namespace

/// The MPSC ingress, seen by the engine as a TraceCursor. Producers push
/// whole submit batches (bounded HandoffQueue — arrival order under its
/// lock IS the global ingestion order); the service thread pops them in
/// fill(), emitting the events and staging each event's (conn, tag) in a
/// side queue the sink pops back off in the same order.
///
/// The frontier promise travels THROUGH the queue, not around it: flush()
/// enqueues a marker item carrying the floor at enqueue time, and fill()
/// advances frontier() only when it consumes that marker. FIFO order
/// guarantees every event enqueued before the marker has already been
/// delivered, and the ingestion-floor clamp guarantees every event
/// enqueued after it arrives at or above the floor — so the marker's
/// floor really is a lower bound on everything not yet delivered. (An
/// atomic frontier raised at submit time would let the engine drain past
/// events still sitting in the queue.) Consuming a marker also makes
/// fill() return 0, so an engine blocked on an idle stream wakes and
/// drains up to the new frontier.
class PipelineService::LiveIngress final : public trace::TraceCursor {
 public:
  LiveIngress(trace::TraceMeta meta, std::size_t capacity)
      : meta_(std::move(meta)), q_(capacity) {}

  [[nodiscard]] const trace::TraceMeta& meta() const noexcept override {
    return meta_;
  }

  [[nodiscard]] std::size_t fill(std::span<trace::TraceEvent> out) override {
    std::size_t written = 0;
    while (written < out.size()) {
      if (stage_pos_ == stage_.size()) {
        if (written > 0) break;  // deliver what we have before blocking
        auto batch = q_.pop();
        if (!batch.has_value()) {
          done_ = true;
          return written;
        }
        if (batch->size() == 1 && batch->front().conn == kMarkerConn) {
          // Flush marker: everything before it is delivered, everything
          // after it is clamped to >= its floor — safe to promise it.
          frontier_ = std::max(frontier_, batch->front().ev.time);
          return written;  // 0: wake the engine so it drains to frontier()
        }
        if (batch->empty()) return written;  // plain wakeup, no promise
        stage_ = std::move(*batch);
        stage_pos_ = 0;
      }
      const std::size_t n =
          std::min(out.size() - written, stage_.size() - stage_pos_);
      for (std::size_t i = 0; i < n; ++i) {
        const LiveItem& item = stage_[stage_pos_ + i];
        out[written + i] = item.ev;
        routing_.push_back({item.conn, item.tag});
      }
      stage_pos_ += n;
      written += n;
    }
    return written;
  }

  void reset() override {
    FLASHQOS_EXPECT(false, "a live ingress cannot rewind");
  }

  // frontier()/exhausted() are only read on the service thread (the same
  // thread that runs fill()), so plain members suffice.
  [[nodiscard]] SimTime frontier() const noexcept override {
    return frontier_;
  }

  [[nodiscard]] bool exhausted() const noexcept override { return done_; }

  /// Producer side. push blocks while full; false iff closed.
  bool push(std::vector<LiveItem> batch) { return q_.push(std::move(batch)); }
  void close() { q_.close(); }

  /// Sink side (service thread only): the routing pair for the next
  /// outcome, in ingestion order.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> take_routing() {
    FLASHQOS_ASSERT(!routing_.empty(),
                    "outcome folded before its event was staged");
    const auto front = routing_.front();
    routing_.pop_front();
    return front;
  }

 private:
  trace::TraceMeta meta_;
  HandoffQueue<std::vector<LiveItem>> q_;
  SimTime frontier_ = 0;
  bool done_ = false;
  // Service-thread-local staging (fill/take_routing both run there).
  std::vector<LiveItem> stage_;
  std::size_t stage_pos_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> routing_;
};

/// Adapts the engine's OutcomeSink to the service's ServedSink: reunites
/// each outcome (arriving in ingestion order) with its staged routing
/// pair, applies the verification mangle knob, and forwards.
class PipelineService::EngineSink final : public core::OutcomeSink {
 public:
  EngineSink(LiveIngress& ingress, ServedSink& sink, bool mangle)
      : ingress_(ingress), sink_(sink), mangle_(mangle) {}

  void on_outcome(std::uint64_t seq, const trace::TraceEvent& ev,
                  const core::RequestOutcome& out) override {
    FLASHQOS_ASSERT(seq == next_, "outcomes must fold in ingestion order");
    ++next_;
    Served s;
    s.seq = seq;
    std::tie(s.conn, s.tag) = ingress_.take_routing();
    s.ev = ev;
    s.out = out;
    if (mangle_) s.out.finish += 1;  // oracle-visible, deliberately wrong
    sink_.on_served(s);
  }

 private:
  LiveIngress& ingress_;
  ServedSink& sink_;
  const bool mangle_;
  std::uint64_t next_ = 0;
};

PipelineService::PipelineService(const decluster::AllocationScheme& scheme,
                                 ServiceOptions opts)
    : scheme_(scheme), opts_(std::move(opts)) {
  if (opts_.meta.name.empty()) opts_.meta.name = "live";
  if (opts_.meta.volumes == 0) opts_.meta.volumes = scheme_.devices();
  const auto diags = opts_.pipeline.validate(scheme_.devices());
  FLASHQOS_EXPECT(diags.empty(), "invalid pipeline config for service");
}

PipelineService::~PipelineService() {
  if (started_.load(std::memory_order_acquire)) (void)drain();
}

core::PipelineResult PipelineService::run(const trace::Trace& t) {
  return core::QosPipeline(scheme_, opts_.pipeline).run(t);
}

core::StreamResult PipelineService::run_stream(trace::TraceCursor& cursor) {
  core::StreamOptions so;
  so.batch_size = opts_.batch_size;
  so.horizon = opts_.horizon;
  so.keep_intervals = opts_.keep_intervals;
  return core::QosPipeline(scheme_, opts_.pipeline).run_stream(cursor, so);
}

bool PipelineService::start(ServedSink& sink) {
  if (started_.exchange(true, std::memory_order_acq_rel)) return false;
  ingress_ = std::make_unique<LiveIngress>(opts_.meta, opts_.ingress_batches);
  engine_sink_ =
      std::make_unique<EngineSink>(*ingress_, sink, opts_.mangle_for_test);
  sink_ = &sink;
  accepting_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { service_thread(); });
  return true;
}

void PipelineService::service_thread() {
  core::StreamOptions so;
  so.batch_size = opts_.batch_size;
  so.horizon = opts_.horizon;
  so.keep_intervals = opts_.keep_intervals;
  so.sink = engine_sink_.get();
  core::QosPipeline pipe(scheme_, opts_.pipeline);
  result_.emplace(pipe.run_stream(*ingress_, so));
}

bool PipelineService::submit(std::uint64_t conn,
                             std::span<const trace::TraceEvent> evs,
                             std::span<const std::uint64_t> tags) {
  FLASHQOS_EXPECT(evs.size() == tags.size(),
                  "submit needs one tag per event");
  if (!accepting_.load(std::memory_order_acquire)) return false;
  std::vector<LiveItem> batch;
  batch.reserve(evs.size());
  std::uint64_t clamped = 0;
  std::uint64_t folds = 0;
  const std::uint32_t tenant_count =
      static_cast<std::uint32_t>(opts_.pipeline.tenants.size());
  {
    // Clamp + enqueue are one critical section: the ingestion floor must
    // advance in exactly the order batches enter the queue, or a racing
    // producer could enqueue an earlier time after a later one and break
    // the cursor's time-sorted contract.
    const util::StdSyncPolicy::LockGuard lock(submit_mutex_);
    SimTime floor = floor_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      LiveItem item;
      item.ev = evs[i];
      item.conn = conn;
      item.tag = tags[i];
      if (item.ev.time < floor) {
        item.ev.time = floor;  // late arrival: treated as arriving now
        ++clamped;
      }
      floor = item.ev.time;
      // An out-of-range tenant index would trip the scheduler's
      // preconditions deep inside the engine; fold it into class 0 at the
      // boundary instead (counted below — a misconfigured client, not a
      // reason to kill the daemon).
      if (item.ev.tenant != 0 &&
          (tenant_count == 0 || item.ev.tenant >= tenant_count)) {
        item.ev.tenant = 0;
        ++folds;
      }
      batch.push_back(item);
    }
    floor_.store(floor, std::memory_order_relaxed);
    if (!ingress_->push(std::move(batch))) return false;
  }
  submitted_.fetch_add(evs.size(), std::memory_order_relaxed);
  if (clamped > 0) {
    clamped_.fetch_add(clamped, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      obs::MetricRegistry::global()
          .counter("service.clamped_events")
          .inc(clamped);
    }
  }
  if (folds > 0) {
    tenant_folds_.fetch_add(folds, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      obs::MetricRegistry::global()
          .counter("service.tenant_folds")
          .inc(folds);
    }
  }
  return true;
}

void PipelineService::flush(SimTime floor) {
  if (!accepting_.load(std::memory_order_acquire)) return;
  const util::StdSyncPolicy::LockGuard lock(submit_mutex_);
  SimTime cur = floor_.load(std::memory_order_relaxed);
  if (floor <= cur) return;
  floor_.store(floor, std::memory_order_relaxed);
  LiveItem marker;
  marker.conn = kMarkerConn;
  marker.ev.time = floor;
  (void)ingress_->push({marker});  // rides the queue; see LiveIngress doc
}

core::StreamResult PipelineService::drain() {
  FLASHQOS_EXPECT(started_.load(std::memory_order_acquire),
                  "drain() before start()");
  accepting_.store(false, std::memory_order_release);
  if (ingress_ != nullptr) ingress_->close();
  if (thread_.joinable()) thread_.join();
  FLASHQOS_EXPECT(result_.has_value(), "service thread left no result");
  return *result_;
}

ServiceSetup build_service(const Config& cfg) {
  core::Experiment e = core::build_experiment_config(cfg);
  ServiceSetup s;
  s.design = std::move(e.design);
  s.scheme = std::move(e.scheme);
  s.options.pipeline = std::move(e.pipeline);
  s.options.meta.name = cfg.get("service", "name", "live");
  s.options.meta.volumes = s.scheme->devices();
  s.options.meta.report_interval = static_cast<SimTime>(
      cfg.get_double("service", "report_interval_ms", 1000.0) * 1e6);
  s.options.horizon = static_cast<SimTime>(
      cfg.get_double("service", "horizon_ms", 0.0) * 1e6);
  s.options.batch_size = static_cast<std::size_t>(
      cfg.get_int("service", "batch", 1024));
  s.options.ingress_batches = static_cast<std::size_t>(
      cfg.get_int("service", "ingress_batches", 64));
  s.options.keep_intervals = cfg.get_bool("service", "keep_intervals", false);
  return s;
}

}  // namespace flashqos::service
