// backlog_burst: one-thread PipelineService::run_stream on (9,3,1) with
// modulo mapping, online retrieval and statistical admission. Reads come
// in same-instant bursts of 1024 every 256 QoS intervals, 4 per interval
// on average against S = 5, so each burst leaves a deferral backlog of
// about a thousand reads that drains before the next one. Nearly all the
// engine's time goes to carrying that backlog; no net, service or FIM
// work runs.
#include <random>

#include "service/pipeline_service.hpp"
#include "trace/cursor.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace flashqos;

constexpr std::size_t kBursts = 64;
constexpr std::size_t kBurstReads = 1024;
constexpr std::uint64_t kIntervalsPerBurst = 256;

class BacklogBurst final : public Workload {
 public:
  explicit BacklogBurst(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    setup_ = service::build_service(config_from(
        "[design]\nname = (9,3,1)\n"
        "[pipeline]\nretrieval = online\nmapping = modulo\n"
        "admission = statistical\nepsilon = 0.01\n"
        "[service]\nname = backlog_burst\n"));
    make_stream();
    (void)run_once();  // warm-up pass
  }

  void prepare() override {
    service::PipelineService svc(*setup_.scheme, setup_.options);
    const auto full = svc.run(trace_);
    for (const auto& o : full.outcomes) fold_outcome(sim_, o);
    ref_ = run_once();
    // The streaming engine must agree with the materialized replay.
    if (!same_report(ref_.overall, full.overall) ||
        ref_.deadline_violations != full.deadline_violations) {
      ref_broken_ = true;
    }
  }

  PassStats pass() override {
    PassStats ps;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const auto res = run_once();
    ps.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    ps.cpu_s = process_cpu_s() - cpu0;
    ps.requests = trace_.events.size();
    ps.failed = res.overall.failed;
    if (ref_broken_ || !same_stream_result(res, ref_)) ps.failed = ps.requests;
    return ps;
  }

  [[nodiscard]] const SimStats& sim() const override { return sim_; }

  void trace_layers(SpanLog& log, MetricSet& m) override {
    const double n = static_cast<double>(trace_.events.size());
    {
      const Scrape before = scrape_metrics();
      const int span = log.begin("core.engine");
      const std::int64_t t0 = now_ns();
      const auto res = run_once();
      const double engine_ns = static_cast<double>(now_ns() - t0);
      log.end(span);
      const Scrape after = scrape_metrics();
      traced_kreq_s_ = n / engine_ns * 1e6;
      if (!same_stream_result(res, ref_)) trace_failures_ = trace_.events.size();
      m.put("core.engine_ns_per_req", engine_ns / n, "ns");
      engine_counter_metrics(m, before, after, n, engine_ns,
                             static_cast<double>(trace_.duration()),
                             static_cast<double>(setup_.scheme->devices()));
      m.put("service.clamped_events",
            after.delta(before, "flashqos_service_clamped_events_total"), "count");
    }
    {
      Scoped s(log, "retrieval.pk_sample");
      m.put("retrieval.pk_sample_s", cold_pk_sample_s(*setup_.scheme), "s");
    }
  }

  [[nodiscard]] double traced_kreq_s() const override { return traced_kreq_s_; }
  [[nodiscard]] std::uint64_t trace_failures() const override {
    return trace_failures_;
  }

  [[nodiscard]] std::vector<std::string> layers_not_on_path() const override {
    return {"net", "service.live_ns_per_req", "service.submit_blocked_share",
            "core.sweep_scaling_eff", "core.sweep_slowest_job_share",
            "retrieval.pk_cache_hit_ratio", "fim", "trace", "fault"};
  }

 private:
  /// Bursts at k·256·T plus a seeded phase inside the interval; the seed
  /// picks every block.
  void make_stream() {
    std::mt19937_64 rng(seed_ * 0x9e3779b97f4a7c15ull + 0x5bd1e995u);
    std::uniform_int_distribution<std::uint64_t> block(0, (1u << 20) - 1);
    std::uniform_real_distribution<double> phase(0.0, 1.0);
    const SimTime t = setup_.options.pipeline.qos_interval;
    trace_.name = "backlog_burst";
    trace_.volumes = setup_.scheme->devices();
    trace_.report_interval = static_cast<SimTime>(kIntervalsPerBurst) * t;
    trace_.events.reserve(kBursts * kBurstReads);
    for (std::size_t b = 0; b < kBursts; ++b) {
      const SimTime at = static_cast<SimTime>(b * kIntervalsPerBurst) * t +
                         static_cast<SimTime>(phase(rng) * static_cast<double>(t));
      for (std::size_t i = 0; i < kBurstReads; ++i) {
        trace::TraceEvent e;
        e.time = at;
        e.block = block(rng);
        e.device = static_cast<DeviceId>(e.block % trace_.volumes);
        trace_.events.push_back(e);
      }
    }
    setup_.options.meta.report_interval = trace_.report_interval;
  }

  core::StreamResult run_once() {
    service::PipelineService svc(*setup_.scheme, setup_.options);
    trace::VectorCursor cur(trace_);
    return svc.run_stream(cur);
  }

  std::uint64_t seed_;
  service::ServiceSetup setup_;
  trace::Trace trace_;
  core::StreamResult ref_;
  bool ref_broken_ = false;
  SimStats sim_;
  double traced_kreq_s_ = 0.0;
  std::uint64_t trace_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_backlog_burst(std::uint64_t seed) {
  return std::make_unique<BacklogBurst>(seed);
}

}  // namespace perfbench
