#include <sstream>

#include "core/sampler.hpp"
#include "obs/http_exporter.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace flashqos;

std::uint64_t Workload::counter_failures(const Scrape& before,
                                         const Scrape& after) const {
  return static_cast<std::uint64_t>(
      after.delta(before, "flashqos_service_clamped_events_total"));
}

Config config_from(const std::string& text) {
  std::istringstream in(text);
  return Config::parse(in);
}

void fold_outcome(SimStats& s, const core::RequestOutcome& o) {
  if (o.is_write || o.failed) return;
  ++s.reads;
  if (o.deferred()) {
    ++s.deferred;
    s.delays_ms.push_back(static_cast<double>(o.delay()) / 1e6);
  }
}

bool same_report(const core::IntervalReport& a, const core::IntervalReport& b) {
  return a.requests == b.requests && a.avg_response_ms == b.avg_response_ms &&
         a.max_response_ms == b.max_response_ms && a.avg_e2e_ms == b.avg_e2e_ms &&
         a.max_e2e_ms == b.max_e2e_ms && a.deferred == b.deferred &&
         a.pct_deferred == b.pct_deferred && a.avg_delay_ms == b.avg_delay_ms &&
         a.fim_match_rate == b.fim_match_rate && a.failed == b.failed &&
         a.writes == b.writes && a.avg_write_ms == b.avg_write_ms;
}

bool same_stream_result(const core::StreamResult& a, const core::StreamResult& b) {
  if (a.requests != b.requests || a.deadline_violations != b.deadline_violations ||
      !same_report(a.overall, b.overall) ||
      a.tenant_usage.size() != b.tenant_usage.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tenant_usage.size(); ++i) {
    const auto& x = a.tenant_usage[i];
    const auto& y = b.tenant_usage[i];
    if (x.arrivals != y.arrivals || x.admitted != y.admitted || x.shed != y.shed ||
        x.marked != y.marked || x.max_depth != y.max_depth) {
      return false;
    }
  }
  return true;
}

namespace {

void digest_report(Digest& d, const core::IntervalReport& r) {
  d.add(r.requests);
  d.add_d(r.avg_response_ms);
  d.add_d(r.max_response_ms);
  d.add_d(r.avg_e2e_ms);
  d.add_d(r.max_e2e_ms);
  d.add(r.deferred);
  d.add_d(r.pct_deferred);
  d.add_d(r.avg_delay_ms);
  d.add_d(r.fim_match_rate);
  d.add(r.failed);
  d.add(r.writes);
  d.add_d(r.avg_write_ms);
}

}  // namespace

std::uint64_t digest(const core::PipelineResult& r) {
  Digest d;
  for (const auto& o : r.outcomes) {
    d.add_i(o.arrival);
    d.add_i(o.dispatch);
    d.add_i(o.start);
    d.add_i(o.finish);
    d.add(o.device);
    d.add(static_cast<std::uint64_t>(o.fim_matched) |
          static_cast<std::uint64_t>(o.failed) << 1 |
          static_cast<std::uint64_t>(o.is_write) << 2 |
          static_cast<std::uint64_t>(o.wfq_marked) << 3);
    d.add(static_cast<std::uint64_t>(o.path));
    d.add_i(o.q_ppm);
    d.add(o.tenant);
  }
  for (const auto& iv : r.intervals) digest_report(d, iv);
  digest_report(d, r.overall);
  d.add(r.deadline_violations);
  for (const auto& u : r.tenant_usage) {
    d.add(u.arrivals);
    d.add(u.admitted);
    d.add(u.shed);
    d.add(u.marked);
    d.add(u.max_depth);
  }
  return d.value();
}

Scrape scrape_metrics() {
  return Scrape(http_get_metrics(obs::HttpExporter::global().port()));
}

void engine_counter_metrics(MetricSet& m, const Scrape& before,
                            const Scrape& after, double requests,
                            double engine_ns, double sim_span_ns,
                            double devices) {
  const auto d = [&](const char* family, const char* label = "") {
    return after.delta(before, family, label);
  };
  const double deferrals = d("flashqos_pipeline_deferral_events_total");
  m.put("core.deferral_events_per_req", deferrals / requests, "count");
  m.put("core.engine_ns_per_deferral", deferrals > 0 ? engine_ns / deferrals : 0.0,
        "ns");
  if (engine_ns > 0) {
    m.put("core.ingest_share",
          d("flashqos_pipeline_interval_ns_sum", "stage=\"ingest\"") / engine_ns,
          "ratio");
    m.put("core.drain_share",
          d("flashqos_pipeline_interval_ns_sum", "stage=\"drain\"") / engine_ns,
          "ratio");
  }
  m.put("core.dispatches_per_req", d("flashqos_pipeline_dispatches_total") / requests,
        "count");
  const double inv = d("flashqos_retrieval_invocations_total");
  m.put("retrieval.invocations_per_req", inv / requests, "count");
  m.put("retrieval.fast_path_ratio",
        inv > 0 ? d("flashqos_retrieval_fast_path_total") / inv : 0.0, "ratio");
  m.put("retrieval.max_flow_fallback_per_kreq",
        d("flashqos_retrieval_max_flow_fallback_total") / requests * 1e3, "count");
  const double builds = d("flashqos_retrieval_flow_ws_builds_total");
  const double reuses = d("flashqos_retrieval_flow_ws_reuses_total");
  m.put("retrieval.flow_ws_reuse_ratio",
        builds + reuses > 0 ? reuses / (builds + reuses) : 0.0, "ratio");
  m.put("flashsim.submits_per_req", d("flashqos_flashsim_submits_total") / requests,
        "count");
  if (sim_span_ns > 0 && devices > 0) {
    m.put("flashsim.busy_share",
          d("flashqos_flashsim_device_busy_ns_total") / (devices * sim_span_ns),
          "ratio");
  }
  m.put("fault.degraded_intervals", d("flashqos_fault_degraded_intervals_total"),
        "count");
  m.put("fault.retries", d("flashqos_fault_retries_total"), "count");
}

double cold_pk_sample_s(const decluster::AllocationScheme& scheme) {
  // The parameters build_experiment uses: max_k 48, 2000 samples, seed 7.
  const std::int64_t t0 = now_ns();
  const auto table = core::sample_optimal_probabilities(
      scheme, 48, {.samples_per_size = 2000, .seed = 7, .cache = false});
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  return table.empty() ? 0.0 : s;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"net.codec_ns_per_req", "ns"},
      {"net.transport_ns_per_req", "ns"},
      {"net.client_wait_share", "ratio"},
      {"net.frames_per_kreq", "count"},
      {"net.pushbacks", "count"},
      {"net.dropped_completions", "count"},
      {"net.parse_errors", "count"},
      {"service.live_ns_per_req", "ns"},
      {"service.submit_blocked_share", "ratio"},
      {"service.clamped_events", "count"},
      {"core.engine_ns_per_req", "ns"},
      {"core.deferral_events_per_req", "count"},
      {"core.engine_ns_per_deferral", "ns"},
      {"core.ingest_share", "ratio"},
      {"core.drain_share", "ratio"},
      {"core.dispatches_per_req", "count"},
      {"core.sweep_scaling_eff", "ratio"},
      {"core.sweep_slowest_job_share", "ratio"},
      {"retrieval.invocations_per_req", "count"},
      {"retrieval.fast_path_ratio", "ratio"},
      {"retrieval.max_flow_fallback_per_kreq", "count"},
      {"retrieval.flow_ws_reuse_ratio", "ratio"},
      {"retrieval.pk_sample_s", "s"},
      {"retrieval.pk_cache_hit_ratio", "ratio"},
      {"fim.mine_ns_per_slice", "ns"},
      {"fim.match_rate", "ratio"},
      {"flashsim.submits_per_req", "count"},
      {"flashsim.busy_share", "ratio"},
      {"trace.gen_ns_per_req", "ns"},
      {"fault.degraded_intervals", "count"},
      {"fault.retries", "count"},
      {"obs.hot_path_share", "ratio"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.unaccounted_share", "ratio"},
  };
  return kCatalog;
}

}  // namespace perfbench
