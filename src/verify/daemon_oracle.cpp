#include "verify/daemon_oracle.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "net/acceptor.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "service/pipeline_service.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "verify/result_compare.hpp"

namespace flashqos::verify {
namespace {

/// Instruments that legitimately differ between the in-process and the
/// loopback-served legs: the streaming engine's wall-clock stage timings
/// and chunking accounting (same exclusions as the streaming oracle), plus
/// the transport's own bookkeeping — the wire is allowed to count bytes
/// and batches, it is not allowed to change physics.
bool excluded_instrument(std::string_view name) {
  return name == "pipeline.interval_ns" ||
         name.starts_with("trace.stream.") || name.starts_with("net.") || name.starts_with("service.") ||
         name.starts_with("obs.http.");
}

struct Snapshots {
  obs::MetricsSnapshot reg;
  obs::TimeSeriesSnapshot ts;
};

std::vector<net::WireEvent> to_wire(const trace::Trace& t) {
  std::vector<net::WireEvent> out;
  out.reserve(t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const auto& ev = t.events[i];
    net::WireEvent w;
    w.tag = i;  // tag == trace index: the verdict order check below
    w.time = ev.time;
    w.block = ev.block;
    w.device = ev.device;
    w.size_blocks = ev.size_blocks;
    w.tenant = ev.tenant;
    w.flags = ev.is_read ? 0x1 : 0x0;
    out.push_back(w);
  }
  return out;
}

/// Exact per-request compare, field for field, against the in-process
/// outcome. One nanosecond of drift anywhere is a finding.
bool outcome_eq(const core::RequestOutcome& want,
                const core::RequestOutcome& got, std::size_t i,
                std::string* why) {
  const auto fail = [&](const char* field, std::int64_t a, std::int64_t b) {
    if (why != nullptr) {
      std::ostringstream ss;
      ss << "request " << i << ": " << field << " " << b << " != expected "
         << a;
      *why = ss.str();
    }
    return false;
  };
  if (got.arrival != want.arrival) {
    return fail("arrival", want.arrival, got.arrival);
  }
  if (got.dispatch != want.dispatch) {
    return fail("dispatch", want.dispatch, got.dispatch);
  }
  if (got.start != want.start) return fail("start", want.start, got.start);
  if (got.finish != want.finish) return fail("finish", want.finish, got.finish);
  if (got.device != want.device) {
    return fail("device", static_cast<std::int64_t>(want.device),
                static_cast<std::int64_t>(got.device));
  }
  if (got.q_ppm != want.q_ppm) return fail("q_ppm", want.q_ppm, got.q_ppm);
  if (got.tenant != want.tenant) {
    return fail("tenant", want.tenant, got.tenant);
  }
  if (got.path != want.path) {
    return fail("path", static_cast<std::int64_t>(want.path),
                static_cast<std::int64_t>(got.path));
  }
  if (got.failed != want.failed || got.is_write != want.is_write ||
      got.fim_matched != want.fim_matched ||
      got.wfq_marked != want.wfq_marked) {
    return fail("flags",
                (want.failed ? 1 : 0) | (want.is_write ? 2 : 0) |
                    (want.fim_matched ? 4 : 0) | (want.wfq_marked ? 8 : 0),
                (got.failed ? 1 : 0) | (got.is_write ? 2 : 0) |
                    (got.fim_matched ? 4 : 0) | (got.wfq_marked ? 8 : 0));
  }
  return true;
}

service::ServiceOptions service_options(const core::PipelineConfig& cfg,
                                        const trace::Trace& t, SimTime horizon,
                                        bool mangle) {
  service::ServiceOptions so;
  so.pipeline = cfg;
  so.meta.name = t.name;
  so.meta.volumes = t.volumes;
  so.meta.report_interval = t.report_interval;
  so.horizon = horizon;
  so.keep_intervals = true;  // stream_result_matches compares every interval
  so.mangle_for_test = mangle;
  return so;
}

/// Drive one trace through a real in-process daemon over 127.0.0.1 and
/// hand back what the wire delivered. Empty `error` on transport success;
/// comparisons are the caller's.
struct DaemonRun {
  std::vector<net::WireCompletion> completions;
  core::StreamResult result;
  std::uint64_t clamped = 0;
  std::string error;
};

DaemonRun daemon_run(const decluster::AllocationScheme& scheme,
                     const core::PipelineConfig& cfg, const trace::Trace& t,
                     SimTime horizon, bool mangle) {
  DaemonRun out;
  service::PipelineService svc(scheme,
                               service_options(cfg, t, horizon, mangle));
  net::DaemonServer server(svc, {.dispatchers = 2});
  if (!server.start()) {
    out.error = "daemon failed to start: " + server.last_error();
    return out;
  }
  net::Client client;
  if (!client.connect(server.port())) {
    out.error = "client connect failed: " + client.last_error();
    server.stop();
    return out;
  }
  const auto wire = to_wire(t);
  if (!client.submit(wire)) {
    out.error = "submit failed: " + client.last_error();
    server.stop();
    return out;
  }
  if (!client.finish()) {
    out.error = "finish failed: " + client.last_error();
    server.stop();
    return out;
  }
  out.result = server.wait_done();
  out.completions = std::move(client.completions);
  out.clamped = svc.clamped_events();
  client.close();
  server.stop();
  return out;
}

}  // namespace

Report verify_daemon(const decluster::AllocationScheme& scheme,
                     const DaemonCheckParams& params) {
  Report report("daemon-identity N=" + std::to_string(scheme.devices()));

  auto& reg = obs::MetricRegistry::global();
  auto& tsr = obs::TimeSeriesRegistry::global();
  auto& tracer = obs::Tracer::global();
  // Same rationale as the streaming oracle: per-request trace records
  // interleave differently across threads; the registries are the
  // order-insensitive contract.
  const bool tracer_was_enabled = tracer.enabled();
  tracer.set_enabled(false);

  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = 1000;
  sp.seed = params.seed;
  const auto synthetic = trace::generate_synthetic(sp);
  const auto wp = trace::exchange_params(params.trace_scale, params.seed);
  const auto exchange = trace::generate_workload(wp);
  trace::MultiTenantParams mt;
  mt.intervals = 40;
  mt.tenants = {{.requests_per_interval = 3, .bucket_pool = 6},
                {.requests_per_interval = 12, .bucket_pool = 6}};
  mt.seed = params.seed;
  const auto tenant_trace = trace::generate_multi_tenant(mt);

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

  /// One config × trace: in-process run() is truth; the loopback daemon
  /// must reproduce it — every completion on the wire, the aggregate
  /// stream result, and the metric/series registries.
  const auto audit = [&](const std::string& label,
                         const core::PipelineConfig& cfg,
                         const trace::Trace& t, SimTime horizon) {
    reg.reset();
    tsr.reset();
    const auto want = core::QosPipeline(scheme, cfg).run(t);
    const Snapshots snaps{reg.snapshot(), tsr.snapshot()};

    reg.reset();
    tsr.reset();
    auto run = daemon_run(scheme, cfg, t, horizon, /*mangle=*/false);
    std::string why = run.error;
    bool ok = why.empty();
    if (ok && run.completions.size() != want.outcomes.size()) {
      ok = false;
      why = std::to_string(run.completions.size()) +
            " completions != " + std::to_string(want.outcomes.size()) +
            " submitted requests";
    }
    if (ok && run.clamped != 0) {
      ok = false;
      why = "in-order single-connection stream clamped " +
            std::to_string(run.clamped) + " arrivals";
    }
    for (std::size_t i = 0; ok && i < want.outcomes.size(); ++i) {
      const auto& c = run.completions[i];
      if (c.tag != i) {
        ok = false;
        why = "completion " + std::to_string(i) + " carries tag " +
              std::to_string(c.tag) + ": trace order broken";
        break;
      }
      ok = outcome_eq(want.outcomes[i], net::from_wire_completion(c), i, &why);
    }
    if (ok) ok = stream_result_matches(want, run.result, &why);
    if (ok) {
      ok = metrics_snapshots_match(snaps.reg, reg.snapshot(),
                                   excluded_instrument, &why);
    }
    if (ok) ok = series_snapshots_match(snaps.ts, tsr.snapshot(), &why);
    report.add(label, ok, ok ? "" : why);
  };

  {
    core::PipelineConfig cfg;  // online deterministic: the flat line
    audit("daemon online/det/fim @synthetic", cfg, synthetic, 0);
  }
  {
    core::PipelineConfig cfg;  // aligned batches + per-slice FIM mining
    cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    audit("daemon aligned/det/fim @exchange", cfg, exchange, 0);
  }
  {
    core::PipelineConfig cfg;  // statistical admission: Q estimation state
    cfg.admission = core::AdmissionMode::kStatistical;
    cfg.epsilon = 0.01;
    cfg.p_table = p_table;
    audit("daemon online/stat/fim @exchange", cfg, exchange, 0);
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
    audit("daemon tenant-wfq @multi-tenant", cfg, tenant_trace, 0);
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
    audit("daemon aligned/det/fim +failures @exchange", cfg, exchange,
          horizon);
  }

  // Mutation check: mangle_for_test perturbs every served finish time by
  // one nanosecond on the service thread. If the per-completion compare
  // does not catch that, the identity checks above prove nothing.
  {
    core::PipelineConfig cfg;
    reg.reset();
    tsr.reset();
    const auto want = core::QosPipeline(scheme, cfg).run(synthetic);
    reg.reset();
    tsr.reset();
    auto run =
        daemon_run(scheme, cfg, synthetic, /*horizon=*/0, /*mangle=*/true);
    bool tripped = false;
    std::string why = run.error;
    if (why.empty()) {
      if (run.completions.size() != want.outcomes.size()) {
        tripped = true;  // even the count diverged; still a detection
      } else {
        for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
          if (!outcome_eq(want.outcomes[i],
                          net::from_wire_completion(run.completions[i]), i,
                          nullptr)) {
            tripped = true;
            break;
          }
        }
      }
      why = tripped ? "" : "seeded one-nanosecond defect went unnoticed";
    } else {
      tripped = false;
    }
    report.add("daemon mangle_for_test: seeded defect detected", tripped,
               why);
  }

  // Wire-level overload: a submit past the in-flight cap is answered with
  // pushback for every event in the batch — never silently queued, never
  // admitted into the pipeline.
  {
    core::PipelineConfig cfg;
    service::PipelineService svc(
        scheme, service_options(cfg, synthetic, /*horizon=*/0, false));
    net::DaemonServer server(
        svc, {.dispatchers = 1, .max_batch = 8, .inflight_cap = 4});
    net::Client client;
    bool ok = server.start() && client.connect(server.port());
    std::string why = ok ? "" : "daemon/client setup failed";
    if (ok) {
      std::vector<net::WireEvent> burst(8);
      for (std::size_t i = 0; i < burst.size(); ++i) {
        burst[i].tag = 100 + i;
        burst[i].time = static_cast<std::int64_t>(i);
        burst[i].block = i % scheme.buckets();
      }
      ok = client.submit_raw(burst);  // 8 > cap of 4: whole batch shed
      std::vector<net::WireEvent> small(2);
      for (std::size_t i = 0; i < small.size(); ++i) {
        small[i].tag = i;
        small[i].time = static_cast<std::int64_t>(i);
        small[i].block = i % scheme.buckets();
      }
      if (ok) ok = client.submit_raw(small);  // within the cap: admitted
      if (ok) ok = client.finish();
      if (!ok) why = "wire error: " + client.last_error();
    }
    if (ok && client.pushbacks.size() != 8) {
      ok = false;
      why = std::to_string(client.pushbacks.size()) +
            " pushbacks != 8 shed events";
    }
    if (ok) {
      for (const auto& p : client.pushbacks) {
        if (p.reason !=
                static_cast<std::uint8_t>(net::PushbackReason::kInflightCap) ||
            p.tag < 100) {
          ok = false;
          why = "pushback tag/reason wrong (tag " + std::to_string(p.tag) +
                ", reason " + std::to_string(p.reason) + ")";
          break;
        }
      }
    }
    if (ok && client.completions.size() != 2) {
      ok = false;
      why = std::to_string(client.completions.size()) +
            " completions != 2 admitted events";
    }
    if (ok && server.pushbacks_sent() != 8) {
      ok = false;
      why = "server counted " + std::to_string(server.pushbacks_sent()) +
            " pushbacks, not 8";
    }
    server.stop();
    report.add("daemon in-flight cap: overload answered with pushback", ok,
               why);
  }

  // Framing violations must be answered (kError + counted), not hung on:
  // an absurd length prefix poisons the stream, the daemon says so and
  // hangs up.
  {
    core::PipelineConfig cfg;
    service::PipelineService svc(
        scheme, service_options(cfg, synthetic, /*horizon=*/0, false));
    net::DaemonServer server(svc, {.dispatchers = 1});
    bool ok = server.start();
    std::string why = ok ? "" : "daemon failed to start";
    bool got_error_frame = false;
    net::ErrorFrame ef;
    if (ok) {
      const int fd = net::connect_loopback(server.port());
      ok = fd >= 0;
      if (!ok) why = "raw connect failed";
      if (ok) {
        const char poison[] = {'\xff', '\xff', '\xff', '\xff', '\x00'};
        ok = net::send_all(fd, poison, sizeof(poison));
        if (!ok) why = "raw send failed";
        net::FrameReader reader;
        char buf[4096];
        while (ok && !got_error_frame) {
          const ssize_t n = net::recv_some(fd, buf, sizeof(buf), 5000);
          if (n <= 0) break;  // server hung up (after the error frame)
          reader.feed(buf, static_cast<std::size_t>(n));
          for (auto f = reader.next(); f.has_value(); f = reader.next()) {
            if (f->type == net::FrameType::kError &&
                net::decode_error(*f, ef)) {
              got_error_frame = true;
              break;
            }
          }
        }
        ::close(fd);
      }
    }
    if (ok && !got_error_frame) {
      ok = false;
      why = "no kError frame for a poisoned length prefix";
    }
    if (ok &&
        ef.code != static_cast<std::uint16_t>(net::ErrorCode::kTooLarge)) {
      ok = false;
      why = "error code " + std::to_string(ef.code) + " != kTooLarge";
    }
    if (ok && server.parse_errors() == 0) {
      ok = false;
      why = "malformed frame not counted in parse_errors";
    }
    server.stop();
    report.add("daemon malformed frame: kError answered and counted", ok,
               why);
  }

  // Time discipline: a connection that submits out of order has its late
  // arrivals clamped up to the ingestion floor (and counted) — the merged
  // stream the engine sees stays time-sorted.
  {
    core::PipelineConfig cfg;
    service::PipelineService svc(
        scheme, service_options(cfg, synthetic, /*horizon=*/0, false));
    net::DaemonServer server(svc, {.dispatchers = 1});
    net::Client client;
    bool ok = server.start() && client.connect(server.port());
    std::string why = ok ? "" : "daemon/client setup failed";
    if (ok) {
      std::vector<net::WireEvent> evs(2);
      evs[0].tag = 0;
      evs[0].time = from_ms(2.0);
      evs[1].tag = 1;
      evs[1].time = from_ms(1.0);  // late: must clamp up to 2 ms
      ok = client.submit(evs) && client.finish();
      if (!ok) why = "wire error: " + client.last_error();
    }
    if (ok && svc.clamped_events() != 1) {
      ok = false;
      why = std::to_string(svc.clamped_events()) +
            " clamped events != 1 late arrival";
    }
    if (ok) {
      ok = client.completions.size() == 2 &&
           client.completions[1].arrival == from_ms(2.0);
      if (!ok) why = "late arrival not clamped to the ingestion floor";
    }
    server.stop();
    report.add("daemon clamps late arrivals to the ingestion floor", ok,
               why);
  }

  // Liveness of the flush path: with the stream open and idle, a kFlush
  // must release verdicts for everything strictly below the promised
  // floor — this is the marker-carried frontier travelling the whole way:
  // wire -> service ingress -> engine drain -> completion back out.
  {
    core::PipelineConfig cfg;
    service::PipelineService svc(
        scheme, service_options(cfg, synthetic, /*horizon=*/0, false));
    net::DaemonServer server(svc, {.dispatchers = 1});
    net::Client client;
    bool ok = server.start() && client.connect(server.port());
    std::string why = ok ? "" : "daemon/client setup failed";
    if (ok) {
      net::WireEvent ev;
      ev.tag = 7;
      ev.time = 0;
      ok = client.submit({&ev, 1}) &&
           client.flush(cfg.qos_interval * 4);  // well past the arrival
      if (!ok) why = "wire error: " + client.last_error();
    }
    if (ok) {
      // Bounded wait: the verdict must arrive while the session is open.
      for (int spin = 0; spin < 100 && client.completions.empty(); ++spin) {
        if (!client.pump(100)) break;
      }
      ok = client.completions.size() == 1 && client.completions[0].tag == 7;
      if (!ok) {
        why = "flush did not release the queued verdict mid-session";
      }
    }
    if (ok) {
      ok = client.finish();
      if (!ok) why = "finish after flush failed: " + client.last_error();
    }
    server.stop();
    report.add("daemon flush releases verdicts mid-session", ok, why);
  }

  tracer.set_enabled(tracer_was_enabled);
  return report;
}

bool probe_daemon(std::uint16_t port, std::string& summary, std::size_t batch) {
  const auto fail = [&summary](const std::string& why) {
    summary = "FAIL daemon-probe: " + why;
    return false;
  };
  net::Client client;
  if (!client.connect(port)) {
    return fail("connect to 127.0.0.1:" + std::to_string(port) + ": " +
                client.last_error());
  }
  const auto devices = client.welcome().devices;
  std::vector<net::WireEvent> evs(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    evs[i].tag = i;
    evs[i].time =
        static_cast<std::int64_t>(i) * client.welcome().interval_ns;
    evs[i].block = static_cast<std::uint64_t>(i % std::max(devices, 1u));
  }
  if (!client.submit(evs) ||
      !client.flush(static_cast<std::int64_t>(batch) *
                    client.welcome().interval_ns)) {
    return fail("wire error: " + client.last_error());
  }
  // finish() ends the session; as the only connection that asks the
  // daemon to drain, answer the remaining completions, and exit.
  if (!client.finish()) return fail("drain: " + client.last_error());
  if (client.completions.size() != batch || !client.pushbacks.empty()) {
    return fail(std::to_string(client.completions.size()) + " of " +
                std::to_string(batch) + " completions, " +
                std::to_string(client.pushbacks.size()) + " pushbacks");
  }
  for (std::size_t i = 0; i < batch; ++i) {
    const auto& c = client.completions[i];
    if (c.tag != i || c.finish < c.start || c.start < c.dispatch ||
        c.dispatch < c.arrival) {
      return fail("completion " + std::to_string(i) + " has tag " +
                  std::to_string(c.tag) + " and a non-causal timeline");
    }
  }
  summary = "OK daemon-probe: " + std::to_string(batch) +
            " served over 127.0.0.1:" + std::to_string(port) +
            " with live verdicts, session drained";
  return true;
}

}  // namespace flashqos::verify
