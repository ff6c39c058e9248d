// served_oltp: flashqosd's serving stack in one process. An experiment
// config builds the daemon exactly as flashqosd does; one net::Client
// streams a TPC-E-like trace over loopback in a closed loop at the
// Welcome's inflight_cap and checks every completion, as it arrives,
// against a one-thread replay of the same stream.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/pipeline_service.hpp"
#include "trace/cursor.hpp"
#include "trace/workload.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace flashqos;

constexpr std::uint64_t kParts = 6;
constexpr double kPartScale = 1.0 / 3.0;  // ~53 k reads a part, ~320 k a pass
constexpr std::uint32_t kMaxBatch = 1024;
constexpr std::uint32_t kInflightCap = 4096;

/// Counts live verdicts and checks they come back in ingestion order.
class CountingSink final : public service::ServedSink {
 public:
  void on_served(const service::Served& s) override {
    const std::uint64_t n = served_.load(std::memory_order_relaxed);
    if (s.tag != n) out_of_order_.fetch_add(1, std::memory_order_relaxed);
    served_.store(n + 1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t served() const {
    return served_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t out_of_order() const {
    return out_of_order_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> served_{0};  // written by the service thread
  std::atomic<std::uint64_t> out_of_order_{0};
};

/// Client-side timings of one wire pass, for the traced run.
struct WireTimes {
  std::int64_t pump_ns = 0;
  std::uint64_t frames_sent = 0;
};

class ServedOltp final : public Workload {
 public:
  explicit ServedOltp(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // Six independently seeded TPC-E-like parts back to back, as the
    // original TPC-E trace comes in six parts: per-seed hot-set luck
    // averages out over the parts.
    const std::int64_t t0 = now_ns();
    for (std::uint64_t part = 0; part < kParts; ++part) {
      const auto params = trace::tpce_params(kPartScale, seed_ * kParts + part);
      auto t = trace::generate_workload(params);
      const SimTime offset = static_cast<SimTime>(part * params.report_intervals) *
                             params.report_interval;
      if (part == 0) {
        trace_.name = t.name;
        trace_.volumes = t.volumes;
        trace_.report_interval = t.report_interval;
      }
      for (auto& e : t.events) {
        e.time += offset;
        trace_.events.push_back(e);
      }
    }
    gen_ns_ = now_ns() - t0;
    wire_.reserve(trace_.events.size());
    for (std::size_t i = 0; i < trace_.events.size(); ++i) {
      const auto& e = trace_.events[i];
      net::WireEvent w;
      w.tag = i;
      w.time = e.time;
      w.block = e.block;
      w.device = e.device;
      w.size_blocks = e.size_blocks;
      w.tenant = e.tenant;
      w.flags = e.is_read ? 1 : 0;
      wire_.push_back(w);
    }
    // The daemon's config: [design] + [pipeline] + [service]; P_k is
    // sampled inside build_service, as at flashqosd start-up.
    setup_ = service::build_service(config_from(
        "[design]\nname = (13,3,1)\n"
        "[pipeline]\nretrieval = online\nmapping = fim\n"
        "admission = statistical\nepsilon = 0.01\n"
        "[service]\nname = served_oltp\nreport_interval_ms = " +
        std::to_string(static_cast<double>(trace_.report_interval) / 1e6) +
        "\n"));
    (void)wire_pass(nullptr);  // warm-up: outcomes not yet checked
  }

  void prepare() override {
    service::PipelineService svc(*setup_.scheme, setup_.options);
    const auto ref = svc.run(trace_);
    ref_.reserve(ref.outcomes.size());
    for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
      ref_.push_back(net::to_wire_completion(i, ref.outcomes[i]));
      fold_outcome(sim_, ref.outcomes[i]);
    }
    fim_match_rate_ = ref.overall.fim_match_rate;
    service::PipelineService stream_svc(*setup_.scheme, setup_.options);
    trace::VectorCursor cur(trace_);
    ref_stream_ = stream_svc.run_stream(cur);
  }

  PassStats pass() override { return wire_pass(&ref_); }

  [[nodiscard]] const SimStats& sim() const override { return sim_; }

  [[nodiscard]] std::uint64_t counter_failures(
      const Scrape& before, const Scrape& after) const override {
    double bad = 0;
    for (const char* f : {"flashqos_service_clamped_events_total",
                          "flashqos_net_pushbacks_total",
                          "flashqos_net_dropped_completions_total",
                          "flashqos_net_parse_errors_total"}) {
      bad += after.delta(before, f);
    }
    return static_cast<std::uint64_t>(bad);
  }

  void trace_layers(SpanLog& log, MetricSet& m) override {
    const double n = static_cast<double>(wire_.size());
    const Scrape at_start = scrape_metrics();

    {  // net codec alone: the run's submit and completion frames
      Scoped s(log, "net.codec");
      const std::int64_t t0 = now_ns();
      std::uint64_t decoded = 0;
      net::FrameReader reader;
      std::vector<net::WireEvent> evs;
      std::vector<net::WireCompletion> cs;
      for (std::size_t pos = 0; pos < wire_.size(); pos += kMaxBatch) {
        const std::size_t k = std::min<std::size_t>(kMaxBatch, wire_.size() - pos);
        const std::string a = net::encode_submit({wire_.data() + pos, k});
        const std::string b = net::encode_completions({ref_.data() + pos, k});
        reader.feed(a.data(), a.size());
        reader.feed(b.data(), b.size());
        while (auto f = reader.next()) {
          if (f->type == net::FrameType::kSubmit && net::decode_submit(*f, evs)) {
            decoded += evs.size();
          } else if (net::decode_completions(*f, cs)) {
            decoded += cs.size();
          }
        }
      }
      m.put("net.codec_ns_per_req", static_cast<double>(now_ns() - t0) / n, "ns");
      if (decoded != 2 * wire_.size()) trace_errors_ += 1;
    }

    double engine_ns = 0;
    {  // engine alone: one-thread run_stream over the same stream
      service::PipelineService svc(*setup_.scheme, setup_.options);
      trace::VectorCursor cur(trace_);
      const Scrape before = scrape_metrics();
      const int span = log.begin("core.engine");
      const std::int64_t t0 = now_ns();
      const auto res = svc.run_stream(cur);
      engine_ns = static_cast<double>(now_ns() - t0);
      log.end(span);
      const Scrape after = scrape_metrics();
      if (!same_stream_result(res, ref_stream_)) trace_errors_ += 1;
      m.put("core.engine_ns_per_req", engine_ns / n, "ns");
      engine_counter_metrics(m, before, after, n, engine_ns,
                             static_cast<double>(trace_.duration()),
                             static_cast<double>(setup_.scheme->devices()));
    }

    double live_ns = 0;
    {  // live facade without sockets, on the wire leg's floor schedule:
       // flush only when kInflightCap requests are unanswered, with the
       // next event's time as the floor, then wait for an answer.
      Scoped s(log, "service.live");
      service::PipelineService svc(*setup_.scheme, setup_.options);
      CountingSink sink;
      svc.start(sink);
      std::vector<trace::TraceEvent> evs;
      std::vector<std::uint64_t> tags;
      std::int64_t submit_ns = 0;
      std::int64_t flushed = -1;
      const std::int64_t t0 = now_ns();
      std::size_t pos = 0;
      while (pos < trace_.events.size()) {
        const std::size_t k =
            std::min<std::size_t>(kMaxBatch, trace_.events.size() - pos);
        const std::uint64_t answered = sink.served();
        if (pos - answered + k > kInflightCap) {
          const std::int64_t floor = trace_.events[pos].time;
          if (floor > flushed) {
            svc.flush(floor);
            flushed = floor;
          }
          const std::int64_t give_up = now_ns() + 10'000'000'000;  // stalled
          while (sink.served() == answered && now_ns() < give_up) {
            std::this_thread::yield();
          }
          if (sink.served() == answered) {
            trace_errors_ += 1;
            break;
          }
          continue;
        }
        evs.assign(trace_.events.begin() + static_cast<std::ptrdiff_t>(pos),
                   trace_.events.begin() + static_cast<std::ptrdiff_t>(pos + k));
        tags.resize(k);
        for (std::size_t i = 0; i < k; ++i) tags[i] = pos + i;
        const std::int64_t a = now_ns();
        if (!svc.submit(0, evs, tags)) trace_errors_ += 1;
        submit_ns += now_ns() - a;
        pos += k;
      }
      const auto res = svc.drain();
      live_ns = static_cast<double>(now_ns() - t0);
      if (!same_stream_result(res, ref_stream_) || sink.served() != wire_.size() ||
          sink.out_of_order() != 0) {
        trace_errors_ += 1;
      }
      m.put("service.live_ns_per_req", live_ns / n, "ns");
      m.put("service.submit_blocked_share", static_cast<double>(submit_ns) / live_ns,
            "ratio");
    }

    {  // the full wire: 3 passes (wire passes vary most), the median one counts
      const Scrape before = scrape_metrics();
      std::vector<std::pair<PassStats, WireTimes>> runs(3);
      for (auto& [ps, wt] : runs) {
        const int span = log.begin("net.wire");
        ps = wire_pass(&ref_, &wt, &log);
        log.end(span);
        wire_failures_ += ps.failed;
      }
      const Scrape after = scrape_metrics();
      std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
        return a.first.wall_s < b.first.wall_s;
      });
      const auto& [ps, wt] = runs[1];
      const double wire_ns = ps.wall_s * 1e9;
      traced_kreq_s_ = n / ps.wall_s / 1e3;
      m.put("net.transport_ns_per_req", (wire_ns - live_ns) / n, "ns");
      m.put("net.client_wait_share", static_cast<double>(wt.pump_ns) / wire_ns,
            "ratio");
      m.put("net.frames_per_kreq", static_cast<double>(wt.frames_sent) / n * 1e3,
            "count");
      m.put("net.pushbacks", after.delta(before, "flashqos_net_pushbacks_total"),
            "count");
      m.put("net.dropped_completions",
            after.delta(before, "flashqos_net_dropped_completions_total"), "count");
      m.put("net.parse_errors",
            after.delta(before, "flashqos_net_parse_errors_total"), "count");
    }

    {
      Scoped s(log, "retrieval.pk_sample");
      m.put("retrieval.pk_sample_s", cold_pk_sample_s(*setup_.scheme), "s");
    }
    m.put("fim.match_rate", fim_match_rate_, "ratio");
    m.put("service.clamped_events",
          scrape_metrics().delta(at_start, "flashqos_service_clamped_events_total"),
          "count");
    m.put("trace.gen_ns_per_req", static_cast<double>(gen_ns_) / n, "ns");
  }

  [[nodiscard]] std::vector<std::string> layers_not_on_path() const override {
    return {"core.sweep_scaling_eff", "core.sweep_slowest_job_share",
            "retrieval.flow_ws_reuse_ratio", "retrieval.pk_cache_hit_ratio",
            "fim.mine_ns_per_slice", "fault.degraded_intervals",
            "fault.retries"};
  }

  [[nodiscard]] double traced_kreq_s() const override { return traced_kreq_s_; }
  [[nodiscard]] std::uint64_t trace_failures() const override {
    return trace_errors_ + wire_failures_;
  }

 private:
  /// One daemon session over the whole stream. With `ref`, every
  /// completion is compared field for field and the daemon's aggregate
  /// against the one-thread replay; every answer must come exactly once,
  /// in order. Completions are checked and dropped as they arrive.
  PassStats wire_pass(const std::vector<net::WireCompletion>* ref,
                      WireTimes* wt = nullptr, SpanLog* log = nullptr) {
    PassStats ps;
    Conservation cons;
    service::PipelineService svc(*setup_.scheme, setup_.options);
    net::ServerOptions so;
    so.dispatchers = 1;
    so.max_batch = kMaxBatch;
    so.inflight_cap = kInflightCap;
    net::DaemonServer server(svc, so);
    net::Client cl;
    if (!server.start() || !cl.connect(server.port())) {
      ps.requests = wire_.size();
      ps.failed = wire_.size();
      return ps;
    }
    const std::uint64_t cap = cl.welcome().inflight_cap;
    const std::uint64_t batch = std::max<std::uint32_t>(cl.welcome().max_batch, 1);
    std::uint64_t mismatched = 0;
    const auto consume = [&] {
      for (const auto& c : cl.completions) {
        cons.answered(c.tag);
        if (ref != nullptr &&
            (c.tag >= ref->size() || !same_completion(c, (*ref)[c.tag]))) {
          ++mismatched;
        }
      }
      cl.completions.clear();
      for (const auto& p : cl.pushbacks) cons.pushed_back(p.tag);
      cl.pushbacks.clear();
    };

    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    bool ok = true;
    std::int64_t flushed = -1;
    int idle_waits = 0;
    std::size_t pos = 0;
    while (ok && pos < wire_.size()) {
      const std::size_t k = std::min<std::size_t>(batch, wire_.size() - pos);
      if (cl.outstanding() + k > cap) {
        // Window full: promise the next event's time as the floor (nothing
        // later is earlier), so the engine can answer what lies below it.
        const std::int64_t floor = wire_[pos].time;
        if (floor > flushed) {
          ok = cl.flush(floor);
          flushed = floor;
          if (wt) ++wt->frames_sent;
        }
        const std::uint64_t before = cl.outstanding();
        const std::int64_t a = now_ns();
        ok = ok && cl.pump(200);
        const std::int64_t b = now_ns();
        if (wt) wt->pump_ns += b - a;
        if (log) log->add("net.client_pump", a, b);
        consume();
        idle_waits = cl.outstanding() < before ? 0 : idle_waits + 1;
        if (idle_waits > 50) ok = false;  // no answer for 10 s: stalled
        continue;
      }
      for (std::size_t i = 0; i < k; ++i) cons.submitted(wire_[pos + i].tag);
      const std::int64_t a = now_ns();
      ok = cl.submit({wire_.data() + pos, k});
      if (log) log->add("net.client_submit", a, now_ns());
      if (wt) ++wt->frames_sent;
      consume();
      pos += k;
    }
    if (ok) {
      const std::int64_t a = now_ns();
      ok = cl.finish();
      if (log) log->add("net.client_finish", a, now_ns());
      if (wt) ++wt->frames_sent;
      consume();
    }
    ps.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    ps.cpu_s = process_cpu_s() - cpu0;
    ps.requests = wire_.size();
    const auto& res = server.wait_done();
    const bool same = ref == nullptr || same_stream_result(res, ref_stream_);
    server.stop();
    // Unsent requests (a stalled or broken session) fail too.
    ps.failed = cons.failures() + mismatched + (wire_.size() - pos);
    if (!ok || !same) ps.failed = std::max<std::uint64_t>(ps.failed, 1);
    return ps;
  }

  static bool same_completion(const net::WireCompletion& a,
                              const net::WireCompletion& b) {
    return a.tag == b.tag && a.arrival == b.arrival && a.dispatch == b.dispatch &&
           a.start == b.start && a.finish == b.finish && a.device == b.device &&
           a.q_ppm == b.q_ppm && a.tenant == b.tenant && a.path == b.path &&
           a.flags == b.flags;
  }

  std::uint64_t seed_;
  trace::Trace trace_;
  std::int64_t gen_ns_ = 0;
  std::vector<net::WireEvent> wire_;
  service::ServiceSetup setup_;
  std::vector<net::WireCompletion> ref_;
  core::StreamResult ref_stream_;
  double fim_match_rate_ = 0.0;
  SimStats sim_;
  double traced_kreq_s_ = 0.0;
  std::uint64_t trace_errors_ = 0;
  std::uint64_t wire_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_served_oltp(std::uint64_t seed) {
  return std::make_unique<ServedOltp>(seed);
}

}  // namespace perfbench
