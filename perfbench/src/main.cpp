// flashqos_perfbench: one process per benchmark run (run.py drives it).
//
//   flashqos_perfbench run   --workload W --seed N --seconds S --trace 0|1
//                            [--trace-out FILE]
//   flashqos_perfbench setup --workload W --seed N     (one set-up, timed)
//   flashqos_perfbench selftest
//
// The last line of `run` is a JSON object with correct / attempted /
// failed / metrics plus a "detail" block run.py reports separately.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <fstream>
#include <string>

#include "obs/http_exporter.hpp"
#include "workload.hpp"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "served_oltp") return make_served_oltp(seed);
  if (name == "backlog_burst") return make_backlog_burst(seed);
  if (name == "sweep_paper") return make_sweep_paper(seed);
  return nullptr;
}

bool not_on_path(const Workload& w, const std::string& metric) {
  for (const auto& entry : w.layers_not_on_path()) {
    if (metric == entry || layer_of(metric) == entry) return true;
  }
  return false;
}

std::string json_str_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", \"" : "\"") + v[i] + "\"";
  }
  return out + "]";
}

std::string json_num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

int run_untraced(Workload& w, const Args& a, double setup_s) {
  w.prepare();
  // Freed heap goes back to the OS before and between passes, so every
  // pass starts from the same allocator state and peak_rss_mb does not
  // depend on how many passes the run fits. The peak is then reset, so it
  // covers the timed passes only, not the untimed reference builds.
  malloc_trim(0);
  if (!reset_peak_rss()) {
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  }
  const Scrape before = scrape_metrics();
  const CpuTicks ticks0 = read_cpu_ticks();
  std::vector<double> kreq_s;
  std::vector<double> cpu_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_total = 0;
  double cpu_total = 0;
  const std::int64_t t0 = now_ns();
  // Whole passes until the run's time is spent (at least three). The
  // metrics are totals over the timed passes; per-pass figures are detail.
  // The allocator trim sits outside each pass's timed window.
  while (kreq_s.size() < 3 ||
         static_cast<double>(now_ns() - t0) / 1e9 < a.seconds) {
    const PassStats ps = w.pass();
    malloc_trim(0);
    attempted += ps.requests;
    failed += ps.failed;
    wall_total += ps.wall_s;
    cpu_total += ps.cpu_s;
    kreq_s.push_back(static_cast<double>(ps.requests) / ps.wall_s / 1e3);
    cpu_us.push_back(ps.cpu_s / static_cast<double>(ps.requests) * 1e6);
  }
  const double timed_s = static_cast<double>(now_ns() - t0) / 1e9;
  const double steal = steal_share(ticks0, read_cpu_ticks());
  failed += w.counter_failures(before, scrape_metrics());

  const SimStats& sim = w.sim();
  std::vector<double> delays = sim.delays_ms;
  const Distribution d = summarize(delays);
  MetricSet m;
  const auto n = static_cast<double>(attempted);
  m.put("throughput_kreq_s", n / wall_total / 1e3, "kreq/s");
  m.put("cpu_us_per_req", cpu_total / n * 1e6, "us");
  m.put("sim_deferred_pct",
        sim.reads ? 100.0 * static_cast<double>(sim.deferred) /
                        static_cast<double>(sim.reads)
                  : 0.0,
        "%");
  m.put("sim_delay_p50_ms", d.p50, "ms");
  m.put("sim_delay_p99_ms", d.p99, "ms");
  m.put("setup_s", setup_s, "s");
  m.put("peak_rss_mb", peak_rss_mb(), "MiB");

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s, \"detail\": {\"passes\": %zu, \"timed_s\": %s, \"steal_share\": %s, "
      "\"kreq_s_passes\": %s, \"cpu_us_passes\": %s, \"sim_reads\": %llu, "
      "\"sim_delay_samples\": %zu, \"sim_delay_top_percentile\": %s, "
      "\"sim_delay_top_ms\": %s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.json().c_str(), kreq_s.size(),
      num(timed_s).c_str(), num(steal).c_str(),
      json_num_list(kreq_s).c_str(), json_num_list(cpu_us).c_str(),
      static_cast<unsigned long long>(sim.reads), d.n, num(d.top_p).c_str(),
      num(d.top_value).c_str());
  return 0;
}

int run_traced(Workload& w, const Args& a) {
  w.prepare();
  // Untraced reference for the tracing overhead: the median of 3 passes.
  std::vector<double> kreq_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i < 3; ++i) {
    const PassStats ps = w.pass();
    attempted += ps.requests;
    failed += ps.failed;
    kreq_s.push_back(static_cast<double>(ps.requests) / ps.wall_s / 1e3);
  }
  SpanLog log(a.seed);
  MetricSet layers;
  const int root = log.begin("bench." + a.workload);
  w.trace_layers(log, layers);
  log.end(root);
  failed += w.trace_failures();
  const auto& spans = log.spans();
  const double root_ns =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  const double untraced = median(kreq_s);

  MetricSet m;
  for (const auto& [metric, unit] : per_layer_catalog()) {
    double v = 0.0;
    for (const auto& [k, vu] : layers.items()) {
      if (k == metric) v = vu.first;
    }
    if (not_on_path(w, metric)) v = 0.0;
    m.put(metric, v, unit);
  }
  m.put("bench.trace_overhead_pct",
        100.0 * (untraced - w.traced_kreq_s()) / untraced, "%");
  m.put("bench.unaccounted_share",
        static_cast<double>(log.self_ns(0)) / root_ns, "ratio");

  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    out << log.chrome_json();
  }
  std::string self_table = "{";
  bool first = true;
  for (const auto& [layer, ns] : log.self_by_layer()) {
    self_table += (first ? "\"" : ", \"") + layer + "\": " +
                  num(static_cast<double>(ns) / root_ns);
    first = false;
  }
  self_table += "}";
  std::vector<std::string> absent;
  for (const auto& [metric, unit] : per_layer_catalog()) {
    if (not_on_path(w, metric)) absent.push_back(metric);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s, \"detail\": {\"untraced_kreq_s\": %s, \"traced_kreq_s\": %s, "
      "\"self_time_share\": %s, \"spans\": %zu, \"not_on_path\": %s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.json().c_str(),
      num(untraced).c_str(), num(w.traced_kreq_s()).c_str(), self_table.c_str(),
      spans.size(), json_str_list(absent).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: flashqos_perfbench run|setup|selftest "
                 "--workload W --seed N [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (a.mode == "selftest") return perfbench::run_selftest();

  auto w = make(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "flashqos_perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  // Counters are read only from the exported Prometheus text, as /metrics
  // serves it from this process.
  auto& exporter = flashqos::obs::HttpExporter::global();
  if (!exporter.start()) {
    std::fprintf(stderr, "flashqos_perfbench: /metrics exporter: %s\n",
                 exporter.last_error().c_str());
    return 1;
  }
  int rc = 0;
  try {
    const std::int64_t t0 = now_ns();
    w->setup();
    const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (a.mode == "setup") {
      std::printf("{\"setup_s\": %s}\n", num(setup_s).c_str());
    } else if (a.mode == "run") {
      rc = a.trace ? run_traced(*w, a) : run_untraced(*w, a, setup_s);
    } else {
      std::fprintf(stderr, "flashqos_perfbench: unknown mode '%s'\n",
                   a.mode.c_str());
      rc = 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashqos_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::fflush(stdout);
  w.reset();
  exporter.stop();
  return rc;
}
