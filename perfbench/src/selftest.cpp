// Self-tests for the benchmark's own helpers (flashqos_perfbench selftest,
// or python3 perfbench/run.py --selftest). Exit 0 when every check holds.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  expect(nearest_rank(v, 50.0) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(nearest_rank(v, 99.0) == 99.0, "nearest-rank p99 of 1..100 is 99");
  expect(nearest_rank(v, 100.0) == 100.0, "nearest-rank p100 is the maximum");
  expect(nearest_rank(v, 0.0) == 1.0, "nearest-rank p0 is the minimum");
  std::vector<double> three = {3.0, 1.0, 2.0};
  expect(nearest_rank(three, 50.0) == 2.0, "p50 of three samples is the middle");
  std::vector<double> empty;
  expect(nearest_rank(empty, 50.0) == 0.0, "empty input reads 0");

  // ">= 10 samples beyond" rule: with n samples, percentile p qualifies
  // when n - ceil(p/100 n) >= 10.
  expect(top_supported_percentile(9) == 0.0, "9 samples support no percentile");
  expect(top_supported_percentile(20) == 50.0, "20 samples support p50 only");
  expect(top_supported_percentile(99) == 50.0, "99 samples: p90 has 9 beyond");
  expect(top_supported_percentile(100) == 90.0, "100 samples: p90 has 10 beyond");
  expect(top_supported_percentile(999) == 90.0, "999 samples: p99 has 9 beyond");
  expect(top_supported_percentile(1000) == 99.0, "1000 samples support p99");
  expect(top_supported_percentile(10000) == 99.9, "10000 samples support p99.9");

  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  const Distribution d = summarize(big);
  expect(d.n == 1000 && d.p50 == 500.0 && d.p99 == 990.0 && d.top_p == 99.0 &&
             d.top_value == 990.0,
         "summarize reports n, p50, p99 and the top supported percentile");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
}

void test_self_time() {
  // Parent [0, 100) with children [10, 40) and [30, 60) that overlap, and
  // [80, 120) running past the parent's end; a grandchild [15, 20) belongs
  // to its own parent only. Covered = [10, 60) + [80, 100) = 70.
  const std::vector<Span> spans = {
      {"core.parent", 0, 100, -1, 0}, {"net.a", 10, 40, 0, 0},
      {"net.b", 30, 60, 0, 0},        {"net.c", 80, 120, 0, 0},
      {"fim.g", 15, 20, 1, 0},
  };
  expect(self_time_ns(spans, 0) == 30,
         "self time subtracts the union of overlapping children");
  expect(self_time_ns(spans, 1) == 25, "a grandchild is subtracted from its parent");
  expect(self_time_ns(spans, 2) == 30 && self_time_ns(spans, 4) == 5,
         "leaf self time is its duration");

  SpanLog log;
  const int root = log.begin("bench.root");
  {
    Scoped child(log, "net.child");
  }
  log.end(root);
  const auto& got = log.spans();
  expect(got.size() == 2 && got[1].parent == 0 && got[0].parent == -1,
         "scoped spans nest under the open span");
  const auto by_layer = log.self_by_layer();
  expect(by_layer.at("bench") + by_layer.at("net") ==
             got[0].end_ns - got[0].start_ns,
         "per-layer self times sum to the root's duration");
  expect(layer_of("net.wire") == "net" && layer_of("bench") == "bench",
         "layer is the span name's first component");
}

void test_conservation() {
  Conservation ok;
  for (std::uint64_t t = 0; t < 5; ++t) ok.submitted(t);
  for (std::uint64_t t = 0; t < 5; ++t) ok.answered(t);
  expect(ok.failures() == 0 && ok.in_order() == 5 && ok.missing() == 0,
         "in-order answers conserve and free the window");

  Conservation dup;
  dup.submitted(0);
  dup.submitted(1);
  dup.answered(0);
  dup.answered(0);
  dup.answered(1);
  expect(dup.duplicates() == 1 && dup.failures() == 1,
         "a duplicate completion is counted");

  Conservation miss;
  miss.submitted(0);
  miss.submitted(1);
  miss.submitted(2);
  miss.answered(0);
  miss.answered(2);
  expect(miss.missing() == 1 && miss.out_of_order() == 1 && miss.failures() == 2,
         "a missing completion and the one that skipped it are counted");

  Conservation push;
  push.submitted(0);
  push.submitted(1);
  push.pushed_back(0);
  push.answered(1);
  expect(push.pushbacks() == 1 && push.in_order() == 1 && push.missing() == 0 &&
             push.failures() == 1,
         "a pushed-back request counts once, as a pushback");

  Conservation unknown;
  unknown.answered(7);
  expect(unknown.duplicates() == 1, "an answer to a never-sent tag is counted");
}

void test_readers() {
  const double c0 = process_cpu_s();
  volatile double x = 0;
  for (int i = 0; i < 20'000'000; ++i) x = x + std::sqrt(static_cast<double>(i));
  const double c1 = process_cpu_s();
  expect(c1 > c0 && c1 - c0 < 10.0, "getrusage CPU time advances with work");

  const CpuTicks t = parse_proc_stat(
      "cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 50 2 25 400 5 0 1 16 0 0\n");
  expect(t.total == 1000 && t.steal == 32, "parses the aggregate cpu line");
  const CpuTicks t2 = parse_proc_stat(
      "cpu  200 5 50 1600 10 1 2 132 0 0\n");
  expect(std::fabs(steal_share(t, t2) - 100.0 / 1000.0) < 1e-12,
         "steal share is delta steal over delta total");
  expect(steal_share(t, t) == 0.0, "no ticks, no steal");
  expect(parse_proc_stat("intr 1 2 3\n").total == 0, "no cpu line reads zero");
  const CpuTicks live = read_cpu_ticks();
  expect(live.total > 0 && live.steal <= live.total, "reads this host's /proc/stat");

  expect(parse_vm_hwm_mb("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS: 1 kB\n") == 200.0,
         "VmHWM parses in MiB");
  expect(peak_rss_mb() > 0.0, "reads this process's VmHWM");
  {
    // A 64 MiB touched block raises the peak; after it is freed, the
    // reset brings the peak back below it.
    std::vector<char> big(64u << 20, 1);
    const double raised = peak_rss_mb();
    big = std::vector<char>();
    malloc_trim(0);
    expect(reset_peak_rss() && peak_rss_mb() < raised - 32.0,
           "VmHWM reset drops the peak to the current resident set");
  }
}

void test_scrape() {
  const Scrape s(
      "# TYPE flashqos_pipeline_dispatches_total counter\n"
      "flashqos_pipeline_dispatches_total 42\n"
      "flashqos_flashsim_device_busy_ns_total{device=\"0\"} 10\n"
      "flashqos_flashsim_device_busy_ns_total{device=\"1\"} 5\n"
      "flashqos_pipeline_interval_ns_sum{stage=\"ingest\"} 7\n"
      "flashqos_pipeline_interval_ns_sum{stage=\"drain\"} 9\n");
  expect(s.sum("flashqos_pipeline_dispatches_total") == 42, "unlabelled sample");
  expect(s.sum("flashqos_flashsim_device_busy_ns_total") == 15,
         "family sums across label sets");
  expect(s.sum("flashqos_pipeline_interval_ns_sum", "stage=\"drain\"") == 9,
         "label filter");
  expect(s.sum("flashqos_missing_total") == 0, "absent family reads 0");
  const Scrape before("flashqos_pipeline_dispatches_total 40\n");
  expect(s.delta(before, "flashqos_pipeline_dispatches_total") == 2, "delta");
}

void test_digest() {
  Digest a;
  Digest b;
  a.add(1);
  a.add_d(0.5);
  b.add(1);
  b.add_d(0.5);
  Digest c;
  c.add_d(0.5);
  c.add(1);
  expect(a.value() == b.value() && a.value() != c.value(),
         "digest is deterministic and order-sensitive");
  MetricSet m;
  m.put("x", 1.25, "ms");
  m.put("x", 2.5, "ms");
  expect(m.json() == "{\"x\": {\"value\": 2.5, \"unit\": \"ms\"}}",
         "metric set keeps one entry per name");
}

}  // namespace

int run_selftest() {
  test_percentiles();
  test_self_time();
  test_conservation();
  test_readers();
  test_scrape();
  test_digest();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed", g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
