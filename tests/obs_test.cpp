// Unit tests for src/obs: sharded counter/gauge correctness under
// concurrency (scripts/check.sh replays this suite under TSan), histogram
// percentile exactness against a sorted-vector oracle in both the exact
// and bucket-fallback regimes, snapshot determinism across thread counts,
// tracer ring wraparound, exporter formats, and the end-to-end consistency
// of the instrumented pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace flashqos::obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket math

TEST(BucketMath, RoundTripContainsValue) {
  std::vector<std::int64_t> samples = {0, 1, 2, 255, 256, 257, 1000, 4095};
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(rng.between(0, kMaxTrackable));
  }
  samples.push_back(kMaxTrackable);
  for (const auto v : samples) {
    const auto idx = bucket_index(v);
    ASSERT_LT(idx, kBucketEntries) << "value " << v;
    EXPECT_LE(bucket_lo(idx), v) << "value " << v;
    EXPECT_LT(v, bucket_hi(idx)) << "value " << v;
  }
}

TEST(BucketMath, BoundariesAreContiguousAndMonotone) {
  for (std::size_t idx = 0; idx + 1 < kBucketEntries; ++idx) {
    ASSERT_LT(bucket_lo(idx), bucket_hi(idx)) << "bucket " << idx;
    ASSERT_EQ(bucket_hi(idx), bucket_lo(idx + 1)) << "bucket " << idx;
  }
  EXPECT_EQ(bucket_lo(0), 0);
  EXPECT_EQ(bucket_hi(kBucketEntries - 1), kMaxTrackable + 1);
}

TEST(BucketMath, RelativeErrorBounded) {
  // A bucket's width never exceeds 2^-8 of its lower bound (above the
  // unit-bucket range, where the error is zero).
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(256, kMaxTrackable);
    const auto idx = bucket_index(v);
    const double width = static_cast<double>(bucket_hi(idx) - bucket_lo(idx));
    EXPECT_LE(width, std::ldexp(static_cast<double>(bucket_lo(idx)), -7) + 1)
        << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// Counter / gauge concurrency

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, ConcurrentUpDownNets) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 10000; ++i) {
        g.inc();
        if (t % 2 == 0) g.dec();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Even threads net zero, odd threads net +10000 each.
  EXPECT_EQ(g.value(), 4 * 10000);
}

// ---------------------------------------------------------------------------
// Histogram: exactness and determinism

/// Nearest-rank oracle over the raw sample vector.
std::int64_t oracle_percentile(std::vector<std::int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

TEST(LatencyHistogram, ExactRegimeMatchesOracleExactly) {
  // Few distinct values (the simulated-latency case): the exact tracker
  // holds and every percentile is exact.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  Rng rng(3);
  const std::int64_t distinct[] = {132507, 265014, 397521, 1000, 0};
  for (int i = 0; i < 20000; ++i) {
    const auto v = distinct[rng.below(5)];
    samples.push_back(v);
    h.record(v);
  }
  const auto snap = h.snapshot();
  ASSERT_TRUE(snap.exact);
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(snap.max, *std::max_element(samples.begin(), samples.end()));
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(snap.percentile(q), oracle_percentile(samples, q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, FallbackRegimeWithinBucketError) {
  // More distinct values than the exact tracker holds: the snapshot falls
  // back to log buckets; quantiles keep <= 2^-8 relative error and
  // min/max/sum/count stay exact.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  std::int64_t sum = 0;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(0, 1 << 20);
    samples.push_back(v);
    sum += v;
    h.record(v);
  }
  const auto snap = h.snapshot();
  ASSERT_FALSE(snap.exact);
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(snap.max, *std::max_element(samples.begin(), samples.end()));
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const auto want = oracle_percentile(samples, q);
    const auto got = snap.percentile(q);
    // The reported value is the containing bucket's lower bound.
    EXPECT_LE(got, want) << "q=" << q;
    EXPECT_GE(static_cast<double>(got),
              static_cast<double>(want) * (1.0 - std::ldexp(1.0, -7)) - 1.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, NegativeAndOverflowValuesKeepExactMinMax) {
  LatencyHistogram h;
  h.record(-5);
  h.record(kMaxTrackable + 1000);  // clamps into the top bucket
  h.record(100);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, -5);
  EXPECT_EQ(snap.max, kMaxTrackable + 1000);
  EXPECT_EQ(snap.sum, -5 + kMaxTrackable + 1000 + 100);
}

bool snapshots_identical(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  if (a.count != b.count || a.sum != b.sum || a.min != b.min ||
      a.max != b.max || a.exact != b.exact || a.values != b.values ||
      a.buckets.size() != b.buckets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].lo != b.buckets[i].lo ||
        a.buckets[i].hi != b.buckets[i].hi ||
        a.buckets[i].count != b.buckets[i].count) {
      return false;
    }
  }
  return true;
}

TEST(LatencyHistogram, RecordNEquivalentToRepeatedRecord) {
  // record_n (the batched-flush path FlashArray and the outcome fold use)
  // must leave the histogram in the same state as n individual records —
  // in the exact regime and after tracker overflow alike.
  LatencyHistogram batched;
  LatencyHistogram individual;
  Rng rng(6);
  for (int round = 0; round < 200; ++round) {
    // First 100 rounds stay within the exact tracker; later rounds push
    // both histograms into bucket fallback.
    const auto v = round < 100 ? rng.between(0, 10)
                               : rng.between(0, 1 << 21);
    const auto n = static_cast<std::uint64_t>(rng.between(1, 50));
    batched.record_n(v, n);
    for (std::uint64_t i = 0; i < n; ++i) individual.record(v);
  }
  batched.record_n(12345, 0);  // no-op
  EXPECT_TRUE(snapshots_identical(batched.snapshot(), individual.snapshot()));
}

TEST(LatencyHistogram, SnapshotDeterministicAcrossThreadCounts) {
  // The same recorded multiset must fold to an identical snapshot whether
  // it was recorded by 1, 2, or 8 threads (in both regimes).
  for (const bool exact_regime : {true, false}) {
    std::vector<std::int64_t> samples;
    Rng rng(5);
    for (int i = 0; i < 30000; ++i) {
      samples.push_back(exact_regime ? rng.between(0, 20)
                                     : rng.between(0, 1 << 22));
    }
    HistogramSnapshot reference;
    for (const int threads : {1, 2, 8}) {
      LatencyHistogram h;
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(threads));
      const std::size_t chunk = samples.size() / static_cast<std::size_t>(threads);
      for (int t = 0; t < threads; ++t) {
        const std::size_t begin = static_cast<std::size_t>(t) * chunk;
        const std::size_t end =
            t == threads - 1 ? samples.size() : begin + chunk;
        workers.emplace_back([&h, &samples, begin, end] {
          for (std::size_t i = begin; i < end; ++i) h.record(samples[i]);
        });
      }
      for (auto& w : workers) w.join();
      const auto snap = h.snapshot();
      EXPECT_EQ(snap.exact, exact_regime);
      if (threads == 1) {
        reference = snap;
      } else {
        EXPECT_TRUE(snapshots_identical(reference, snap))
            << "threads=" << threads << " exact=" << exact_regime;
      }
    }
  }
}

TEST(MetricRegistry, ConcurrentMixedRecordingIsComplete) {
  // Many threads hammering the same named instruments through the registry
  // (the TSan-relevant path: lookups + sharded writes).
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      auto& c = reg.counter("stress.counter");
      auto& h = reg.histogram("stress.hist");
      auto& g = reg.gauge("stress.gauge");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::int64_t>(i % 7));
        g.add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  const auto* c = snap.find_counter("stress.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, kThreads * kPerThread);
  const auto* h = snap.find_histogram("stress.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  ASSERT_TRUE(h->exact);
  ASSERT_EQ(h->values.size(), 7u);
  for (const auto& [value, count] : h->values) {
    // i % 7 over 0..19999 per thread: 20000 = 7·2857 + 1, so value 0
    // appears 2858 times and 1..6 appear 2857 — times kThreads.
    EXPECT_EQ(count, (value == 0 ? 2858u : 2857u) * kThreads) << value;
  }
}

TEST(MetricRegistry, LabelsDistinguishInstrumentsAndFamiliesSum) {
  MetricRegistry reg;
  reg.counter("family.requests", "device=\"0\"").inc(3);
  reg.counter("family.requests", "device=\"1\"").inc(5);
  reg.counter("family.other").inc(11);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_family_total("family.requests"), 8u);
  const auto* d1 = snap.find_counter("family.requests", "device=\"1\"");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->value, 5u);
  EXPECT_EQ(snap.find_counter("family.requests"), nullptr);  // label required
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, RingWrapsOldestFirstAndCountsDropped) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  for (std::int64_t i = 0; i < 12; ++i) {
    tracer.record({.request = i,
                   .start = i * 10,
                   .end = i * 10 + 5,
                   .value = 0,
                   .device = -1,
                   .kind = EventKind::kArrival,
                   .detail = EventDetail::kNone});
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request, static_cast<std::int64_t>(i + 4));
  }
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(8);
  tracer.record({.request = 1});
  EXPECT_TRUE(tracer.events().empty());
  tracer.set_enabled(true);
  tracer.record({.request = 2});
  EXPECT_EQ(tracer.events().size(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters

MetricsSnapshot sample_snapshot() {
  MetricRegistry reg;
  reg.counter("demo.requests", "device=\"0\"").inc(7);
  reg.counter("demo.requests", "device=\"1\"").inc(9);
  reg.gauge("demo.depth").add(4);
  auto& h = reg.histogram("demo.latency_ns");
  h.record(132507);
  h.record(132507);
  h.record(265014);
  return reg.snapshot();
}

TEST(Export, PrometheusFormat) {
  const auto text = to_prometheus(sample_snapshot());
  EXPECT_NE(text.find("# TYPE flashqos_demo_requests_total counter\n"),
            std::string::npos);
  // One TYPE line per family even with several label sets.
  EXPECT_EQ(text.find("# TYPE flashqos_demo_requests_total counter"),
            text.rfind("# TYPE flashqos_demo_requests_total counter"));
  EXPECT_NE(text.find("flashqos_demo_requests_total{device=\"1\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flashqos_demo_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("flashqos_demo_latency_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("flashqos_demo_latency_ns_sum 530028\n"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.50\"} 132507\n"), std::string::npos);
}

TEST(Export, CsvFormat) {
  const auto text = to_csv(sample_snapshot());
  EXPECT_EQ(text.rfind("kind,name,labels,stat,value\n", 0), 0u);
  EXPECT_NE(text.find("counter,demo.requests,\"device=\"\"1\"\"\",value,9\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,count,3\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,p50,132507\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,exact,1\n"),
            std::string::npos);
}

TEST(Export, CsvEscapesCommasQuotesAndNewlines) {
  // RFC 4180: any cell holding a comma, quote, or line break is wrapped in
  // quotes with embedded quotes doubled — a label like tenant="a,b" must
  // survive a round trip through a CSV reader as ONE cell.
  MetricRegistry reg;
  reg.counter("demo.requests", "tenant=\"a,b\"").inc(3);
  reg.gauge("demo.depth", "note=\"line1\nline2\"").add(5);
  const auto text = to_csv(reg.snapshot());
  EXPECT_NE(
      text.find("counter,demo.requests,\"tenant=\"\"a,b\"\"\",value,3\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("gauge,demo.depth,\"note=\"\"line1\nline2\"\"\",value,5\n"),
      std::string::npos);
  // Every row outside a quoted cell still has the fixed column count.
  std::size_t col_commas = 0;
  bool quoted = false;
  std::size_t rows = 0;
  std::size_t bad_rows = 0;
  for (const char c : text) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++col_commas;
    if (c == '\n' && !quoted) {
      ++rows;
      if (col_commas != 4) ++bad_rows;
      col_commas = 0;
    }
  }
  EXPECT_EQ(rows, 3u);  // header + two instruments
  EXPECT_EQ(bad_rows, 0u);
}

TEST(Export, ChromeTraceFormat) {
  std::vector<TraceEvent> events;
  events.push_back({.request = 0,
                    .start = 1000,
                    .end = 1000,
                    .value = 0,
                    .device = -1,
                    .kind = EventKind::kArrival,
                    .detail = EventDetail::kNone});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 1500,
                    .value = 250,
                    .device = -1,
                    .kind = EventKind::kAdmission,
                    .detail = EventDetail::kAdmitted});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 134007,
                    .value = 1,
                    .device = 3,
                    .kind = EventKind::kRetrieval,
                    .detail = EventDetail::kSlotMatched});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 134007,
                    .value = 0,
                    .device = 3,
                    .kind = EventKind::kDeviceService,
                    .detail = EventDetail::kNone});
  const auto json = to_chrome_trace(events);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after the array
  // Device track metadata, the async request span, and the service slice.
  EXPECT_NE(json.find(R"("name":"device 3")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"b")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"e")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("verdict":"admitted")"), std::string::npos);
  EXPECT_NE(json.find(R"("path":"slot_matched")"), std::string::npos);
  // Fractional-microsecond timestamps: 1500 ns -> 1.500 us.
  EXPECT_NE(json.find(R"("ts":1.500)"), std::string::npos);
}

TEST(Export, WriteMetricsPicksFormatFromExtension) {
  const auto snap = sample_snapshot();
  const std::string dir = ::testing::TempDir();
  const std::string prom_path = dir + "/obs_test_metrics.prom";
  const std::string csv_path = dir + "/obs_test_metrics.csv";
  ASSERT_TRUE(write_metrics(snap, prom_path));
  ASSERT_TRUE(write_metrics(snap, csv_path));
  std::ifstream prom(prom_path);
  std::string first;
  std::getline(prom, first);
  EXPECT_EQ(first.rfind("# TYPE", 0), 0u);
  std::ifstream csv(csv_path);
  std::getline(csv, first);
  EXPECT_EQ(first, "kind,name,labels,stat,value");
}

// ---------------------------------------------------------------------------
// Pipeline-driven consistency (compiled out with FLASHQOS_OBS=OFF)

TEST(PipelineObservability, CountersMatchReplayOutcomes) {
  if constexpr (!kEnabled) {
    GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  } else {
    auto& reg = MetricRegistry::global();
    reg.reset();
    const auto d = design::make_9_3_1();
    const decluster::DesignTheoretic scheme(d, true);
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 4;
    sp.total_requests = 1000;
    const auto t = trace::generate_synthetic(sp);
    const auto result =
        core::QosPipeline(scheme, core::PipelineConfig{}).run(t);
    const auto snap = reg.snapshot();
    const auto* requests = snap.find_counter("pipeline.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, result.outcomes.size());
    const auto* resp = snap.find_histogram("pipeline.response_ns");
    ASSERT_NE(resp, nullptr);
    const auto* reads = snap.find_counter("pipeline.reads_served");
    ASSERT_NE(reads, nullptr);
    EXPECT_EQ(resp->count, reads->value);
    EXPECT_EQ(snap.counter_family_total("flashsim.device.requests"),
              snap.find_counter("flashsim.completions")->value);
    reg.reset();
  }
}

// Engine work counter: each dispatch instant maps every member of its
// group once, and a deferred request rejoins a later group. On a
// single-tenant deterministic backlog (bursts above S, no faults) that
// makes map calls = requests + deferral events — the O(backlog) re-map
// cost of carrying deferred requests through the dispatch queue.
TEST(PipelineObservability, MapCallsCountEveryDeferralPass) {
  if constexpr (!kEnabled) {
    GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  } else {
    auto& reg = MetricRegistry::global();
    reg.reset();
    const auto d = design::make_9_3_1();
    const decluster::DesignTheoretic scheme(d, true);
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 12;  // S = 5 for (9,3,1) at M = 1
    sp.total_requests = 600;
    const auto t = trace::generate_synthetic(sp);
    core::PipelineConfig cfg;
    cfg.admission = core::AdmissionMode::kDeterministic;
    cfg.mapping = core::MappingMode::kModulo;
    const auto result = core::QosPipeline(scheme, cfg).run(t);
    const auto snap = reg.snapshot();
    const auto* deferrals = snap.find_counter("pipeline.deferral_events");
    const auto* map_calls = snap.find_counter("pipeline.work.map_calls");
    ASSERT_NE(deferrals, nullptr);
    ASSERT_NE(map_calls, nullptr);
    EXPECT_GT(result.overall.deferred, 0u);
    EXPECT_GT(deferrals->value, result.outcomes.size());
    EXPECT_EQ(map_calls->value, result.outcomes.size() + deferrals->value);
    reg.reset();
  }
}

}  // namespace
}  // namespace flashqos::obs
