// Golden-trace regression suite: canned DiskSim-ASCII fixtures under
// tests/golden/ replayed through the pipeline, with the full formatted
// metric snapshot diffed byte-for-byte against a committed .expected.txt.
// Any change to admission, scheduling, mapping, or the flash timing model
// shows up as a readable text diff instead of a silent drift — and a
// run_jobs sweep slot must reproduce the same snapshot bit for bit. The last
// line digests every per-request outcome, so the snapshots also pin the
// engine's request-level behaviour, not just its reports.
//
// Regenerating after an *intended* behaviour change:
//   FLASHQOS_GOLDEN_REGEN=1 ./build/tests/golden_replay_test
// rewrites the .expected.txt files in the source tree; review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/parallel_replay.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/disksim_format.hpp"
#include "trace/synthetic.hpp"
#include "util/time.hpp"
#include "verify/replay_equivalence.hpp"

#ifndef FLASHQOS_GOLDEN_DIR
#error "build must define FLASHQOS_GOLDEN_DIR"
#endif

using namespace flashqos;

namespace {

const decluster::DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const decluster::DesignTheoretic s(d, true);
  return s;
}

trace::Trace load_trace(const std::string& stem, SimTime report_interval) {
  const std::string path = std::string(FLASHQOS_GOLDEN_DIR) + "/" + stem + ".trace";
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open fixture " << path;
  return trace::read_disksim_ascii(in, stem, 1, report_interval);
}

// Deterministic plain-text rendering of a PipelineResult. Fixed six-decimal
// precision: enough to print kPageReadLatency (0.132507 ms) exactly, and
// the engines guarantee bit-identical doubles so the text is stable.
std::string format_result(const core::PipelineResult& r) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(6);
  const auto row = [&out](const char* tag, const core::IntervalReport& v) {
    out << tag << " requests=" << v.requests << " avg_resp=" << v.avg_response_ms
        << " max_resp=" << v.max_response_ms << " avg_e2e=" << v.avg_e2e_ms
        << " max_e2e=" << v.max_e2e_ms << " deferred=" << v.deferred
        << " pct_deferred=" << v.pct_deferred << " avg_delay=" << v.avg_delay_ms
        << " fim_match=" << v.fim_match_rate << " failed=" << v.failed
        << " writes=" << v.writes << " avg_write=" << v.avg_write_ms << "\n";
  };
  for (std::size_t i = 0; i < r.intervals.size(); ++i) {
    out << "interval " << std::setw(3) << i;
    row("", r.intervals[i]);
  }
  out << "overall    ";
  row("", r.overall);
  out << "deadline_violations=" << r.deadline_violations << "\n";
  // Multi-tenant runs append one tally line per tenant; single-tenant
  // snapshots are byte-identical to builds without the tenant subsystem.
  for (std::size_t k = 0; k < r.tenant_usage.size(); ++k) {
    const auto& u = r.tenant_usage[k];
    out << "tenant " << k << " arrivals=" << u.arrivals
        << " admitted=" << u.admitted << " shed=" << u.shed
        << " marked=" << u.marked << " max_depth=" << u.max_depth << "\n";
  }
  // Per-request anchor: an FNV-1a digest over every RequestOutcome field,
  // so a drift in any single outcome shows even when the reports agree.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& o : r.outcomes) {
    mix(static_cast<std::uint64_t>(o.arrival));
    mix(static_cast<std::uint64_t>(o.dispatch));
    mix(static_cast<std::uint64_t>(o.start));
    mix(static_cast<std::uint64_t>(o.finish));
    mix(o.device);
    mix(o.fim_matched ? 1 : 0);
    mix(o.failed ? 1 : 0);
    mix(o.is_write ? 1 : 0);
    mix(static_cast<std::uint64_t>(o.path));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.q_ppm)));
    mix(o.tenant);
    mix(o.wfq_marked ? 1 : 0);
  }
  out << "outcomes n=" << r.outcomes.size() << " fnv64=" << std::hex
      << std::setw(16) << std::setfill('0') << h << std::dec
      << std::setfill(' ') << "\n";
  return out.str();
}

// The same replay as one job of a run_jobs sweep on a 4-thread pool.
core::PipelineResult swept(const core::PipelineConfig& cfg,
                           const trace::Trace& t) {
  const core::ReplayJob job{&scheme931(), &t, cfg};
  return core::ParallelReplayEngine({.threads = 4}).run_jobs({&job, 1}).at(0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string();
}

// Compare against the committed snapshot, or rewrite it under
// FLASHQOS_GOLDEN_REGEN=1. On mismatch, report the first diverging line.
void check_golden(const std::string& stem, const std::string& actual) {
  const std::string path =
      std::string(FLASHQOS_GOLDEN_DIR) + "/" + stem + ".expected.txt";
  if (std::getenv("FLASHQOS_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot regenerate " << path;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing; run with FLASHQOS_GOLDEN_REGEN=1 to create it";
  if (actual == expected) return;
  std::istringstream a(actual), e(expected);
  std::string al, el;
  std::size_t line = 1;
  while (std::getline(e, el)) {
    if (!std::getline(a, al)) al = "<eof>";
    if (al != el) break;
    ++line;
  }
  FAIL() << stem << " snapshot drifted at line " << line << "\n  expected: " << el
         << "\n  actual:   " << al
         << "\nIf intended, regen with FLASHQOS_GOLDEN_REGEN=1 and review.";
}

// Light uniform load, online mode: every request is served the moment it
// arrives, so per-interval avg and max response sit exactly on the flash
// page-read latency — the flat 0.132507 ms line of the paper's Figs. 8/9.
TEST(GoldenReplay, FlatlineOnlineModulo) {
  const auto t = load_trace("flatline", from_ms(3.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.mapping = core::MappingMode::kModulo;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);

  ASSERT_EQ(serial.intervals.size(), 16u);
  for (const auto& iv : serial.intervals) {
    // Exact equality, not near: the flat line is a determinism claim.
    EXPECT_EQ(iv.avg_response_ms, 0.132507);
    EXPECT_EQ(iv.max_response_ms, 0.132507);
    EXPECT_EQ(iv.deferred, 0u);
  }
  EXPECT_EQ(serial.overall.avg_response_ms, 0.132507);
  EXPECT_EQ(serial.deadline_violations, 0u);

  const auto snapshot = format_result(serial);
  check_golden("flatline_online_modulo", snapshot);
  EXPECT_EQ(format_result(swept(cfg, t)), snapshot);
}

// Bursty co-arrivals under interval-aligned retrieval with deterministic
// admission and FIM mapping: deferrals, write traffic, and FIM matches all
// live in this snapshot.
TEST(GoldenReplay, BurstyAlignedDetFim) {
  const auto t = load_trace("bursty", from_ms(4.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kFim;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);

  // The fixture is built to exercise the interesting counters; if these go
  // to zero the snapshot stops guarding anything.
  EXPECT_GT(serial.overall.deferred, 0u);
  EXPECT_GT(serial.overall.writes, 0u);
  EXPECT_GT(serial.overall.fim_match_rate, 0.0);

  const auto snapshot = format_result(serial);
  check_golden("bursty_aligned_det_fim", snapshot);

  const auto parallel = swept(cfg, t);
  std::string why;
  EXPECT_TRUE(verify::results_identical(serial, parallel, &why)) << why;
  EXPECT_EQ(format_result(parallel), snapshot);
}

// Same bursty fixture through the online path — the mode Table III uses —
// so both retrieval engines have a pinned snapshot.
TEST(GoldenReplay, BurstyOnlineDetFim) {
  const auto t = load_trace("bursty", from_ms(4.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kFim;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  const auto snapshot = format_result(serial);
  check_golden("bursty_online_det_fim", snapshot);
  EXPECT_EQ(format_result(swept(cfg, t)), snapshot);
}

// Multi-tenant WFQ front end fixtures: the trace is generated in-code
// (trace::generate_multi_tenant is seeded and deterministic), only the
// snapshot is committed. Jittered arrivals push dispensing off the
// interval boundaries, so the wake machinery and mid-interval budget
// draws are all pinned by the snapshot.
core::PipelineConfig tenant_cfg() {
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.tenants = {
      {.name = "gold", .weight = 2.0, .reservation = 2,
       .queue_capacity = 8, .mark_threshold = 6},
      {.name = "silver", .weight = 1.0, .reservation = 0,
       .queue_capacity = 8, .mark_threshold = 6},
      {.name = "flood", .weight = 1.0, .reservation = 0,
       .queue_capacity = 6, .mark_threshold = 4},
  };
  return cfg;
}

trace::Trace tenant_trace() {
  trace::MultiTenantParams mt;
  mt.intervals = 40;
  mt.tenants = {
      {.requests_per_interval = 2, .bucket_pool = 8},
      {.requests_per_interval = 1, .bucket_pool = 8},
      {.requests_per_interval = 7, .bucket_pool = 12},
  };
  mt.seed = 5;
  mt.jitter_slots = 3;
  return trace::generate_multi_tenant(mt);
}

TEST(GoldenReplay, MultiTenantOnlineDet) {
  const auto t = tenant_trace();
  const auto cfg = tenant_cfg();
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);

  // The fixture must exercise the whole front end, or the snapshot stops
  // guarding anything: backpressure (marks and sheds on the flooder) and
  // an untouched reserved tenant.
  EXPECT_GT(serial.tenant_usage[2].shed, 0u);
  EXPECT_GT(serial.tenant_usage[2].marked, 0u);
  EXPECT_EQ(serial.tenant_usage[0].shed, 0u);
  EXPECT_EQ(serial.tenant_usage[0].admitted, serial.tenant_usage[0].arrivals);

  const auto snapshot = format_result(serial);
  check_golden("multi_tenant_online_det", snapshot);

  // Tenant tallies must survive the sweep bit for bit.
  const auto parallel = swept(cfg, t);
  std::string why;
  EXPECT_TRUE(verify::results_identical(serial, parallel, &why)) << why;
  EXPECT_EQ(format_result(parallel), snapshot);
}

TEST(GoldenReplay, MultiTenantAlignedDet) {
  const auto t = tenant_trace();
  auto cfg = tenant_cfg();
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  const auto snapshot = format_result(serial);
  check_golden("multi_tenant_aligned_det", snapshot);

  const auto parallel = swept(cfg, t);
  std::string why;
  EXPECT_TRUE(verify::results_identical(serial, parallel, &why)) << why;
  EXPECT_EQ(format_result(parallel), snapshot);
}

}  // namespace
