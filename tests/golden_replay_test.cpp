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

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/parallel_replay.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "core/sampler.hpp"
#include "design/constructions.hpp"
#include "fault/fault_plan.hpp"
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

// ---- branch legs ---------------------------------------------------------
// One snapshot per engine branch the legs above leave unpinned. Each leg
// asserts from its own outcomes that it reaches the branch it is named
// after, so a fixture that drifts off its branch fails loudly instead of
// pinning nothing.

std::size_t count_path(const core::PipelineResult& r, core::RetrievalPath p) {
  std::size_t n = 0;
  for (const auto& o : r.outcomes) n += o.path == p ? 1 : 0;
  return n;
}

// Snapshot the serial replay and require the sweep slot to match it.
void check_leg(const std::string& stem, const core::PipelineConfig& cfg,
               const trace::Trace& t, const core::PipelineResult& serial) {
  const auto snapshot = format_result(serial);
  check_golden(stem, snapshot);
  EXPECT_EQ(format_result(swept(cfg, t)), snapshot);
}

// Every 9th event becomes a write, so the replicated-program path runs
// beside the reads.
trace::Trace with_writes(trace::Trace t) {
  for (std::size_t i = 0; i < t.events.size(); i += 9) {
    t.events[i].is_read = false;
  }
  return t;
}

// Same-instant bursts of 8 distinct buckets against S = 5: every
// interval overflows the deterministic budget.
trace::Trace overload_trace() {
  auto t = trace::generate_synthetic({.bucket_pool = 36,
                                      .requests_per_interval = 8,
                                      .total_requests = 480,
                                      .seed = 11});
  t.report_interval = from_ms(1.0);
  return t;
}

const std::vector<double>& p_table931() {
  static const auto p = core::sample_optimal_probabilities(
      scheme931(), 16, {.samples_per_size = 400});
  return p;
}

core::PipelineConfig statistical_cfg(core::RetrievalMode mode) {
  core::PipelineConfig cfg;
  cfg.retrieval = mode;
  cfg.admission = core::AdmissionMode::kStatistical;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.epsilon = 0.05;
  cfg.p_table = p_table931();
  return cfg;
}

TEST(GoldenReplay, BurstyPrimaryOnly) {
  const auto t = load_trace("bursty", from_ms(4.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kPrimary), 0u);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kWrite), 0u);
  EXPECT_GT(serial.overall.deferred, 0u);
  check_leg("bursty_primary_only", cfg, t, serial);
}

TEST(GoldenReplay, MultiTenantPrimaryOnly) {
  const auto t = tenant_trace();
  auto cfg = tenant_cfg();
  cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kPrimary), 0u);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kShed), 0u);
  check_leg("multi_tenant_primary_only", cfg, t, serial);
}

// Online statistical admission: slot-matched up to S, then the surplus
// path (earliest-finishing replica while Q < epsilon), then deferral.
TEST(GoldenReplay, OverloadOnlineStatistical) {
  const auto t = overload_trace();
  const auto cfg = statistical_cfg(core::RetrievalMode::kOnline);
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSlotMatched), 0u);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSurplus), 0u);
  EXPECT_GT(serial.overall.deferred, 0u);
  check_leg("overload_online_statistical", cfg, t, serial);
}

TEST(GoldenReplay, OverloadAlignedStatistical) {
  const auto t = overload_trace();
  const auto cfg = statistical_cfg(core::RetrievalMode::kIntervalAligned);
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kAlignedDtr) +
                count_path(serial, core::RetrievalPath::kAlignedMaxFlow),
            0u);
  check_leg("overload_aligned_statistical", cfg, t, serial);
}

// WFQ with no admission: matched heads first, then refused heads
// overflow inline to their earliest-finishing replica.
TEST(GoldenReplay, MultiTenantOnlineNoAdmission) {
  const auto t = tenant_trace();
  auto cfg = tenant_cfg();
  cfg.admission = core::AdmissionMode::kNone;
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSlotMatched), 0u);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSurplus), 0u);
  check_leg("multi_tenant_online_none", cfg, t, serial);
}

TEST(GoldenReplay, MultiTenantWrites) {
  const auto t = with_writes(tenant_trace());
  const auto cfg = tenant_cfg();
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kWrite), 0u);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSlotMatched), 0u);
  check_leg("multi_tenant_writes", cfg, t, serial);
}

// One plan that reaches every fault branch on (9,3,1), whose blocks
// {0,1,2}, {3,4,5} and {6,7,8} are replica sets (a whole block down
// strands its buckets):
//  * a latency spike on device 4 before any outage;
//  * 0 and 2 down for a few intervals while 1 fails for good and is
//    rebuilt onto a hot spare: stranded requests retry and get served;
//  * 3, 4, 5 down for longer than the retry timeout: stranded requests
//    time out, the last ones retry in time;
//  * 6, 7, 8 down for good: no survivor, the rebuild aborts and stranded
//    requests fail.
fault::FaultPlan branch_fault_plan() {
  fault::FaultPlan plan;
  plan.spikes = {{.device = 4,
                  .start = from_ms(0.3),
                  .end = from_ms(0.9),
                  .factor = 3.0}};
  plan.outages = {
      {.device = 0, .fail_at = from_ms(1.0), .recover_at = from_ms(1.6)},
      {.device = 1, .fail_at = from_ms(1.0)},
      {.device = 2, .fail_at = from_ms(1.0), .recover_at = from_ms(1.6)},
      {.device = 3, .fail_at = from_ms(2.5), .recover_at = from_ms(4.5)},
      {.device = 4, .fail_at = from_ms(2.5), .recover_at = from_ms(4.5)},
      {.device = 5, .fail_at = from_ms(2.5), .recover_at = from_ms(4.5)},
      {.device = 6, .fail_at = from_ms(5.5)},
      {.device = 7, .fail_at = from_ms(5.5)},
      {.device = 8, .fail_at = from_ms(5.5)},
  };
  plan.rebuild.pages_per_second = 20000.0;
  plan.retry.timeout = from_ms(1.0);
  return plan;
}

// What every fault leg must show in its outcomes: retried requests (all
// replicas down at their first dispatch attempt, yet served), timeouts
// (failed although a replica recovers later), permanent failures and
// writes; and in its compiled plan, a completed hot-spare rebuild.
void expect_fault_branches(const core::PipelineConfig& cfg,
                           const trace::Trace& t,
                           const core::PipelineResult& r) {
  const auto compiled = fault::compile(cfg.faults, scheme931(),
                                       t.events.back().time + cfg.qos_interval);
  ASSERT_EQ(compiled.rebuilds.size(), 4u);
  EXPECT_TRUE(compiled.rebuilds[0].completed);
  EXPECT_GT(compiled.reads.size(), 0u);
  const auto down_at = [&](DeviceId d, SimTime at) {
    for (const auto& w : compiled.outages) {
      if (w.device == d && w.fail_at <= at && at < w.recover_at) return true;
    }
    return false;
  };
  const auto recovers = [&](DeviceId d) {
    for (const auto& w : compiled.outages) {
      if (w.device == d && w.recover_at == fault::DeviceFailure::kNeverRecovers) {
        return false;
      }
    }
    return true;
  };
  std::size_t retried = 0;
  std::size_t timed_out = 0;
  std::size_t never_recovers = 0;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const auto& o = r.outcomes[i];
    const auto reps = scheme931().replicas(
        static_cast<BucketId>(t.events[i].block % scheme931().buckets()));
    if (o.path == core::RetrievalPath::kFailed) {
      bool any_recovers = false;
      for (const auto d : reps) any_recovers |= recovers(d);
      ++(any_recovers ? timed_out : never_recovers);
      continue;
    }
    const SimTime first = cfg.retrieval == core::RetrievalMode::kOnline
                              ? o.arrival
                              : next_interval_start(o.arrival, cfg.qos_interval);
    bool all_down = true;
    for (const auto d : reps) all_down &= down_at(d, first);
    if (all_down) ++retried;
  }
  EXPECT_GT(retried, 0u);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(never_recovers, 0u);
  EXPECT_GT(count_path(r, core::RetrievalPath::kWrite), 0u);
}

trace::Trace fault_trace() {
  auto t = with_writes(trace::generate_synthetic({.bucket_pool = 36,
                                                  .requests_per_interval = 5,
                                                  .total_requests = 300,
                                                  .seed = 13}));
  t.report_interval = from_ms(1.0);
  return t;
}

core::PipelineConfig fault_cfg(core::RetrievalMode mode) {
  core::PipelineConfig cfg;
  cfg.retrieval = mode;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.faults = branch_fault_plan();
  return cfg;
}

TEST(GoldenReplay, FaultsOnlineDet) {
  const auto t = fault_trace();
  const auto cfg = fault_cfg(core::RetrievalMode::kOnline);
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  expect_fault_branches(cfg, t, serial);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSlotMatched), 0u);
  check_leg("faults_online_det", cfg, t, serial);
}

TEST(GoldenReplay, FaultsAlignedDet) {
  const auto t = fault_trace();
  const auto cfg = fault_cfg(core::RetrievalMode::kIntervalAligned);
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  expect_fault_branches(cfg, t, serial);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kDegraded), 0u);
  check_leg("faults_aligned_det", cfg, t, serial);
}

// A lighter tenant load over pools that cover all 36 buckets, so
// every block the fault plan takes down is in some tenant's pool.
trace::Trace tenant_fault_trace() {
  trace::MultiTenantParams mt;
  mt.intervals = 48;
  mt.tenants = {
      {.requests_per_interval = 2, .bucket_pool = 12},
      {.requests_per_interval = 1, .bucket_pool = 12},
      {.requests_per_interval = 3, .bucket_pool = 12},
  };
  mt.seed = 5;
  mt.jitter_slots = 3;
  return with_writes(trace::generate_multi_tenant(mt));
}

TEST(GoldenReplay, MultiTenantFaultsOnline) {
  const auto t = tenant_fault_trace();
  auto cfg = tenant_cfg();
  cfg.faults = branch_fault_plan();
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  expect_fault_branches(cfg, t, serial);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kSlotMatched), 0u);
  check_leg("multi_tenant_faults_online", cfg, t, serial);
}

TEST(GoldenReplay, MultiTenantFaultsAligned) {
  const auto t = tenant_fault_trace();
  auto cfg = tenant_cfg();
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  cfg.faults = branch_fault_plan();
  const auto serial = core::QosPipeline(scheme931(), cfg).run(t);
  expect_fault_branches(cfg, t, serial);
  EXPECT_GT(count_path(serial, core::RetrievalPath::kDegraded), 0u);
  check_leg("multi_tenant_faults_aligned", cfg, t, serial);
}

}  // namespace
