// Determinism-equivalence suite for the parallel replay engine: every
// sweep slot it produces must be bit-identical to the serial QosPipeline —
// per mode combination, under failure windows, for any thread count, and
// whatever else runs beside it in the batch.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/parallel_replay.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"
#include "verify/replay_equivalence.hpp"

using namespace flashqos;

namespace {

const decluster::DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const decluster::DesignTheoretic s(d, true);
  return s;
}

trace::Trace exchange_small() {
  return trace::generate_workload(trace::exchange_params(0.02, 2012));
}

trace::Trace synthetic_small() {
  trace::SyntheticParams p;
  p.bucket_pool = scheme931().buckets();
  p.requests_per_interval = 4;
  p.total_requests = 1500;
  p.seed = 7;
  return trace::generate_synthetic(p);
}

core::PipelineConfig aligned_fim() {
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kFim;
  return cfg;
}

void expect_identical(const core::PipelineResult& serial,
                      const core::PipelineResult& parallel, const char* what) {
  std::string why;
  EXPECT_TRUE(verify::results_identical(serial, parallel, &why))
      << what << ": " << why;
}

// Replay `jobs` as one run_jobs batch at 1, 2 and 8 threads and compare
// every slot with that job's serial run(). Returns the serial results.
std::vector<core::PipelineResult> expect_sweeps_match_serial(
    std::span<const core::ReplayJob> jobs, const char* what) {
  std::vector<core::PipelineResult> serial;
  for (const auto& j : jobs) {
    serial.push_back(core::QosPipeline(*j.scheme, j.config).run(*j.trace));
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::ParallelReplayEngine engine({.threads = threads});
    const auto swept = engine.run_jobs(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::ostringstream where;
      where << what << " job " << i << " threads=" << threads;
      expect_identical(serial[i], swept.at(i), where.str().c_str());
    }
  }
  return serial;
}

// The full oracle: every {RetrievalMode × AdmissionMode × MappingMode ×
// SchedulerMode} combination on a synthetic trace and on a truncated
// Exchange-style trace, plus failure windows, as one run_jobs batch. One gtest
// assertion per oracle check so a regression names the exact combination.
TEST(ParallelReplayEquivalence, AllModeCombinations) {
  const auto report = verify::verify_replay_equivalence(
      scheme931(), {.threads = 4, .trace_scale = 0.02, .seed = 2012,
                    .p_samples = 120});
  for (const auto& check : report.checks()) {
    EXPECT_TRUE(check.passed) << check.name << ": " << check.detail;
  }
  EXPECT_GE(report.checks().size(), 2u * 3u * 2u * 2u * 2u);
}

// Copies of one aligned+FIM job replay concurrently; each copy mines its
// own FIM slices inline and must match the serial run exactly.
TEST(ParallelReplayEquivalence, AlignedFimExchangeDirect) {
  const auto t = exchange_small();
  const std::vector<core::ReplayJob> jobs(
      3, core::ReplayJob{&scheme931(), &t, aligned_fim()});
  const auto serial = expect_sweeps_match_serial(jobs, "aligned/det/fim");
  // Sanity that the comparison is not vacuous: the trace actually
  // exercises deferrals and FIM matches.
  EXPECT_GT(serial[0].overall.requests, 500u);
  EXPECT_GT(serial[0].overall.fim_match_rate, 0.0);
}

// The aligned+FIM job beside jobs of other lengths and modes, so the
// completion order changes with the thread count; slots must not.
TEST(ParallelReplayEquivalence, ThreadCountInvariance) {
  const auto t = exchange_small();
  auto online = aligned_fim();
  online.retrieval = core::RetrievalMode::kOnline;
  auto modulo = aligned_fim();
  modulo.mapping = core::MappingMode::kModulo;
  const std::vector<core::ReplayJob> jobs{{&scheme931(), &t, aligned_fim()},
                                          {&scheme931(), &t, online},
                                          {&scheme931(), &t, modulo}};
  expect_sweeps_match_serial(jobs, "exchange modes");
}

TEST(ParallelReplayEquivalence, DeviceFailureWindows) {
  const auto t = synthetic_small();
  std::vector<core::ReplayJob> jobs;
  for (const auto retrieval : {core::RetrievalMode::kIntervalAligned,
                               core::RetrievalMode::kOnline}) {
    auto cfg = aligned_fim();
    cfg.retrieval = retrieval;
    cfg.mapping = core::MappingMode::kModulo;  // bucket-domain trace
    cfg.faults.outages.push_back(
        {.device = 2, .fail_at = 0, .recover_at = from_ms(50.0)});
    cfg.faults.outages.push_back({.device = 5,
                            .fail_at = from_ms(10.0),
                            .recover_at = core::DeviceFailure::kNeverRecovers});
    jobs.push_back({&scheme931(), &t, cfg});
  }
  expect_sweeps_match_serial(jobs, "failures");
}

// Randomized full fault plans — scripted outages plus seeded transient /
// spike generators, rebuild, and retry timeouts — must also replay
// bit-identically: the compiled schedule is a pure function of the config,
// so every shard sees the same faults as its serial twin.
TEST(ParallelReplayEquivalence, RandomizedFaultPlans) {
  const auto t = synthetic_small();
  Rng g(331);
  std::vector<core::ReplayJob> jobs;
  for (int round = 0; round < 4; ++round) {
    auto cfg = aligned_fim();
    cfg.retrieval = round % 2 == 0 ? core::RetrievalMode::kOnline
                                   : core::RetrievalMode::kIntervalAligned;
    cfg.mapping = core::MappingMode::kModulo;  // bucket-domain trace
    cfg.faults.seed = g.below(1000);
    cfg.faults.transient = {.count = static_cast<std::uint32_t>(1 + g.below(3)),
                            .mean_duration = from_ms(2.0)};
    cfg.faults.latency_spike = {
        .count = static_cast<std::uint32_t>(g.below(3)),
        .mean_duration = from_ms(1.0),
        .factor = 2.0 + static_cast<double>(g.below(3))};
    if (round % 2 == 0) {
      cfg.faults.outages.push_back(
          {.device = static_cast<DeviceId>(g.below(9)),
           .fail_at = from_ms(5.0),
           .recover_at = core::DeviceFailure::kNeverRecovers});
      cfg.faults.rebuild.pages_per_second = 30000.0;
    }
    if (round == 3) cfg.faults.retry.timeout = from_ms(3.0);
    jobs.push_back({&scheme931(), &t, cfg});
  }
  expect_sweeps_match_serial(jobs, "fault plan round");
}

// Multi-tenant front end: the WFQ scheduler runs inside each job's replay,
// so tenant verdicts, tallies, and dispatch order must be
// thread-count-invariant exactly like every other stage. The mix includes
// a pulsed tenant (idles and re-enters backlog, exercising renormalization)
// and a flooder that sheds, so the tenant fields being compared are live.
trace::Trace multi_tenant_small() {
  trace::MultiTenantParams mt;
  mt.intervals = 120;
  mt.tenants = {
      {.requests_per_interval = 2, .bucket_pool = 8},
      {.requests_per_interval = 3, .bucket_pool = 8, .period = 3},
      {.requests_per_interval = 7, .bucket_pool = 12},
  };
  mt.seed = 23;
  mt.jitter_slots = 2;
  return trace::generate_multi_tenant(mt);
}

core::PipelineConfig multi_tenant_cfg(core::RetrievalMode retrieval) {
  core::PipelineConfig cfg;
  cfg.retrieval = retrieval;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;  // bucket-domain trace
  cfg.tenants = {
      {.name = "gold", .weight = 3.0, .reservation = 2},
      {.name = "pulse", .weight = 2.0, .reservation = 0},
      {.name = "flood", .weight = 1.0, .reservation = 0,
       .queue_capacity = 8, .mark_threshold = 6},
  };
  return cfg;
}

TEST(ParallelReplayEquivalence, MultiTenantThreadCountInvariance) {
  const auto t = multi_tenant_small();
  std::vector<core::ReplayJob> jobs;
  for (const auto retrieval : {core::RetrievalMode::kOnline,
                               core::RetrievalMode::kIntervalAligned}) {
    jobs.push_back({&scheme931(), &t, multi_tenant_cfg(retrieval)});
  }
  for (const auto& serial : expect_sweeps_match_serial(jobs, "tenants")) {
    // Not vacuous: backpressure fired and tenant tallies are non-trivial.
    EXPECT_GT(serial.tenant_usage[2].shed, 0u);
    EXPECT_GT(serial.tenant_usage[2].marked, 0u);
    EXPECT_EQ(serial.tenant_usage[0].shed, 0u);
  }
}

TEST(ParallelReplaySweep, MultiTenantJobsMatchSerial) {
  const auto tenant_trace = multi_tenant_small();
  const auto plain_trace = synthetic_small();
  core::PipelineConfig plain = aligned_fim();
  plain.mapping = core::MappingMode::kModulo;
  // Tenant and single-tenant jobs interleave in one sweep; slot contents
  // must match their per-job serial runs either way.
  const std::vector<core::ReplayJob> jobs{
      {&scheme931(), &tenant_trace,
       multi_tenant_cfg(core::RetrievalMode::kOnline)},
      {&scheme931(), &plain_trace, plain},
      {&scheme931(), &tenant_trace,
       multi_tenant_cfg(core::RetrievalMode::kIntervalAligned)},
  };
  core::ParallelReplayEngine engine({.threads = 4});
  const auto swept = engine.run_jobs(jobs);
  ASSERT_EQ(swept.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto serial =
        core::QosPipeline(*jobs[i].scheme, jobs[i].config).run(*jobs[i].trace);
    std::ostringstream what;
    what << "tenant job " << i;
    expect_identical(serial, swept[i], what.str().c_str());
  }
}

TEST(ParallelReplaySweep, MatchesPerJobSerialRuns) {
  const auto exchange = exchange_small();
  const auto synthetic = synthetic_small();
  std::vector<core::ReplayJob> jobs;
  for (const auto retrieval : {core::RetrievalMode::kOnline,
                               core::RetrievalMode::kIntervalAligned}) {
    for (const auto mapping :
         {core::MappingMode::kFim, core::MappingMode::kModulo}) {
      auto cfg = aligned_fim();
      cfg.retrieval = retrieval;
      cfg.mapping = mapping;
      jobs.push_back({&scheme931(), &exchange, cfg});
      jobs.push_back({&scheme931(), &synthetic, cfg});
    }
  }
  core::ParallelReplayEngine engine({.threads = 4});
  const auto swept = engine.run_jobs(jobs);
  ASSERT_EQ(swept.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto serial =
        core::QosPipeline(*jobs[i].scheme, jobs[i].config).run(*jobs[i].trace);
    std::ostringstream what;
    what << "job " << i;
    expect_identical(serial, swept[i], what.str().c_str());
  }
}

// Repeated sweeps over the same jobs must agree exactly — completion order
// varies, slot contents must not.
TEST(ParallelReplaySweep, RepeatedSweepsAreStable) {
  const auto t = synthetic_small();
  std::vector<core::ReplayJob> jobs;
  for (int i = 0; i < 6; ++i) {
    auto cfg = aligned_fim();
    cfg.access_budget = 1 + static_cast<std::uint32_t>(i % 3);
    jobs.push_back({&scheme931(), &t, cfg});
  }
  core::ParallelReplayEngine engine({.threads = 4});
  const auto first = engine.run_jobs(jobs);
  const auto second = engine.run_jobs(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::ostringstream what;
    what << "repeat job " << i;
    expect_identical(first[i], second[i], what.str().c_str());
  }
}

namespace sweep_configs {

Config make(const std::string& body) {
  std::istringstream in(body);
  return Config::parse(in);
}

}  // namespace sweep_configs

TEST(ParallelReplaySweep, RunExperimentsMatchesSerialRunExperiment) {
  std::vector<Config> cfgs;
  cfgs.push_back(sweep_configs::make(
      "[workload]\nkind = synthetic\ntotal_requests = 800\nseed = 3\n"));
  cfgs.push_back(sweep_configs::make(
      "[pipeline]\nretrieval = aligned\n[workload]\nkind = exchange\n"
      "scale = 0.01\nseed = 9\n"));
  cfgs.push_back(sweep_configs::make(
      "[design]\nname = (13,3,1)\n[workload]\nkind = synthetic\n"
      "bucket_pool = 52\ntotal_requests = 600\nseed = 11\n"));
  const auto swept = core::run_experiments(cfgs, 4);
  ASSERT_EQ(swept.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto serial = core::run_experiment(cfgs[i]);
    std::ostringstream what;
    what << "config " << i;
    expect_identical(serial, swept[i], what.str().c_str());
  }
}

// Satellite regression: a worker-thrown error in the sweep's batch-submit
// path must reach the submitter as the exception, not kill a worker
// thread. An unknown design name throws inside build_experiment on a pool
// worker; run_experiments rethrows the lowest-index error.
TEST(ParallelReplaySweep, WorkerExceptionPropagatesToSubmitter) {
  std::vector<Config> cfgs;
  cfgs.push_back(sweep_configs::make(
      "[workload]\nkind = synthetic\ntotal_requests = 200\n"));
  cfgs.push_back(sweep_configs::make("[design]\nname = no-such-design\n"));
  cfgs.push_back(sweep_configs::make(
      "[workload]\nkind = synthetic\ntotal_requests = 200\n"));
  try {
    (void)core::run_experiments(cfgs, 4);
    FAIL() << "invalid config in a sweep must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-design"), std::string::npos)
        << e.what();
  }
}

// The statistical-admission P_k table must be identical whether sampled
// serially or sharded (per-shard RNG streams derive from shard_seed).
TEST(ParallelReplayRng, ShardSeedStreamsAreThreadCountInvariant) {
  const auto serial = core::sample_optimal_probabilities(
      scheme931(), 12, {.samples_per_size = 300, .seed = 5, .threads = 1});
  const auto sharded = core::sample_optimal_probabilities(
      scheme931(), 12, {.samples_per_size = 300, .seed = 5, .threads = 4});
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k], sharded[k]) << "P_" << k;
  }
  EXPECT_NE(shard_seed(5, 1), shard_seed(5, 2));
  EXPECT_NE(shard_seed(5, 1), shard_seed(6, 1));
}

}  // namespace
