#include "verify/replay_equivalence.hpp"

#include <sstream>
#include <vector>

#include "core/sampler.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos::verify {
namespace {

/// Compare one double field exactly. The engines must follow the same
/// floating-point path; a ULP of drift means accumulation order leaked.
bool field_eq(double a, double b, const char* name, std::size_t where,
              std::string* why) {
  if (a == b) return true;
  if (why != nullptr) {
    std::ostringstream ss;
    ss.precision(17);
    ss << name << " diverged at index " << where << ": " << a << " vs " << b;
    *why = ss.str();
  }
  return false;
}

bool count_eq(std::uint64_t a, std::uint64_t b, const char* name,
              std::size_t where, std::string* why) {
  if (a == b) return true;
  if (why != nullptr) {
    *why = std::string(name) + " diverged at index " + std::to_string(where) +
           ": " + std::to_string(a) + " vs " + std::to_string(b);
  }
  return false;
}

bool reports_identical(const core::IntervalReport& a, const core::IntervalReport& b,
                       std::size_t where, std::string* why) {
  return count_eq(a.requests, b.requests, "requests", where, why) &&
         field_eq(a.avg_response_ms, b.avg_response_ms, "avg_response_ms", where, why) &&
         field_eq(a.max_response_ms, b.max_response_ms, "max_response_ms", where, why) &&
         field_eq(a.avg_e2e_ms, b.avg_e2e_ms, "avg_e2e_ms", where, why) &&
         field_eq(a.max_e2e_ms, b.max_e2e_ms, "max_e2e_ms", where, why) &&
         count_eq(a.deferred, b.deferred, "deferred", where, why) &&
         field_eq(a.pct_deferred, b.pct_deferred, "pct_deferred", where, why) &&
         field_eq(a.avg_delay_ms, b.avg_delay_ms, "avg_delay_ms", where, why) &&
         field_eq(a.fim_match_rate, b.fim_match_rate, "fim_match_rate", where, why) &&
         count_eq(a.failed, b.failed, "failed", where, why) &&
         count_eq(a.writes, b.writes, "writes", where, why) &&
         field_eq(a.avg_write_ms, b.avg_write_ms, "avg_write_ms", where, why);
}

}  // namespace

bool results_identical(const core::PipelineResult& a, const core::PipelineResult& b,
                       std::string* why) {
  if (!count_eq(a.outcomes.size(), b.outcomes.size(), "outcome count", 0, why)) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (!count_eq(static_cast<std::uint64_t>(x.arrival),
                  static_cast<std::uint64_t>(y.arrival), "arrival", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.dispatch),
                  static_cast<std::uint64_t>(y.dispatch), "dispatch", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.start),
                  static_cast<std::uint64_t>(y.start), "start", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.finish),
                  static_cast<std::uint64_t>(y.finish), "finish", i, why) ||
        !count_eq(x.device, y.device, "device", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.fim_matched),
                  static_cast<std::uint64_t>(y.fim_matched), "fim_matched", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.failed),
                  static_cast<std::uint64_t>(y.failed), "failed flag", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.is_write),
                  static_cast<std::uint64_t>(y.is_write), "is_write", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.path),
                  static_cast<std::uint64_t>(y.path), "path", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.q_ppm),
                  static_cast<std::uint64_t>(y.q_ppm), "q_ppm", i, why) ||
        !count_eq(x.tenant, y.tenant, "tenant", i, why) ||
        !count_eq(static_cast<std::uint64_t>(x.wfq_marked),
                  static_cast<std::uint64_t>(y.wfq_marked), "wfq_marked", i, why)) {
      return false;
    }
  }
  if (!count_eq(a.tenant_usage.size(), b.tenant_usage.size(),
                "tenant_usage count", 0, why)) {
    return false;
  }
  for (std::size_t i = 0; i < a.tenant_usage.size(); ++i) {
    const auto& x = a.tenant_usage[i];
    const auto& y = b.tenant_usage[i];
    if (!count_eq(x.arrivals, y.arrivals, "tenant arrivals", i, why) ||
        !count_eq(x.admitted, y.admitted, "tenant admitted", i, why) ||
        !count_eq(x.shed, y.shed, "tenant shed", i, why) ||
        !count_eq(x.marked, y.marked, "tenant marked", i, why) ||
        !count_eq(x.max_depth, y.max_depth, "tenant max_depth", i, why)) {
      return false;
    }
  }
  if (!count_eq(a.intervals.size(), b.intervals.size(), "interval count", 0, why)) {
    return false;
  }
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    if (!reports_identical(a.intervals[i], b.intervals[i], i, why)) return false;
  }
  if (!reports_identical(a.overall, b.overall, 0, why)) return false;
  return count_eq(a.deadline_violations, b.deadline_violations,
                  "deadline_violations", 0, why);
}

Report verify_replay_equivalence(const decluster::AllocationScheme& scheme,
                                 const ReplayEquivalenceParams& params) {
  Report report("replay-equivalence N=" + std::to_string(scheme.devices()));

  // Traces: a bucket-domain synthetic stream and a block-domain
  // Exchange-style stream (bursty, hot-set drift — what the figures use).
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = 2000;
  sp.seed = params.seed;
  const auto synthetic = trace::generate_synthetic(sp);
  const auto exchange =
      trace::generate_workload(trace::exchange_params(params.trace_scale, params.seed));

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

  // Every check replays its config serially and as one slot of a single
  // sharded run_jobs batch, so jobs of every mode run concurrently on the
  // pool and share the process-wide registries.
  std::vector<std::string> names;
  std::vector<core::ReplayJob> jobs;
  const auto add_case = [&](const std::string& name,
                            const core::PipelineConfig& cfg,
                            const trace::Trace& t) {
    names.push_back(name);
    jobs.push_back({&scheme, &t, cfg});
  };

  const std::pair<core::RetrievalMode, const char*> retrievals[] = {
      {core::RetrievalMode::kOnline, "online"},
      {core::RetrievalMode::kIntervalAligned, "aligned"}};
  const std::pair<core::AdmissionMode, const char*> admissions[] = {
      {core::AdmissionMode::kNone, "none"},
      {core::AdmissionMode::kDeterministic, "det"},
      {core::AdmissionMode::kStatistical, "stat"}};
  const std::pair<core::MappingMode, const char*> mappings[] = {
      {core::MappingMode::kModulo, "modulo"}, {core::MappingMode::kFim, "fim"}};
  const std::pair<core::SchedulerMode, const char*> schedulers[] = {
      {core::SchedulerMode::kReplicaScheduled, "replica"},
      {core::SchedulerMode::kPrimaryOnly, "primary"}};

  for (const auto& [retrieval, rname] : retrievals) {
    for (const auto& [admission, aname] : admissions) {
      for (const auto& [mapping, mname] : mappings) {
        for (const auto& [scheduler, sname] : schedulers) {
          core::PipelineConfig cfg;
          cfg.retrieval = retrieval;
          cfg.admission = admission;
          cfg.mapping = mapping;
          cfg.scheduler = scheduler;
          if (admission == core::AdmissionMode::kStatistical) {
            cfg.epsilon = 0.01;
            cfg.p_table = p_table;
          }
          const std::string combo = std::string(rname) + "/" + aname + "/" +
                                    mname + "/" + sname;
          add_case(combo + " @synthetic", cfg, synthetic);
          add_case(combo + " @exchange", cfg, exchange);
        }
      }
    }
  }

  // Failure windows: a transient outage and a permanent loss, in both
  // retrieval modes under deterministic admission with FIM mapping.
  for (const auto& [retrieval, rname] : retrievals) {
    core::PipelineConfig cfg;
    cfg.retrieval = retrieval;
    cfg.admission = core::AdmissionMode::kDeterministic;
    cfg.mapping = core::MappingMode::kFim;
    cfg.faults.outages.push_back({.device = 0,
                                  .fail_at = from_ms(1.0),
                                  .recover_at = from_ms(6.0)});
    cfg.faults.outages.push_back({.device = scheme.devices() - 1,
                            .fail_at = from_ms(2.0),
                            .recover_at = core::DeviceFailure::kNeverRecovers});
    add_case(std::string(rname) + "/det/fim/replica +failures @exchange", cfg,
              exchange);
  }

  core::ParallelReplayEngine engine({.threads = params.threads});
  const auto swept = engine.run_jobs(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto serial =
        core::QosPipeline(scheme, jobs[i].config).run(*jobs[i].trace);
    std::string why;
    const bool ok = results_identical(serial, swept[i], &why);
    report.add(names[i], ok, ok ? "" : why);
  }

  return report;
}

}  // namespace flashqos::verify
