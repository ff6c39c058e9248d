// sweep_paper: the paper's configuration grid plus three extension jobs,
// built with core::build_experiment and sharded over 3 workers by
// ParallelReplayEngine::run_jobs (one vCPU of a 4-vCPU host stays free
// for the OS and this harness). The only workload where FIM mining,
// aligned DTR/max-flow, WFQ, writes and degraded mode do the work, with
// concurrent pipelines sharing the process-wide obs registries.
#include <algorithm>
#include <deque>
#include <map>
#include <string>

#include "core/experiment.hpp"
#include "core/parallel_replay.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace flashqos;

constexpr std::size_t kWorkers = 3;

struct JobSpec {
  std::string name;
  std::string config;    // full experiment INI
  std::string workload;  // its [workload] section (jobs share equal ones)
  bool check_bound = false;  // online deterministic reads: response <= M·L
};

class SweepPaper final : public Workload {
 public:
  explicit SweepPaper(std::uint64_t seed) : seed_(seed) { make_specs(); }

  void setup() override {
    // Configs first (P_k is sampled here, once per scheme thanks to the
    // memo), then each distinct [workload] once through build_experiment,
    // which with the memo warm is trace generation; jobs with an equal
    // section share the trace.
    experiments_.reserve(specs_.size());
    for (const auto& s : specs_) {
      experiments_.push_back(core::build_experiment_config(config_from(s.config)));
    }
    std::map<std::string, const trace::Trace*> traces;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      auto it = traces.find(specs_[i].workload);
      if (it == traces.end()) {
        const std::int64_t t0 = now_ns();
        traces_.push_back(
            core::build_experiment(config_from(specs_[i].config)).workload);
        gen_ns_ += now_ns() - t0;
        it = traces.emplace(specs_[i].workload, &traces_.back()).first;
      }
      jobs_.push_back({experiments_[i].scheme.get(), it->second,
                       experiments_[i].pipeline});
    }
    for (const auto& j : jobs_) requests_ += j.trace->events.size();
    engine_ = std::make_unique<core::ParallelReplayEngine>(
        core::ParallelReplayOptions{.threads = kWorkers});
    (void)engine_->run_jobs(jobs_);  // warm-up pass
  }

  void prepare() override {
    // Reference: each job alone on one worker. Its digest is what every
    // sharded pass must reproduce; its time feeds the scaling metrics.
    core::ParallelReplayEngine solo({.threads = 1});
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const std::int64_t t0 = now_ns();
      auto res = solo.run_jobs({&jobs_[i], 1});
      solo_ns_.push_back(static_cast<double>(now_ns() - t0));
      const auto& r = res.front();
      ref_.push_back(digest(r));
      for (const auto& o : r.outcomes) fold_outcome(sim_, o);
      if (jobs_[i].config.mapping == core::MappingMode::kFim) {
        fim_matched_ += r.overall.fim_match_rate *
                        static_cast<double>(r.overall.requests);
        fim_requests_ += static_cast<double>(r.overall.requests);
      }
    }
  }

  PassStats pass() override {
    PassStats ps;
    const auto res = timed_pass(ps);
    if (ps.failed == 0) ps.failed = check(res);
    return ps;
  }

  [[nodiscard]] const SimStats& sim() const override { return sim_; }

  void trace_layers(SpanLog& log, MetricSet& m) override {
    const double n = static_cast<double>(requests_);
    const Scrape at_start = scrape_metrics();
    double pass_ns = 0;
    {
      const Scrape before = scrape_metrics();
      const int span = log.begin("core.sweep_pass");
      PassStats ps;
      const auto res = timed_pass(ps);
      log.end(span);
      const Scrape after = scrape_metrics();
      trace_failures_ = ps.failed == 0 ? check(res) : ps.failed;
      pass_ns = ps.wall_s * 1e9;
      traced_kreq_s_ = n / pass_ns * 1e6;
      double span_dev = 0;
      for (const auto& j : jobs_) {
        span_dev += static_cast<double>(j.trace->duration()) *
                    static_cast<double>(j.scheme->devices());
      }
      engine_counter_metrics(m, before, after, n, 0.0, span_dev, 1.0);
    }
    double solo_total = 0;
    double solo_max = 0;
    for (const double t : solo_ns_) {
      solo_total += t;
      solo_max = std::max(solo_max, t);
    }
    m.put("core.engine_ns_per_req", solo_total / n, "ns");
    m.put("core.sweep_scaling_eff",
          solo_total / (static_cast<double>(kWorkers) * pass_ns), "ratio");
    m.put("core.sweep_slowest_job_share", solo_max / pass_ns, "ratio");

    {  // FIM mining over every reporting slice of the FIM jobs' traces
      Scoped s(log, "fim.mine");
      std::map<const trace::Trace*, SimTime> mined;
      for (const auto& j : jobs_) {
        if (j.config.mapping == core::MappingMode::kFim) {
          mined.emplace(j.trace, j.config.qos_interval);
        }
      }
      std::size_t slices = 0;
      std::int64_t mine_ns = 0;
      for (const auto& [t, interval] : mined) {
        for (const auto& [a, b] : trace::report_slices(*t)) {
          const std::int64_t t0 = now_ns();
          (void)core::mine_event_range(*t, a, b, interval, 1);  // timed only
          const std::int64_t t1 = now_ns();
          log.add("fim.mine_slice", t0, t1);
          mine_ns += t1 - t0;
          ++slices;
        }
      }
      m.put("fim.mine_ns_per_slice",
            slices ? static_cast<double>(mine_ns) / static_cast<double>(slices)
                   : 0.0,
            "ns");
    }
    {
      Scoped s(log, "retrieval.pk_sample");
      // Once per array shape: every job on a shape samples the same table.
      double total = 0;
      std::map<std::uint32_t, bool> seen;
      for (const auto& j : jobs_) {
        if (j.config.admission == core::AdmissionMode::kStatistical &&
            seen.emplace(j.scheme->devices(), true).second) {
          total += cold_pk_sample_s(*j.scheme);
        }
      }
      m.put("retrieval.pk_sample_s", total, "s");
    }
    const Scrape at_end = scrape_metrics();
    const double hits = at_end.sum("flashqos_retrieval_pk_cache_hit_total");
    const double misses = at_end.sum("flashqos_retrieval_pk_cache_miss_total");
    m.put("retrieval.pk_cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    m.put("fim.match_rate", fim_requests_ > 0 ? fim_matched_ / fim_requests_ : 0.0,
          "ratio");
    m.put("trace.gen_ns_per_req", static_cast<double>(gen_ns_) / n, "ns");
    m.put("service.clamped_events",
          at_end.delta(at_start, "flashqos_service_clamped_events_total"), "count");
  }

  [[nodiscard]] double traced_kreq_s() const override { return traced_kreq_s_; }
  [[nodiscard]] std::uint64_t trace_failures() const override {
    return trace_failures_;
  }

  [[nodiscard]] std::vector<std::string> layers_not_on_path() const override {
    return {"net", "service.live_ns_per_req", "service.submit_blocked_share",
            "core.ingest_share", "core.drain_share",
            "core.engine_ns_per_deferral"};
  }

 private:
  /// One sharded pass, timed into `ps`; a job error fails the whole pass.
  std::vector<core::PipelineResult> timed_pass(PassStats& ps) {
    ps.requests = requests_;
    std::vector<core::PipelineResult> res;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    try {
      res = engine_->run_jobs(jobs_);
    } catch (const std::exception&) {
      ps.failed = requests_;
    }
    ps.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    ps.cpu_s = process_cpu_s() - cpu0;
    return res;
  }

  void make_specs() {
    const auto exchange = [&](const char* extra = "") {
      return "[workload]\nkind = exchange\nscale = 2.0\nseed = " +
             std::to_string(seed_ * 2 + 1) + "\n" + extra;
    };
    const auto tpce = [&](const char* extra = "") {
      return "[workload]\nkind = tpce\nscale = 1.0\nseed = " +
             std::to_string(seed_ * 2 + 2) + "\n" + extra;
    };
    // TPC-E first: the longest jobs start first, so the pass's makespan
    // does not hinge on one late long job.
    for (const bool is_tpce : {true, false}) {
      for (const char* retrieval : {"online", "aligned"}) {
        for (const char* mapping : {"fim", "modulo"}) {
          for (const char* admission : {"deterministic", "statistical"}) {
            JobSpec s;
            s.name = std::string(is_tpce ? "tpce" : "exchange") + "/" +
                     retrieval + "/" + mapping + "/" + admission;
            s.workload = is_tpce ? tpce() : exchange();
            s.config = std::string("[design]\nname = ") +
                       (is_tpce ? "(13,3,1)" : "(9,3,1)") +
                       "\n[pipeline]\nretrieval = " + retrieval +
                       "\nmapping = " + mapping + "\nadmission = " + admission +
                       "\nepsilon = 0.01\n" + s.workload;
            s.check_bound = std::string(retrieval) == "online" &&
                            std::string(admission) == "deterministic";
            specs_.push_back(std::move(s));
          }
        }
      }
    }
    // Two tenants on (9,3,1): a steady one with a reserved slot pair and
    // a flooding one that offers 4 reads per interval (S = 5 leaves it 3)
    // for the first 1000 intervals, queueing and ECN-marking without
    // being shed, then goes quiet while its queue drains.
    {
      JobSpec s;
      s.name = "ext/wfq_flood";
      s.workload = "[workload]\nkind = multi_tenant\nintervals = 20000\n"
                   "jitter_slots = 4\nseed = " +
                   std::to_string(seed_ * 2 + 3) + "\n";
      s.config = "[design]\nname = (9,3,1)\n[pipeline]\nretrieval = online\n"
                 "mapping = modulo\nadmission = deterministic\n"
                 "[tenants]\ntenant = steady 3.0 2\n"
                 "tenant = flood 1.0 0 2048 64\n"
                 "load = 2 12\nload = 4 12 1000\n" +
                 s.workload;
      specs_.push_back(std::move(s));
    }
    {
      JobSpec s;
      s.name = "ext/writes";
      s.workload = exchange("write_fraction = 0.2\n");
      s.config = "[design]\nname = (9,3,1)\n[pipeline]\nretrieval = online\n"
                 "mapping = fim\nadmission = statistical\nepsilon = 0.01\n" +
                 s.workload;
      specs_.push_back(std::move(s));
    }
    {
      JobSpec s;
      s.name = "ext/fault_rebuild";
      s.workload = tpce();
      s.config = "[design]\nname = (13,3,1)\n[pipeline]\nretrieval = online\n"
                 "mapping = fim\nadmission = statistical\nepsilon = 0.01\n"
                 "[faults]\nfail = 3 500.0 1500.0\nrebuild = 50000\n" +
                 s.workload;
      specs_.push_back(std::move(s));
    }
  }

  /// Reads of an online deterministic job answered later than M·L, plus
  /// its deadline violations.
  [[nodiscard]] std::uint64_t bound_violations(std::size_t i,
                                               const core::PipelineResult& r) const {
    if (!specs_[i].check_bound) return 0;
    const auto& cfg = jobs_[i].config;
    const SimTime bound =
        static_cast<SimTime>(cfg.access_budget) * cfg.service_time;
    std::uint64_t bad = r.deadline_violations;
    for (const auto& o : r.outcomes) {
      if (!o.is_write && !o.failed && o.response() > bound) ++bad;
    }
    return bad;
  }

  /// Requests of the pass that are wrong: a job whose digest differs from
  /// its solo run counts whole; failed outcomes, WFQ sheds and bound
  /// violations count one each.
  [[nodiscard]] std::uint64_t check(
      const std::vector<core::PipelineResult>& res) const {
    if (res.size() != jobs_.size()) return requests_;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
      if (digest(res[i]) != ref_[i]) {
        bad += jobs_[i].trace->events.size();
        continue;
      }
      bad += res[i].overall.failed + bound_violations(i, res[i]);
      for (const auto& u : res[i].tenant_usage) bad += u.shed;
    }
    return bad;
  }

  std::uint64_t seed_;
  std::vector<JobSpec> specs_;
  std::vector<core::Experiment> experiments_;
  std::deque<trace::Trace> traces_;  // stable addresses for the jobs
  std::vector<core::ReplayJob> jobs_;
  std::uint64_t requests_ = 0;
  std::int64_t gen_ns_ = 0;
  std::unique_ptr<core::ParallelReplayEngine> engine_;
  std::vector<double> solo_ns_;
  std::vector<std::uint64_t> ref_;
  double fim_matched_ = 0.0;
  double fim_requests_ = 0.0;
  SimStats sim_;
  double traced_kreq_s_ = 0.0;
  std::uint64_t trace_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_paper(std::uint64_t seed) {
  return std::make_unique<SweepPaper>(seed);
}

}  // namespace perfbench
