// Micro — sweep sharding scaling at 1/2/4/8 threads.
//
// A mixed-configuration job list (the shape experiment.cpp and the
// fig/table drivers produce) through ParallelReplayEngine::run_jobs,
// against the same jobs replayed one after another on the serial
// QosPipeline. Every parallel result is checked bit-identical to the
// serial baseline before any sweep is timed — a fast wrong replay would be
// worthless.
//
// Each figure is the median of kReps warm repetitions (one untimed warm-up
// run first), printed with its quartiles so run-to-run noise is visible
// beside the speedup. Speedup is bounded by the host: on a single-core
// container every thread count serializes and the numbers show parallel
// overhead instead of speedup. The printed hardware_concurrency line is
// part of the output so recorded numbers carry that context with them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "core/parallel_replay.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "verify/replay_equivalence.hpp"

using namespace flashqos;

namespace {

constexpr int kReps = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

/// Wall time of kReps calls of `fn`, sorted ascending.
template <typename Fn>
std::vector<double> timed_reps(Fn&& fn) {
  std::vector<double> secs;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(seconds_since(t0));
  }
  std::sort(secs.begin(), secs.end());
  return secs;
}

struct Workload {
  std::vector<trace::Trace> traces;
  std::vector<core::ReplayJob> jobs;
};

Workload build_jobs(const decluster::AllocationScheme& scheme, bool smoke) {
  Workload w;
  const double scale = smoke ? 0.02 : 0.25;
  w.traces.push_back(
      trace::generate_workload(trace::exchange_params(scale, 2012)));
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 5;
  sp.total_requests = smoke ? 1500 : 20000;
  sp.seed = 2012;
  w.traces.push_back(trace::generate_synthetic(sp));

  // The mode mix a figure-sweep produces: retrieval x mapping x admission.
  for (const auto& t : w.traces) {
    for (const auto retrieval : {core::RetrievalMode::kOnline,
                                 core::RetrievalMode::kIntervalAligned}) {
      for (const auto mapping :
           {core::MappingMode::kFim, core::MappingMode::kModulo}) {
        for (const auto admission : {core::AdmissionMode::kDeterministic,
                                     core::AdmissionMode::kNone}) {
          core::PipelineConfig cfg;
          cfg.retrieval = retrieval;
          cfg.mapping = mapping;
          cfg.admission = admission;
          w.jobs.push_back({&scheme, &t, cfg});
        }
      }
    }
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto w = build_jobs(scheme, smoke);

  print_banner("Parallel replay scaling: sharded sweep (run_jobs)");
  std::printf("host: hardware_concurrency = %u (speedup is bounded by "
              "physical cores, not requested threads)\n",
              std::thread::hardware_concurrency());
  std::printf("sweep: %zu jobs over %zu traces; median and quartiles of %d "
              "warm repetitions\n",
              w.jobs.size(), w.traces.size(), kReps);

  // Serial baseline: one QosPipeline per job, same order. The first pass
  // is the warm-up and the reference results for the identity gate.
  const auto serial_sweep = [&] {
    std::vector<core::PipelineResult> out;
    out.reserve(w.jobs.size());
    for (const auto& j : w.jobs) {
      out.push_back(core::QosPipeline(*j.scheme, j.config).run(*j.trace));
    }
    return out;
  };
  const auto baseline = serial_sweep();
  const auto serial = timed_reps([&] { (void)serial_sweep(); });
  const double serial_median = percentile_sorted(serial, 0.5);

  Table table({"threads", "median (s)", "q1 (s)", "q3 (s)", "speedup"});
  table.add_row({"serial", Table::num(serial_median, 3),
                 Table::num(percentile_sorted(serial, 0.25), 3),
                 Table::num(percentile_sorted(serial, 0.75), 3), "1.00"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ParallelReplayEngine engine({.threads = threads});

    // Correctness gate on the warm-up sweep: a result that differs from
    // serial disqualifies the timing. results_identical is exact
    // (bit-level doubles).
    const auto swept = engine.run_jobs(w.jobs);
    std::string why;
    for (std::size_t i = 0; i < swept.size(); ++i) {
      if (!verify::results_identical(baseline[i], swept[i], &why)) {
        std::printf("FAILED: sweep job %zu at %zu threads diverged: %s\n", i,
                    threads, why.c_str());
        return 1;
      }
    }

    const auto secs = timed_reps([&] { (void)engine.run_jobs(w.jobs); });
    const double median = percentile_sorted(secs, 0.5);
    table.add_row({std::to_string(threads), Table::num(median, 3),
                   Table::num(percentile_sorted(secs, 0.25), 3),
                   Table::num(percentile_sorted(secs, 0.75), 3),
                   Table::num(serial_median / median, 2)});
  }
  table.print();
  std::printf("\nall sweep results verified bit-identical to the serial "
              "engine before timing was accepted.\n");
  return 0;
}
