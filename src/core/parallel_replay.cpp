#include "core/parallel_replay.hpp"

#include <exception>
#include <future>

#include "obs/metrics.hpp"

namespace flashqos::core {
namespace {

/// Join every future; rethrow the lowest-index captured exception (if any)
/// once all of them have finished.
void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr worker_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!worker_error) worker_error = std::current_exception();
    }
  }
  if (worker_error) std::rethrow_exception(worker_error);
}

}  // namespace

ParallelReplayEngine::ParallelReplayEngine(ParallelReplayOptions opts)
    : pool_(opts.threads) {}

std::vector<PipelineResult> ParallelReplayEngine::run_jobs(
    std::span<const ReplayJob> jobs) {
  for (const auto& job : jobs) {
    FLASHQOS_EXPECT(job.scheme != nullptr && job.trace != nullptr,
                    "replay job needs a scheme and a trace");
  }
  // Pre-sized slots indexed by job id: each worker writes its own entry,
  // so the sweep result is independent of completion order.
  std::vector<PipelineResult> results(jobs.size());
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  if constexpr (obs::kEnabled) {
    static obs::Counter& jobs_counter =
        obs::MetricRegistry::global().counter("parallel.jobs");
    jobs_counter.inc(jobs.size());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    futures.push_back(pool_.submit_with_future([&jobs, &results, i] {
      const auto& job = jobs[i];
      results[i] = QosPipeline(*job.scheme, job.config).run(*job.trace);
    }));
  }
  join_all(futures);
  return results;
}

}  // namespace flashqos::core
