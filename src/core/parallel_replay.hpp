// Parallel trace-replay engine: experiment sharding.
//
// The paper's figures sweep many independent (design, config, trace)
// combinations. run_jobs runs each job as one full serial replay on a pool
// worker, writing into a pre-sized result slot indexed by job id. No job
// shares mutable state with another, so the sweep is thread-count- and
// schedule-invariant and every slot is bit-identical to
// QosPipeline(*job.scheme, job.config).run(*job.trace). This is the QoS
// framework's own independence structure — per-interval guarantees and
// per-array isolation — applied at the experiment level.
//
// A single replay is never split: admission, scheduling and flashsim share
// the dispatch clock and device free times, and the per-slice FIM mining
// runs inline at each reporting rollover (QosPipeline::run_stream), which
// is a small share of a replay. Sweep sharding is the one parallel axis.
//
// Determinism rules (enforced by verify::verify_replay_equivalence and
// tests/parallel_replay_test.cpp):
//  * every shard writes only to its own pre-sized slot — no accumulation
//    order dependence;
//  * any randomness in shard setup derives from shard_seed(seed, shard)
//    (util/rng.hpp), never from a stream shared across shards.
//
// The engine is externally synchronized: drive it from one thread at a
// time (concurrent run_jobs calls would interleave on the pool).
#pragma once

#include <span>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "util/thread_pool.hpp"

namespace flashqos::core {

/// One experiment shard of a sweep: scheme and trace are borrowed (must
/// outlive the run_jobs call); several jobs may share one trace.
struct ReplayJob {
  const decluster::AllocationScheme* scheme = nullptr;
  const trace::Trace* trace = nullptr;
  PipelineConfig config;
};

struct ParallelReplayOptions {
  std::size_t threads = 0;  // 0 = hardware concurrency
};

class ParallelReplayEngine {
 public:
  explicit ParallelReplayEngine(ParallelReplayOptions opts = {});

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// The engine's worker pool, for callers that want to co-schedule their
  /// own shards (e.g. experiment building) on the same threads.
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

  /// Shard a multi-configuration sweep across the pool. results[i] is
  /// bit-identical to QosPipeline(*jobs[i].scheme, jobs[i].config)
  /// .run(*jobs[i].trace). If any job throws, the lowest-index exception
  /// is rethrown after every job has finished.
  [[nodiscard]] std::vector<PipelineResult> run_jobs(std::span<const ReplayJob> jobs);

 private:
  ThreadPool pool_;
};

}  // namespace flashqos::core
