// Parallel trace-replay engine.
//
// Two sharding axes, both chosen so results are bit-identical to the
// serial QosPipeline:
//
//  1. Experiment sharding (run_jobs): the paper's figures sweep many
//     independent (design, config, trace) combinations; each job is one
//     full serial replay on a pool worker, writing into a pre-sized result
//     slot indexed by job id. No job shares mutable state with another, so
//     the sweep is thread-count- and schedule-invariant. This is the QoS
//     framework's own independence structure — per-interval guarantees and
//     per-array isolation — applied at the experiment level.
//
//  2. Mining ahead (run_stream, and run over a materialized trace): FIM
//     mining is a pure function of each reporting slice, so a pool worker
//     makes its own pass over the stream, mines each slice and hands it
//     over a bounded HandoffQueue while the one serial replay core — the
//     same engine QosPipeline::run_stream runs — consumes slices in order.
//     Admission, scheduling and flashsim share the dispatch clock and
//     device free times, so they stay serial. kOnline mode replays fully
//     serially: its FCFS dispatch order is load-bearing (§IV-B), and we do
//     not split a stage whose ordering carries semantics.
//
// Determinism rules (enforced by verify::verify_replay_equivalence and
// tests/parallel_replay_test.cpp):
//  * every shard writes only to its own pre-sized slot — no accumulation
//    order dependence;
//  * mined FIM slices are pure functions of (trace, slice, T, support);
//  * any randomness in shard setup derives from shard_seed(seed, shard)
//    (util/rng.hpp), never from a stream shared across shards.
//
// The engine is externally synchronized: drive it from one thread at a
// time (concurrent run/run_jobs calls would interleave on pool.wait()).
#pragma once

#include <span>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "trace/cursor.hpp"
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
  /// Capacity of the mined-slice handoff queue: how many reporting
  /// intervals the decode+mine stage may run ahead of the replay core
  /// before backpressure blocks it. Memory is O(lookahead), not O(trace).
  std::size_t mining_lookahead = 8;
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

  /// Replay one materialized trace: run_stream over a trace::VectorCursor
  /// with every outcome materialized (core::run_materialized).
  /// Bit-identical to QosPipeline::run in every mode.
  [[nodiscard]] PipelineResult run(const decluster::AllocationScheme& scheme,
                                   const PipelineConfig& cfg, const trace::Trace& t);

  /// Replay a cursor stream with the mining stage running ahead on a pool
  /// worker. The producer opens its *own* cursor from `factory` (two
  /// independent passes over the stream), cuts each reporting slice into
  /// transactions incrementally — O(slice) memory, never the trace — mines
  /// it, and hands the pairs over the bounded queue; the serial core
  /// consumes them in slice order. Falls back to QosPipeline::run_stream
  /// inline mining when there is no mining stage to run ahead (kOnline
  /// ordering is load-bearing, modulo mapping and interval-free traces
  /// have nothing to mine). Bit-identical to QosPipeline::run_stream.
  [[nodiscard]] StreamResult run_stream(const decluster::AllocationScheme& scheme,
                                        const PipelineConfig& cfg,
                                        const trace::CursorFactory& factory,
                                        const StreamOptions& opts = {});

 private:
  ParallelReplayOptions opts_;
  ThreadPool pool_;
};

}  // namespace flashqos::core
