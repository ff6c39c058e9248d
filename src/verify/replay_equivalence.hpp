// Serial ≡ sweep replay oracle.
//
// The parallel replay engine's sweep sharding (ParallelReplayEngine::
// run_jobs) promises that every job slot is bit-identical to the serial
// QosPipeline::run of the same job — same per-request outcomes, same
// per-interval metrics, same deadline-violation count — for every mode
// combination and under failure windows, whatever else runs beside it on
// the pool. This verifier enforces that promise the way the rest of
// src/verify works: recompute both sides and compare field by field with
// exact (bitwise for doubles) equality, so any accumulation-order drift or
// shard cross-talk in a future pipeline refactor turns into a named
// failing check rather than a silently shifted figure.
#pragma once

#include <cstdint>
#include <string>

#include "core/parallel_replay.hpp"
#include "verify/invariants.hpp"

namespace flashqos::verify {

/// True iff `a` and `b` agree exactly: every RequestOutcome field, every
/// IntervalReport field (doubles compared with ==, not a tolerance — the
/// engines must take identical floating-point paths), overall, and the
/// deadline-violation count. On mismatch, `why` (if non-null) names the
/// first diverging field.
[[nodiscard]] bool results_identical(const core::PipelineResult& a,
                                     const core::PipelineResult& b,
                                     std::string* why = nullptr);

struct ReplayEquivalenceParams {
  std::size_t threads = 4;      // sweep width under test
  double trace_scale = 0.02;    // Exchange-style trace scale (keep small)
  std::uint64_t seed = 2012;
  /// Monte-Carlo effort for the statistical-admission P_k table.
  std::size_t p_samples = 200;
};

/// Run every {retrieval × admission × mapping × scheduler} combination on
/// a synthetic trace and an Exchange-style trace, plus failure-window
/// scenarios, as one run_jobs batch and compare each slot with its serial
/// run(). One check per job; all must pass for the report to pass.
[[nodiscard]] Report verify_replay_equivalence(
    const decluster::AllocationScheme& scheme,
    const ReplayEquivalenceParams& params = {});

}  // namespace flashqos::verify
