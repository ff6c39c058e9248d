// Streaming identity oracle: batch-size and cursor-source invariance.
//
// run() is run_stream() over a VectorCursor at the default batch size, so
// the reference leg and the audited legs share one engine. What this
// oracle proves is that the numbers — interval reports, the overall
// report, deadline violations, tenant usage, every registry metric, and
// every windowed time-series point — do not depend on the batch size or on
// the cursor that delivers the events (vector adapter, generator, chunked
// file reader). The absolute results are pinned separately, per request,
// by the golden snapshots (tests/golden_replay_test.cpp). This verifier
// enforces its promise the way verify_replay_equivalence does for serial ≡
// sweep: recompute both sides and compare field by field with exact
// (bitwise for doubles) equality, plus absolute registry/time-series
// snapshot identity modulo the instruments that legitimately differ (the
// wall-clock stage timing, byte/batch accounting that depends on how the
// stream was chunked).
//
// The oracle also proves it can fail: StreamOptions::misdrain_for_test
// deliberately breaks the engine's read-ahead drain bound, and the run
// only passes if that seeded defect produces a detected divergence.
#pragma once

#include <cstdint>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct StreamCheckParams {
  double trace_scale = 0.02;  // Exchange-style trace scale (keep small)
  std::uint64_t seed = 2026;
  /// Monte-Carlo effort for the statistical-admission P_k table.
  std::size_t p_samples = 200;
};

/// Run the streaming identity audit on `scheme`: representative pipeline
/// configs (online/aligned, deterministic/statistical/none admission,
/// FIM/modulo mapping, multi-tenant WFQ, fault windows) × batch sizes
/// {1, 7, 4096} × {vector cursor, generator cursor, chunked disksim
/// reader}, each leg compared bit-exactly against run() on the
/// materialized trace, with registry and time-series snapshots compared
/// instrument by instrument. One check per leg; all must pass.
[[nodiscard]] Report verify_streaming(const decluster::AllocationScheme& scheme,
                                      const StreamCheckParams& params = {});

}  // namespace flashqos::verify
