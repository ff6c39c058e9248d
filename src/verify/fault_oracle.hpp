// Chaos oracle for the fault-injection subsystem.
//
// Generates randomized-but-seeded fault plans (transient outages, permanent
// losses with hot-spare rebuild, latency spikes, retry timeouts), replays a
// synthetic workload through the QoS pipeline under each plan, and checks
// the invariants the fault design promises — recomputed here from the plan
// itself, not read back from pipeline internals:
//
//   (a) request conservation — every read is served exactly once, or failed
//       at an instant where every replica is provably inside an outage
//       window (and, when all replicas eventually recover, only because the
//       plan's retry timeout expired);
//   (b) no dispatch to a down device — each served request's device is up
//       at its dispatch instant per the independently compiled windows;
//   (c) guarantee re-establishment — for deterministic admission, every
//       request dispatched at least one full QoS interval after the plan's
//       last disruption meets the paper's response bound M·L again
//       (statistical admission is excluded: its surplus path queues by
//       design);
//   (d) serial ≡ sweep — a run_jobs sweep slot stays bit-identical to the
//       serial pipeline under every fault plan.
#pragma once

#include <cstdint>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct FaultOracleParams {
  /// Randomized fault plans per design; each is replayed under several
  /// pipeline configurations.
  std::size_t plans = 3;
  std::uint64_t seed = 2026;
  std::size_t threads = 3;       // sweep width for check (d)
  std::size_t intervals = 120;   // synthetic trace length in QoS intervals
  std::uint32_t per_interval = 4;
};

/// Run the chaos checks above against one allocation scheme.
[[nodiscard]] Report verify_fault_tolerance(const decluster::AllocationScheme& scheme,
                                            const FaultOracleParams& params = {});

}  // namespace flashqos::verify
