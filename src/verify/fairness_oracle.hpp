// Fairness and isolation oracle for the multi-tenant WFQ front end.
//
// Generates randomized-but-seeded tenant mixes — always including a
// flooder whose demand far exceeds its fair share — replays them through
// the full QoS pipeline, and checks the properties the tenant scheduler
// promises, each recomputed from the trace and the returned outcomes, not
// read back from scheduler internals:
//
//   (a) reference agreement — an independent boundary-exact re-simulation
//       of the WFQ + reservation-floor semantics (virtual finish tags,
//       renormalized virtual time, floor-then-shared budget draws, ECN
//       mark/shed thresholds) must reproduce every request's verdict
//       (served interval / marked / shed) and the per-tenant tallies;
//   (b) budget — reads served per QoS interval never exceed S, so the
//       retrieval guarantee stays in force;
//   (c) response bound — every served read meets the paper's M·L bound;
//   (d) reservation isolation — a tenant whose demand stays within its
//       reservation is never shed and never deferred, flood or no flood;
//   (e) work conservation — each interval serves min(S, backlog+arrivals),
//       no slot idles while any tenant queue is backlogged;
//   (f) flood pressure — the flooder really overflowed (the mix exercised
//       backpressure, or the other checks were vacuous);
//   (g) usage accounting — PipelineResult::tenant_usage matches tallies
//       recomputed from the outcomes alone;
//   (h) serial ≡ sweep — run_jobs sweep slots stay bit-identical to serial
//       replays on multi-tenant configs (aligned and online modes).
//
// The oracle also proves its own teeth: each WfqKnobs mutation (FIFO
// order, frozen renormalization, ignored reservations, leaked budget) is
// injected and must make at least one check fail.
#pragma once

#include <cstdint>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct FairnessOracleParams {
  /// Randomized tenant mixes per design.
  std::size_t mixes = 3;
  std::uint64_t seed = 2026;
  /// Trace length in QoS intervals (arrivals stop here; the replay keeps
  /// dispensing until every queue drains).
  std::size_t intervals = 60;
  std::size_t threads = 3;  // sweep width for check (h)
  /// Also run the mutation-liveness pass (check that every deliberate
  /// defect in WfqKnobs is detected). Disable for quick smoke runs.
  bool mutations = true;
};

/// Run the fairness checks above against one allocation scheme.
[[nodiscard]] Report verify_fairness(const decluster::AllocationScheme& scheme,
                                     const FairnessOracleParams& params = {});

}  // namespace flashqos::verify
