// Daemon ≡ in-process replay oracle (flashqos_verify --daemon).
//
// flashqosd promises that serving a workload over the wire changes the
// transport, not the physics: a single ordered connection submitting a
// trace through the loopback daemon must produce, for every request, the
// exact outcome (admission verdict, dispatch/start/finish instants, device,
// retrieval path, Q estimate in ppm, tenant, ECN mark) that an in-process
// replay of the same trace produces — exact doubles, not tolerances — and
// the aggregate StreamResult plus the metric-registry snapshot must match
// modulo the transport's own instruments (net.*, service.*, obs.http.*,
// wall-clock timings).
//
// The audit stands up a real DaemonServer + PipelineService in-process,
// connects through net::Client over 127.0.0.1, and replays representative
// pipeline configs (online/aligned, deterministic/statistical admission,
// multi-tenant WFQ, fault windows). It also proves the machinery can fail:
// ServiceOptions::mangle_for_test perturbs every served finish time by one
// nanosecond, and the run only passes if that seeded defect is detected.
// Wire-level behavior rides along: the in-flight cap must answer pushback
// (never silently queue), and a malformed frame must be counted and
// answered with a protocol error, not a hang.
#pragma once

#include <cstdint>
#include <string>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct DaemonCheckParams {
  double trace_scale = 0.02;  // Exchange-style trace scale (keep small)
  std::uint64_t seed = 2026;
  /// Monte-Carlo effort for the statistical-admission P_k table.
  std::size_t p_samples = 200;
};

[[nodiscard]] Report verify_daemon(const decluster::AllocationScheme& scheme,
                                   const DaemonCheckParams& params = {});

/// Drive one batch through an ALREADY-RUNNING flashqosd on
/// 127.0.0.1:`port` (scripts/check.sh's lifecycle smoke): submit a
/// one-event-per-interval batch, flush past it, require every completion
/// back with live verdict fields, then end the session — which, as the
/// only connection, asks the daemon to drain and exit. True on success;
/// `summary` gets the one-line OK/FAIL verdict for the caller to print.
[[nodiscard]] bool probe_daemon(std::uint16_t port, std::string& summary,
                                std::size_t batch = 64);

}  // namespace flashqos::verify
