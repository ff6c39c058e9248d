// flashqos_verify — audit the combinatorial structures behind the QoS
// guarantees.
//
// Runs every verifier in src/verify over catalog designs (by default all
// with N <= 64): design structure, bucket-table expansion, allocation
// invariants, block-mapper behaviour, retrieval cross-checks (DTR vs exact
// max-flow), and the S = (c-1)M² + cM bound — exhaustively enumerated where
// the subset count allows, adversarially sampled where it does not.
// Exit code 0 iff every check passes; the pre-merge gate (scripts/check.sh)
// relies on that.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/models.hpp"
#include "cli/options.hpp"
#include "decluster/schemes.hpp"
#include "design/catalog.hpp"
#include "verify/daemon_oracle.hpp"
#include "verify/fairness_oracle.hpp"
#include "verify/fault_oracle.hpp"
#include "verify/guarantee.hpp"
#include "verify/invariants.hpp"
#include "verify/obs_check.hpp"
#include "verify/replay_equivalence.hpp"
#include "verify/stream_oracle.hpp"

namespace {

std::uint64_t parse_u64(const char* flag, const std::string& value) {
  char* end = nullptr;
  const auto v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "flashqos_verify: --%s expects a number, got '%s'\n",
                 flag, value.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  flashqos::cli::Options opts(
      "flashqos_verify",
      "audit the combinatorial structures behind the QoS guarantees");
  opts.value("max-devices", "N",
             "only designs with at most N devices (default 64)")
      .value("design", "NAME",
             "check one catalog design (repeatable); overrides --max-devices",
             /*repeatable=*/true)
      .value("trials", "K",
             "retrieval cross-check trials per design (default 60)")
      .value("samples", "K",
             "sampled guarantee batches per (design, M) (default 200)")
      .value("budget", "K",
             "exhaustive-enumeration budget in subsets (default 1e6)")
      .value("max-accesses", "M", "check the S-bound for M = 1..M (default 2)")
      .value("seed", "S", "RNG seed for sampled checks (default 1)")
      .flag("replay",
            "also audit serial == sweep replay equivalence (every mode "
            "combination and failure windows, replayed as one sharded "
            "run_jobs batch) on the (9,3,1) and (13,3,1) schemes")
      .value("replay-threads", "N",
             "sweep width for --replay (default 4)")
      .flag("obs",
            "audit the observability layer: replay a set of pipeline "
            "configs on the (9,3,1) scheme and check the recorded metrics, "
            "windowed time-series (exact window identity + seeded-defect "
            "mutation check), SLO burn-rate pages, and trace spans against "
            "the returned outcomes (skipped when FLASHQOS_OBS=OFF)")
      .flag("stream",
            "audit batch-size and cursor-source invariance: every shared "
            "result field, registry metric, and windowed time-series point "
            "must be bit-identical between run() and run_stream() at batch "
            "sizes 1/7/4096, through the generator cursors and the chunked "
            "disksim reader; the seeded misdrain defect must trip")
      .flag("daemon",
            "audit the loopback daemon: a single ordered connection served "
            "through flashqosd's wire protocol (DaemonServer + "
            "PipelineService over 127.0.0.1) must reproduce the in-process "
            "replay exactly — every completion field, the aggregate stream "
            "result, and the metric/series registries (modulo transport "
            "instruments); the seeded mangle defect must trip, overload "
            "must answer pushback, malformed frames must be counted")
      .flag("faults",
            "chaos-audit the fault subsystem: randomized fault plans "
            "(outages, spikes, rebuild, retry timeouts) replayed on every "
            "selected design, checking request conservation, down-device "
            "routing, guarantee re-establishment, and serial == parallel "
            "identity")
      .flag("fairness",
            "audit the multi-tenant WFQ front end: randomized tenant mixes "
            "(always including a flooder) checked against an independent "
            "WFQ reference simulation, reservation isolation, work "
            "conservation, the per-interval budget, and serial == parallel "
            "identity; every deliberate WfqKnobs defect must trip at least "
            "one check")
      .flag("model",
            "exhaustively model-check the concurrency primitives "
            "(src/check): every schedule of the bounded HandoffQueue / "
            "ThreadPool / MetricRegistry models, checked for races, "
            "deadlocks, lost wakeups and schedule-dependent results; may "
            "be used alone (skips the design audit)")
      .value("daemon-probe", "PORT",
             "drive one batch through an already-running flashqosd on "
             "127.0.0.1:PORT and end the session (the loopback client leg "
             "of scripts/check.sh's daemon lifecycle smoke); used alone")
      .flag("list", "list catalog designs and exit")
      .flag("verbose", "print passing checks, not only failures");
  opts.parse_or_exit(argc, argv);

  if (opts.has("daemon-probe")) {
    const auto port = std::strtoul(opts.get("daemon-probe").c_str(), nullptr, 10);
    if (port == 0 || port > 65535) {
      std::fprintf(stderr, "flashqos_verify: --daemon-probe needs a port\n");
      return 2;
    }
    std::string summary;
    const bool ok =
        flashqos::verify::probe_daemon(static_cast<std::uint16_t>(port), summary);
    std::printf("%s\n", summary.c_str());
    return ok ? 0 : 1;
  }

  if (opts.has("list")) {
    for (const auto& e : flashqos::design::catalog()) {
      std::printf("%-10s N=%-3u c=%u buckets=%zu\n", e.name.c_str(),
                  e.devices, e.copies, e.buckets);
    }
    return 0;
  }

  std::uint64_t max_devices = 64;
  const std::vector<std::string> only = opts.all("design");
  const bool verbose = opts.has("verbose");
  const bool replay = opts.has("replay");
  const bool obs = opts.has("obs");
  const bool stream = opts.has("stream");
  const bool daemon = opts.has("daemon");
  const bool faults = opts.has("faults");
  const bool fairness = opts.has("fairness");
  const bool model = opts.has("model");
  bool design_flags = !only.empty();  // explicit design-audit options given
  flashqos::verify::ReplayEquivalenceParams replay_params;
  flashqos::verify::CatalogCheckParams params;

  if (opts.has("max-devices")) {
    max_devices = parse_u64("max-devices", opts.get("max-devices"));
    design_flags = true;
  }
  if (opts.has("trials")) {
    params.retrieval.trials =
        static_cast<std::size_t>(parse_u64("trials", opts.get("trials")));
  }
  if (opts.has("samples")) {
    params.guarantee.sampled_trials =
        static_cast<std::size_t>(parse_u64("samples", opts.get("samples")));
  }
  if (opts.has("budget")) {
    params.guarantee.exhaustive_budget =
        parse_u64("budget", opts.get("budget"));
  }
  if (opts.has("max-accesses")) {
    params.guarantee.max_accesses = static_cast<std::uint32_t>(
        parse_u64("max-accesses", opts.get("max-accesses")));
  }
  if (opts.has("seed")) {
    const auto seed = parse_u64("seed", opts.get("seed"));
    params.guarantee.seed = seed;
    params.retrieval.seed = seed;
  }
  if (opts.has("replay-threads")) {
    replay_params.threads = static_cast<std::size_t>(
        parse_u64("replay-threads", opts.get("replay-threads")));
  }

  bool all_ok = true;
  std::size_t checked = 0;

  // `--model` alone skips the design audit (the gate runs them as separate
  // stages); any explicit design/audit option brings it back.
  const bool run_designs = !model || design_flags || replay || obs || stream ||
                           daemon || faults || fairness;
  if (run_designs) {
    // The bound helpers are shared by every design; audit them once up
    // front.
    const auto arithmetic = flashqos::verify::verify_guarantee_arithmetic();
    std::printf("%s\n", arithmetic.to_string(verbose).c_str());
    all_ok = arithmetic.passed();

    for (const auto& e : flashqos::design::catalog()) {
      if (only.empty()) {
        if (e.devices > max_devices) continue;
      } else if (std::find(only.begin(), only.end(), e.name) == only.end()) {
        continue;
      }
      const auto report = flashqos::verify::verify_catalog_entry(e, params);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }

    if (checked == 0) {
      std::fprintf(stderr, "flashqos_verify: no catalog design matched\n");
      return 2;
    }
  }

  if (model) {
    // Exhaustive schedule exploration of the bounded concurrency models.
    // A model passes only if it is clean AND the DFS ran to exhaustion —
    // a capped exploration is not a proof.
    for (const auto& run : flashqos::check::run_builtin_models()) {
      const bool ok = run.result.ok && run.result.exhausted;
      std::printf("%s model %s (%ju schedules, %ju transitions%s)\n",
                  ok ? "PASS" : "FAIL", run.name.c_str(),
                  static_cast<std::uintmax_t>(run.result.executions),
                  static_cast<std::uintmax_t>(run.result.transitions),
                  run.result.exhausted ? ", exhaustive" : ", CAPPED");
      if (verbose) std::printf("  %s\n", run.description.c_str());
      if (!run.result.ok) std::printf("  %s\n", run.result.failure.c_str());
      std::fflush(stdout);
      all_ok = all_ok && ok;
      ++checked;
    }
  }

  if (replay) {
    // Serial ≡ sweep replay audit on the paper's two evaluation designs.
    for (const char* name : {"(9,3,1)", "(13,3,1)"}) {
      for (const auto& e : flashqos::design::catalog()) {
        if (e.name != name) continue;
        const auto d = e.make();
        const flashqos::decluster::DesignTheoretic scheme(d, true);
        const auto report =
            flashqos::verify::verify_replay_equivalence(scheme, replay_params);
        std::printf("%s\n", report.to_string(verbose).c_str());
        std::fflush(stdout);
        all_ok = all_ok && report.passed();
        ++checked;
      }
    }
  }
  if (obs) {
    // Observability self-audit: the registry's numbers must be derivable
    // from the replay results they claim to describe.
    for (const auto& e : flashqos::design::catalog()) {
      if (e.name != "(9,3,1)") continue;
      const auto d = e.make();
      const flashqos::decluster::DesignTheoretic scheme(d, true);
      const auto report = flashqos::verify::verify_observability(scheme);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }
  }
  if (stream) {
    // Batch-size / cursor-source invariance audit on the paper's primary
    // design.
    for (const auto& e : flashqos::design::catalog()) {
      if (e.name != "(9,3,1)") continue;
      const auto d = e.make();
      const flashqos::decluster::DesignTheoretic scheme(d, true);
      const auto report = flashqos::verify::verify_streaming(scheme);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }
  }
  if (daemon) {
    // Loopback-served ≡ in-process identity audit on the primary design.
    for (const auto& e : flashqos::design::catalog()) {
      if (e.name != "(9,3,1)") continue;
      const auto d = e.make();
      const flashqos::decluster::DesignTheoretic scheme(d, true);
      const auto report = flashqos::verify::verify_daemon(scheme);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }
  }
  if (fairness) {
    // Multi-tenant fairness audit on the paper's two evaluation designs.
    for (const char* name : {"(9,3,1)", "(13,3,1)"}) {
      for (const auto& e : flashqos::design::catalog()) {
        if (e.name != name) continue;
        const auto d = e.make();
        const flashqos::decluster::DesignTheoretic scheme(d, true);
        const auto report = flashqos::verify::verify_fairness(scheme);
        std::printf("%s\n", report.to_string(verbose).c_str());
        std::fflush(stdout);
        all_ok = all_ok && report.passed();
        ++checked;
      }
    }
  }
  if (faults) {
    // Chaos audit: randomized fault plans over every selected design.
    for (const auto& e : flashqos::design::catalog()) {
      if (only.empty()) {
        if (e.devices > max_devices) continue;
      } else if (std::find(only.begin(), only.end(), e.name) == only.end()) {
        continue;
      }
      const auto d = e.make();
      const flashqos::decluster::DesignTheoretic scheme(d, true);
      const auto report = flashqos::verify::verify_fault_tolerance(scheme);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }
  }

  std::printf("%s: %zu subject%s checked\n", all_ok ? "OK" : "FAILED", checked,
              checked == 1 ? "" : "s");
  return all_ok ? 0 : 1;
}
