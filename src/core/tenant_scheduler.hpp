// Multi-tenant WFQ front end for the interval budget S.
//
// TenantScheduler binds the WFQ ordering core (core/wfq.hpp) to the
// paper's admission accounting: each QoS interval it dispenses the *live*
// budget — S = (c-1)M² + cM while healthy, the degraded S′ from src/fault
// while devices are down — across tenants in virtual-finish-time order,
// with reservations honored as per-tenant floors. A tenant's grant per
// interval is
//
//   up to  res_i  (its scaled reservation, held for it all interval)
//   plus   its WFQ share of the shared remainder S_live − Σ res_i
//
// so a flooder can exhaust the shared pool but never another tenant's
// floor, and backlogged tenants split the remainder in weight proportion
// (WFQ's one-unit fairness bound). Under a degraded budget S′ < S the
// floors scale as floor(res_i · S′/S) — guarantees shrink proportionally,
// exactly like the admission budget itself.
//
// The scheduler is single-threaded replay-core state (see wfq.hpp). The
// concurrent seam for a future daemon front end is BasicTenantIngress
// below: per-tenant bounded MPSC queues with shed-on-full backpressure,
// model-checked via check::Sched ("tenant_ingress.mpsc_drain") and
// TSan-stressed in tests/parallel_stress_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/wfq.hpp"
#include "util/annotations.hpp"
#include "util/expect.hpp"
#include "util/sync.hpp"

namespace flashqos::core {

/// One tenant class: weight drives the WFQ share of the shared pool,
/// reservation is the guaranteed per-interval floor (isolated from every
/// other tenant), queue bounds provide the ECN-style backpressure.
struct TenantSpec {
  std::string name;
  double weight = 1.0;
  std::uint64_t reservation = 0;     // guaranteed slots per interval
  std::size_t queue_capacity = 64;   // arrivals beyond this are shed
  std::size_t mark_threshold = 48;   // ECN mark when depth crosses this
};

/// Per-tenant tallies accumulated over one replay (reported in
/// PipelineResult and published to obs once per replay).
struct TenantUsage {
  std::uint64_t arrivals = 0;  // read requests that reached the queue
  std::uint64_t admitted = 0;  // dispensed into the dispatch machinery
  std::uint64_t shed = 0;      // dropped: queue full
  std::uint64_t marked = 0;    // accepted above the mark threshold
  std::uint64_t max_depth = 0; // deepest queue occupancy observed
};

class TenantScheduler {
 public:
  /// `configured_budget` is the healthy interval budget S the reservations
  /// were validated against (Σ res_i ≤ S, enforced here).
  TenantScheduler(const std::vector<TenantSpec>& specs,
                  std::uint64_t configured_budget, WfqKnobs knobs = {});

  [[nodiscard]] std::size_t tenants() const noexcept { return specs_.size(); }
  [[nodiscard]] const TenantSpec& spec(std::size_t t) const {
    return specs_[t];
  }
  [[nodiscard]] const TenantUsage& usage(std::size_t t) const {
    return usage_[t];
  }
  [[nodiscard]] double virtual_time() const noexcept {
    return wfq_.virtual_time();
  }
  [[nodiscard]] bool backlogged() const noexcept { return wfq_.backlogged(); }
  [[nodiscard]] std::size_t depth(std::size_t t) const { return wfq_.depth(t); }

  /// Start a new QoS interval: reset per-tenant draws and rescale the
  /// floors to the live budget (S, or the degraded S′).
  void begin_interval(std::uint64_t live_budget);

  /// Mid-interval budget change (the down-set changed): floors rescale,
  /// draws already made this interval are kept and clamp saturating.
  void set_live_budget(std::uint64_t live_budget);

  /// Queue a read for tenant `t`; stamps the WFQ virtual finish time.
  /// kShed means the request was dropped (queue full) and must be failed
  /// by the caller; kMarked means accepted with the congestion bit.
  WfqQueues::Enqueue enqueue(std::size_t t, std::uint64_t id);

  /// Tenant whose queue head should dispense next: minimum virtual finish
  /// time among backlogged tenants that still have budget this interval
  /// (reservation remainder + shared pool), skipping tenants the caller
  /// blocked this round (head not physically schedulable right now).
  /// `unlimited` ignores budget accounting (AdmissionMode::kNone).
  [[nodiscard]] std::optional<std::size_t> next_candidate(
      const std::vector<bool>& blocked, bool unlimited) const;

  [[nodiscard]] std::uint64_t head(std::size_t t) const { return wfq_.head(t); }

  /// Dispense the head of `t`: draws the tenant's reservation first, then
  /// the shared pool (skipped when `unlimited`), and advances the WFQ
  /// clock. Returns the dispensed request id.
  std::uint64_t pop(std::size_t t, bool unlimited);

  /// Remove the head of `t` without dispensing (request invalidated while
  /// queued, e.g. failed by the fault path). No budget is drawn.
  std::uint64_t drop_head(std::size_t t);

  /// Record a queue-depth observation (called at interval boundaries by
  /// the pipeline so the obs histograms sample steady-state occupancy).
  void observe_depths();

 private:
  void rescale(std::uint64_t live_budget);
  [[nodiscard]] bool has_budget(std::size_t t) const;

  std::vector<TenantSpec> specs_;
  WfqQueues wfq_;
  std::uint64_t configured_budget_ = 0;
  std::uint64_t live_budget_ = 0;
  std::uint64_t shared_pool_ = 0;   // live budget minus scaled floors
  std::uint64_t shared_used_ = 0;
  std::vector<std::uint64_t> floor_;       // scaled reservation per tenant
  std::vector<std::uint64_t> floor_used_;
  std::vector<TenantUsage> usage_;
  WfqKnobs knobs_;
  mutable std::vector<bool> exclude_;  // next_candidate() scratch
};

/// Concurrent arrival seam: per-tenant bounded MPSC queues between
/// producer threads (a future daemon's connection handlers) and the
/// single replay/scheduler thread that drains them. try_push() sheds on a
/// full queue — the ECN backpressure signal crosses the thread boundary as
/// a false return the producer can surface to its client. pop_any() is the
/// blocking drain: lowest-index non-empty tenant first (the WFQ stamp is
/// applied *after* the handoff, by the single consumer, so fairness
/// ordering never depends on producer interleaving).
///
/// Templated on the sync policy so check::Sched can exhaustively model the
/// blocking protocol (lost-wakeup freedom of the close/drain handshake).
template <typename T, typename Sync = util::StdSyncPolicy>
class BasicTenantIngress {
 public:
  BasicTenantIngress(std::size_t tenants, std::size_t capacity)
      : capacity_(capacity), queues_(tenants) {
    FLASHQOS_EXPECT(tenants > 0, "tenant ingress needs at least one tenant");
    FLASHQOS_EXPECT(capacity > 0, "tenant ingress capacity must be positive");
  }

  BasicTenantIngress(const BasicTenantIngress&) = delete;
  BasicTenantIngress& operator=(const BasicTenantIngress&) = delete;

  [[nodiscard]] std::size_t tenants() const noexcept {
    return queues_.rd().size();
  }

  /// Non-blocking enqueue for `tenant`. False = shed (queue at capacity)
  /// or closed; the item is dropped either way.
  bool try_push(std::size_t tenant, T item) {
    {
      const typename Sync::LockGuard lock(mutex_);
      if (closed_.rd()) return false;
      auto& q = queues_.rw()[tenant];
      if (q.size() >= capacity_) return false;
      q.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking drain: (tenant, item) from the lowest-index non-empty
  /// queue; nullopt iff closed and fully drained.
  std::optional<std::pair<std::size_t, T>> pop_any() {
    typename Sync::UniqueLock lock(mutex_);
    while (true) {
      auto& qs = queues_.rw();
      for (std::size_t t = 0; t < qs.size(); ++t) {
        if (qs[t].empty()) continue;
        std::pair<std::size_t, T> out{t, std::move(qs[t].front())};
        qs[t].pop_front();
        return out;
      }
      if (closed_.rd()) return std::nullopt;
      not_empty_.wait(lock);
    }
  }

  /// Refuse further pushes and wake the consumer; queued items remain
  /// poppable (close-then-drain, like HandoffQueue).
  void close() {
    {
      const typename Sync::LockGuard lock(mutex_);
      closed_.rw() = true;
    }
    not_empty_.notify_all();
  }

 private:
  const std::size_t capacity_;
  mutable typename Sync::Mutex mutex_;
  typename Sync::CondVar not_empty_;
  typename Sync::template Shared<std::vector<std::deque<T>>> queues_
      FLASHQOS_GUARDED_BY(mutex_);
  typename Sync::template Shared<bool> closed_ FLASHQOS_GUARDED_BY(mutex_){
      false};
};

using TenantIngress = BasicTenantIngress<std::uint64_t>;

}  // namespace flashqos::core
