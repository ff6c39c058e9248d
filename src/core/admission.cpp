#include "core/admission.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace flashqos::core {

std::optional<std::uint32_t> ApplicationRegistry::admit(
    std::uint64_t requests_per_period) {
  FLASHQOS_EXPECT(requests_per_period > 0, "application must request something");
  if (reserved_ + requests_per_period > limit_) return std::nullopt;
  const std::uint32_t id = next_id_++;
  apps_.emplace(id, requests_per_period);
  reserved_ += requests_per_period;
  return id;
}

void ApplicationRegistry::remove(std::uint32_t app_id) {
  const auto it = apps_.find(app_id);
  FLASHQOS_EXPECT(it != apps_.end(), "unknown application id");
  reserved_ -= it->second;
  apps_.erase(it);
}

StatisticalAdmission::StatisticalAdmission(std::vector<double> p_table,
                                           std::uint64_t deterministic_limit,
                                           double epsilon)
    : p_table_(std::move(p_table)), limit_(deterministic_limit), epsilon_(epsilon) {
  FLASHQOS_EXPECT(!p_table_.empty(), "statistical admission needs a P_k table");
  FLASHQOS_EXPECT(epsilon_ >= 0.0 && epsilon_ <= 1.0, "epsilon must be in [0,1]");
  for (const double p : p_table_) {
    FLASHQOS_EXPECT(p >= 0.0 && p <= 1.0, "P_k values must be probabilities");
  }
}

double StatisticalAdmission::q_with(std::optional<std::uint64_t> extra_k) const {
  double weighted = weighted_miss_;
  std::uint64_t total = n_t_;
  if (extra_k.has_value() && *extra_k > 0) {
    weighted += miss_probability(*extra_k);
    ++total;
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

std::uint64_t StatisticalAdmission::accept(std::uint64_t already,
                                           std::uint64_t count) const {
  // Everything within the deterministic limit is always safe.
  if (already + count <= limit_) return count;
  // Find the largest k' in (limit, already+count] that keeps Q < ε by a
  // downward scan. Every size past the P_k table misses with probability
  // 1, so q_with is one value across them: test it once and resume at the
  // table's last size, keeping the scan O(table size) however large the
  // offered count (a carried backlog) is.
  std::uint64_t k = already + count;
  if (k >= p_table_.size()) {
    if (q_with(k) < epsilon_) return count;
    k = p_table_.size() - 1;
  }
  for (; k > limit_; --k) {
    if (k <= already) return 0;  // already over the acceptable size
    if (q_with(k) < epsilon_) return k - already;
  }
  return already >= limit_ ? 0 : limit_ - already;
}

void StatisticalAdmission::set_budget(std::uint64_t deterministic_limit,
                                      std::vector<double> p_table) {
  FLASHQOS_EXPECT(!p_table.empty(), "statistical admission needs a P_k table");
  for (const double p : p_table) {
    FLASHQOS_EXPECT(p >= 0.0 && p <= 1.0, "P_k values must be probabilities");
  }
  limit_ = deterministic_limit;
  p_table_ = std::move(p_table);
  weighted_miss_ = 0.0;
  for (std::uint64_t k = 0; k < n_k_.size(); ++k) {
    if (n_k_[k] > 0) {
      weighted_miss_ += static_cast<double>(n_k_[k]) * miss_probability(k);
    }
  }
}

void StatisticalAdmission::end_interval(std::uint64_t demand, std::uint64_t admitted) {
  if (demand <= limit_) return;
  if (n_k_.size() <= admitted) n_k_.resize(admitted + 1, 0);
  ++n_k_[admitted];
  ++n_t_;
  // Trimmed intervals (admitted <= limit) contribute zero miss, so the
  // running Q decays while the controller is throttling and the loop
  // settles near ε.
  weighted_miss_ += miss_probability(admitted);
  if constexpr (obs::kEnabled) {
    // The Q time series: one sample per over-limit interval, after its
    // counters land (ppm keeps the histogram integral).
    auto& reg = obs::MetricRegistry::global();
    static obs::Counter& over_limit =
        reg.counter("admission.over_limit_intervals");
    static obs::LatencyHistogram& q_hist = reg.histogram("admission.q_ppm");
    over_limit.inc();
    q_hist.record(static_cast<std::int64_t>(std::llround(q_with() * 1e6)));
  }
}

}  // namespace flashqos::core
