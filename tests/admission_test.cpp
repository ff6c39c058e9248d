// Unit tests for src/core admission control: the deterministic limit, the
// paper's Table I application walkthrough, and the statistical Q < ε rule.
#include <gtest/gtest.h>

#include "core/admission.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"

namespace flashqos::core {
namespace {

TEST(DeterministicAdmission, LimitIsGuaranteeFormula) {
  EXPECT_EQ(DeterministicAdmission(3, 1).limit(), 5u);
  EXPECT_EQ(DeterministicAdmission(3, 2).limit(), 14u);
  EXPECT_EQ(DeterministicAdmission(3, 3).limit(), 27u);
  EXPECT_EQ(DeterministicAdmission(2, 1).limit(), 3u);
}

TEST(DeterministicAdmission, AcceptsUpToLimit) {
  const DeterministicAdmission a(3, 1);  // S = 5
  EXPECT_EQ(a.accept(0, 3), 3u);
  EXPECT_EQ(a.accept(3, 3), 2u);
  EXPECT_EQ(a.accept(5, 1), 0u);
  EXPECT_EQ(a.accept(0, 100), 5u);
}

TEST(ApplicationRegistry, PaperTableIWalkthrough) {
  // (9,3,1), M = 1 → S = 5. App1 wants 2/period, App2 wants 2, App3 wants 1;
  // all admitted, system full; App4 must be rejected until someone leaves.
  ApplicationRegistry reg(5);
  const auto app1 = reg.admit(2);
  ASSERT_TRUE(app1.has_value());
  EXPECT_EQ(reg.reserved(), 2u);
  const auto app2 = reg.admit(2);
  ASSERT_TRUE(app2.has_value());
  EXPECT_EQ(reg.reserved(), 4u);
  const auto app3 = reg.admit(1);
  ASSERT_TRUE(app3.has_value());
  EXPECT_EQ(reg.reserved(), 5u);
  EXPECT_FALSE(reg.admit(1).has_value());
  reg.remove(*app2);
  EXPECT_EQ(reg.reserved(), 3u);
  EXPECT_TRUE(reg.admit(2).has_value());
}

TEST(ApplicationRegistry, RemoveUnknownAborts) {
  ApplicationRegistry reg(5);
  EXPECT_DEATH(reg.remove(99), "unknown application");
}

TEST(StatisticalAdmission, WithinLimitAlwaysAccepted) {
  StatisticalAdmission a({1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 5, 0.0);
  EXPECT_EQ(a.accept(0, 5), 5u);
  EXPECT_EQ(a.accept(2, 3), 3u);
}

TEST(StatisticalAdmission, EpsilonZeroIsDeterministic) {
  // Even with P_k == 1 beyond the limit, ε = 0 means Q < 0 never holds.
  StatisticalAdmission a({1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 5, 0.0);
  EXPECT_EQ(a.accept(0, 7), 5u);
}

TEST(StatisticalAdmission, AcceptsBeyondLimitWhenQSmall) {
  // P_6 = 0.99: accepting one interval of size 6 gives Q = 0.01.
  std::vector<double> p(10, 1.0);
  p[6] = 0.99;
  p[7] = 0.5;
  StatisticalAdmission a(p, 5, 0.05);
  EXPECT_EQ(a.accept(0, 6), 6u);   // Q(6) = 0.01 < 0.05
  EXPECT_EQ(a.accept(0, 7), 6u);   // Q(7) = 0.5 ≥ 0.05 → cut back to 6
}

TEST(StatisticalAdmission, ThrottledIntervalsDiluteQ) {
  std::vector<double> p(10, 1.0);
  p[6] = 0.8;  // each accepted size-6 interval contributes 0.2 misses
  StatisticalAdmission a(p, 5, 0.05);
  // Fresh controller: one size-6 interval alone gives Q = 0.2 ≥ ε.
  EXPECT_EQ(a.accept(0, 6), 5u);
  // Over-limit intervals trimmed back to S contribute zero miss but are
  // counted, so the running Q decays while the controller throttles.
  for (int i = 0; i < 10; ++i) a.end_interval(6, 5);
  EXPECT_EQ(a.accept(0, 6), 6u);  // Q = 0.2/11 ≈ 0.018 < 0.05
}

TEST(StatisticalAdmission, QComputation) {
  std::vector<double> p(8, 1.0);
  p[6] = 0.9;
  p[7] = 0.5;
  StatisticalAdmission a(p, 5, 1.0);
  a.end_interval(6, 6);
  a.end_interval(6, 6);
  a.end_interval(7, 7);
  a.end_interval(3, 3);  // within the limit: not counted
  // Q = (2·0.1 + 1·0.5) / 3
  EXPECT_NEAR(a.q_with(), (0.2 + 0.5) / 3.0, 1e-12);
  // With one additional size-7 interval: (0.7 + 0.5) / 4 = 0.3.
  EXPECT_NEAR(a.q_with(7), 0.3, 1e-12);
}

TEST(StatisticalAdmission, WithinLimitIntervalsNotCounted) {
  StatisticalAdmission a({1.0, 0.5, 0.25}, 1, 1.0);
  a.end_interval(1, 1);
  a.end_interval(1, 1);
  EXPECT_DOUBLE_EQ(a.q_with(), 0.0);
  a.end_interval(2, 2);
  EXPECT_DOUBLE_EQ(a.q_with(), 0.75);
  a.end_interval(2, 1);  // throttled to size 1: miss(1) = 0.5
  EXPECT_DOUBLE_EQ(a.q_with(), (0.75 + 0.5) / 2.0);
}

TEST(StatisticalAdmission, BeyondTableIsPessimistic) {
  StatisticalAdmission a({1.0, 1.0, 1.0}, 2, 0.3);
  // Size 50 is beyond the table: treated as P = 0, so a fresh controller
  // computes Q = 1 and refuses anything past the deterministic limit.
  EXPECT_EQ(a.accept(0, 50), 2u);
}

TEST(StatisticalAdmission, LargerEpsilonAcceptsMore) {
  std::vector<double> p(12, 1.0);
  for (std::size_t k = 6; k < p.size(); ++k) {
    p[k] = 1.0 - 0.05 * static_cast<double>(k - 5);  // increasing miss prob
  }
  std::uint64_t prev = 0;
  for (const double eps : {0.01, 0.1, 0.2, 0.4}) {
    StatisticalAdmission a(p, 5, eps);
    const auto accepted = a.accept(0, 11);
    EXPECT_GE(accepted, prev) << "monotone in epsilon";
    prev = accepted;
  }
}

TEST(Sampler, ParallelSamplingIsThreadCountInvariant) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const SamplerParams base{.samples_per_size = 500, .seed = 3, .threads = 1};
  SamplerParams quad = base;
  quad.threads = 4;
  const auto serial = sample_optimal_probabilities(scheme, 10, base);
  const auto parallel = sample_optimal_probabilities(scheme, 10, quad);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_DOUBLE_EQ(serial[k], parallel[k]) << "k=" << k;
  }
}

TEST(Sampler, Fig4ShapeFor931) {
  // The paper's Fig. 4: P_k dips approaching k = N = 9 (P_9 ≈ 0.75) and
  // snaps back to 1 at k = 10 (optimal becomes 2 accesses).
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto p = sample_optimal_probabilities(scheme, 12,
                                              {.samples_per_size = 2000, .seed = 5});
  ASSERT_EQ(p.size(), 13u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  for (std::uint32_t k = 1; k <= 3; ++k) {
    EXPECT_DOUBLE_EQ(p[k], 1.0) << "k=" << k << ": too few draws to collide";
  }
  // Sampling is with replacement (paper: "the same design block is allowed
  // to be chosen multiple times"), so even k = 4, 5 dip fractionally below
  // 1 (a bucket drawn four times cannot fit one access on three replicas).
  EXPECT_GT(p[4], 0.995);
  EXPECT_GT(p[5], 0.99);
  EXPECT_GT(p[6], 0.95);
  EXPECT_GT(p[7], 0.93);
  EXPECT_GT(p[8], 0.90);
  EXPECT_NEAR(p[9], 0.75, 0.06);
  EXPECT_GT(p[10], 0.999);
  EXPECT_GT(p[6], p[8]);
  EXPECT_GT(p[8], p[9]);
}

}  // namespace
}  // namespace flashqos::core
