// Rebuild planner tests: coverage, source balance, pacing, trace merging,
// and the end-to-end QoS impact of rebuild traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "fault/rebuild.hpp"
#include "trace/synthetic.hpp"

namespace flashqos::core {
namespace {

using decluster::DesignTheoretic;

const DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const DesignTheoretic s(d, true);
  return s;
}

TEST(RebuildPlan, CoversExactlyTheAffectedBuckets) {
  const auto plan = fault::plan_rebuild(scheme931(), 4);
  std::set<BucketId> planned;
  for (const auto& item : plan.items) planned.insert(item.bucket);
  for (BucketId b = 0; b < scheme931().buckets(); ++b) {
    const auto reps = scheme931().replicas(b);
    const bool affected = std::find(reps.begin(), reps.end(), 4u) != reps.end();
    EXPECT_EQ(planned.count(b) == 1, affected) << "bucket " << b;
  }
  // (9,3,1): each device stores 12 replicas -> 12 affected buckets.
  EXPECT_EQ(plan.items.size(), 12u);
}

TEST(RebuildPlan, SourcesAreSurvivingReplicas) {
  const auto plan = fault::plan_rebuild(scheme931(), 0);
  for (const auto& item : plan.items) {
    EXPECT_NE(item.source, 0u);
    const auto reps = scheme931().replicas(item.bucket);
    EXPECT_NE(std::find(reps.begin(), reps.end(), item.source), reps.end());
  }
}

TEST(RebuildPlan, SourceLoadIsBalanced) {
  const auto plan = fault::plan_rebuild(scheme931(), 7);
  std::vector<int> load(9, 0);
  for (const auto& item : plan.items) ++load[item.source];
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end() - 1);
  // 12 reads over 8 surviving devices: greedy keeps the spread tight.
  EXPECT_LE(*hi - *std::min_element(load.begin(), load.end()), 3);
  (void)lo;
  (void)hi;
}

TEST(RebuildPlan, DurationScalesWithRate) {
  const auto plan = fault::plan_rebuild(scheme931(), 2);
  EXPECT_EQ(plan.estimated_duration(1000.0),
            static_cast<SimTime>(plan.items.size()) * kMillisecond);
  EXPECT_GT(plan.estimated_duration(10.0), plan.estimated_duration(1000.0));
}

TEST(RebuildTrace, PacedAndSorted) {
  const auto plan = fault::plan_rebuild(scheme931(), 1);
  const auto t = fault::rebuild_trace(plan, 5 * kMillisecond, 2000.0);
  EXPECT_EQ(t.events.size(), plan.items.size());
  EXPECT_TRUE(trace::valid_trace(t));
  EXPECT_EQ(t.events.front().time, 5 * kMillisecond);
  EXPECT_EQ(t.events[1].time - t.events[0].time, kMillisecond / 2);
}

TEST(TraceMerge, InterleavesByTime) {
  trace::Trace a, b;
  a.report_interval = kSecond;
  a.events = {{.time = 0, .block = 1}, {.time = 100, .block = 2}};
  b.events = {{.time = 50, .block = 3}, {.time = 150, .block = 4}};
  const auto m = trace::merge(a, b);
  ASSERT_EQ(m.events.size(), 4u);
  EXPECT_TRUE(trace::valid_trace(m));
  EXPECT_EQ(m.events[0].block, 1u);
  EXPECT_EQ(m.events[1].block, 3u);
  EXPECT_EQ(m.events[2].block, 2u);
  EXPECT_EQ(m.events[3].block, 4u);
}

TEST(RebuildEndToEnd, RebuildTrafficServesFromPlannedSurvivors) {
  // Foreground + rebuild merged through the pipeline with the failed
  // device down: everything completes, nothing routed to the dead device.
  const auto& scheme = scheme931();
  const DeviceId dead = 6;
  const auto plan = fault::plan_rebuild(scheme, dead);
  const auto fg = trace::generate_synthetic({.bucket_pool = scheme.buckets(),
                                             .requests_per_interval = 3,
                                             .total_requests = 3000,
                                             .seed = 21});
  const auto merged = trace::merge(fg, fault::rebuild_trace(plan, 0, 5000.0));

  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.faults.outages = {{.device = dead, .fail_at = 0}};
  const auto r = QosPipeline(scheme, cfg).run(merged);
  EXPECT_EQ(r.overall.failed, 0u);
  EXPECT_EQ(r.deadline_violations, 0u);
  for (const auto& o : r.outcomes) EXPECT_NE(o.device, dead);
}

TEST(RebuildEndToEnd, RebuildRateTradesSpeedForDeferral) {
  const auto& scheme = scheme931();
  const DeviceId dead = 3;
  const auto plan = fault::plan_rebuild(scheme, dead);
  const auto fg = trace::generate_synthetic({.bucket_pool = scheme.buckets(),
                                             .requests_per_interval = 4,
                                             .total_requests = 12000,
                                             .seed = 23});
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.faults.outages = {{.device = dead, .fail_at = 0}};

  double slow_deferral = 0.0, fast_deferral = 0.0;
  for (const double rate : {2000.0, 20000.0}) {
    const auto merged = trace::merge(fg, fault::rebuild_trace(plan, 0, rate));
    const auto r = QosPipeline(scheme, cfg).run(merged);
    (rate < 10000.0 ? slow_deferral : fast_deferral) = r.overall.pct_deferred;
  }
  EXPECT_GE(fast_deferral, slow_deferral)
      << "aggressive rebuild competes harder with foreground reads";
}

}  // namespace
}  // namespace flashqos::core
