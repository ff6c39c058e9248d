// Unit tests for core::QosPipeline and replay_original: deterministic
// guarantee end to end, deferral accounting, interval-aligned vs online
// semantics, statistical admission behaviour, original-stand replay.
#include <gtest/gtest.h>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos::core {
namespace {

using decluster::DesignTheoretic;

const design::BlockDesign& design931() {
  static const auto d = design::make_9_3_1();
  return d;
}

trace::Trace bucket_trace(std::vector<std::pair<SimTime, BucketId>> reqs) {
  trace::Trace t;
  t.name = "unit";
  t.volumes = 0;
  t.report_interval = kSecond;
  for (const auto& [time, bucket] : reqs) {
    t.events.push_back({.time = time, .block = bucket, .device = 0});
  }
  return t;
}

TEST(QosPipeline, GuaranteedBatchMeetsDeadline) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  // 5 requests exactly on a boundary: all must finish within one latency.
  const auto r = pipe.run(bucket_trace({{0, 0}, {0, 7}, {0, 14}, {0, 21}, {0, 30}}));
  EXPECT_EQ(r.deadline_violations, 0u);
  EXPECT_EQ(r.overall.deferred, 0u);
  for (const auto& o : r.outcomes) {
    EXPECT_EQ(o.dispatch, 0);
    EXPECT_EQ(o.finish, kPageReadLatency);
  }
}

TEST(QosPipeline, SixthRequestIsDeferred) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 1u);
  // The deferred request dispatches at the next interval boundary.
  std::size_t deferred_idx = 0;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    if (r.outcomes[i].deferred()) deferred_idx = i;
  }
  EXPECT_EQ(r.outcomes[deferred_idx].dispatch, kBaseInterval);
  EXPECT_EQ(r.outcomes[deferred_idx].delay(), kBaseInterval);
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(QosPipeline, DeferralIsFifo) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  // 12 simultaneous requests: 5 now, 5 next interval, 2 the one after;
  // deferral must respect arrival order (trace order).
  std::vector<std::pair<SimTime, BucketId>> reqs;
  for (BucketId b = 0; b < 12; ++b) reqs.push_back({0, b});
  const auto r = pipe.run(bucket_trace(reqs));
  EXPECT_EQ(r.overall.deferred, 7u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.outcomes[i].dispatch, 0);
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(r.outcomes[i].dispatch, kBaseInterval) << i;
  }
  for (std::size_t i = 10; i < 12; ++i) {
    EXPECT_EQ(r.outcomes[i].dispatch, 2 * kBaseInterval) << i;
  }
}

TEST(QosPipeline, OnlineServesMidIntervalImmediately) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const SimTime mid = kBaseInterval / 2;
  const auto r = pipe.run(bucket_trace({{mid, 0}}));
  EXPECT_EQ(r.outcomes[0].dispatch, mid);
  EXPECT_EQ(r.outcomes[0].start, mid);
  EXPECT_EQ(r.outcomes[0].finish, mid + kPageReadLatency);
  EXPECT_FALSE(r.outcomes[0].deferred());
}

TEST(QosPipeline, AlignedDefersMidIntervalToBoundary) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const SimTime mid = kBaseInterval / 2;
  const auto r = pipe.run(bucket_trace({{mid, 0}}));
  EXPECT_EQ(r.outcomes[0].dispatch, kBaseInterval);
  EXPECT_EQ(r.outcomes[0].finish, kBaseInterval + kPageReadLatency);
}

TEST(QosPipeline, AdmissionNoneAcceptsEverything) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  std::vector<std::pair<SimTime, BucketId>> reqs;
  for (BucketId b = 0; b < 20; ++b) reqs.push_back({0, b % 36});
  const auto r = pipe.run(bucket_trace(reqs));
  EXPECT_EQ(r.overall.deferred, 0u);
  // 20 requests on 9 devices: at least ⌈20/9⌉ = 3 rounds somewhere.
  EXPECT_GE(r.overall.max_response_ms, to_ms(3 * kPageReadLatency) - 1e-9);
}

TEST(QosPipeline, StatisticalAdmitsSixWithLooseEpsilon) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kStatistical;
  cfg.mapping = MappingMode::kModulo;
  cfg.epsilon = 0.5;
  cfg.p_table = sample_optimal_probabilities(scheme, 12, {.samples_per_size = 500});
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 0u) << "ε = 0.5 accepts the 6th request";
}

TEST(QosPipeline, StatisticalTightEpsilonDefersLikeDeterministic) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kStatistical;
  cfg.mapping = MappingMode::kModulo;
  cfg.epsilon = 0.0;
  cfg.p_table = sample_optimal_probabilities(scheme, 12, {.samples_per_size = 500});
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 1u);
}

TEST(QosPipeline, EmptyTrace) {
  const DesignTheoretic scheme(design931(), true);
  QosPipeline pipe(scheme, {});
  const auto r = pipe.run(trace::Trace{});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_TRUE(r.intervals.empty());
}

// run() checks the whole trace up front: a streaming ingest only checks
// time order, so a zero-size request or an out-of-range device must still
// be refused at the in-memory entry.
TEST(QosPipelineDeathTest, RejectsInvalidTrace) {
  const DesignTheoretic scheme(design931(), true);
  auto zero_size = bucket_trace({{0, 0}, {5, 1}});
  zero_size.events[1].size_blocks = 0;
  EXPECT_DEATH((void)QosPipeline(scheme, {}).run(zero_size), "valid trace");
  auto bad_device = bucket_trace({{0, 0}, {5, 1}});
  bad_device.volumes = 2;
  bad_device.events[1].device = 2;
  EXPECT_DEATH((void)QosPipeline(scheme, {}).run(bad_device), "valid trace");
}

TEST(QosPipeline, ReportsSliceByArrivalInterval) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  trace::Trace t = bucket_trace({{0, 0}, {kSecond + 5, 1}, {kSecond + 10, 2}});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.intervals.size(), 2u);
  EXPECT_EQ(r.intervals[0].requests, 1u);
  EXPECT_EQ(r.intervals[1].requests, 2u);
}

TEST(ReplayOriginal, QueueingShowsInResponseTimes) {
  trace::Trace t;
  t.name = "orig";
  t.volumes = 2;
  t.report_interval = kSecond;
  // Three simultaneous requests to volume 0: FIFO queueing.
  t.events = {{.time = 0, .block = 1, .device = 0},
              {.time = 0, .block = 2, .device = 0},
              {.time = 0, .block = 3, .device = 0}};
  const auto r = replay_original(t);
  EXPECT_DOUBLE_EQ(r.overall.max_response_ms, to_ms(3 * kPageReadLatency));
  EXPECT_EQ(r.deadline_violations, 2u);  // 2nd and 3rd exceed 0.133 ms
  EXPECT_EQ(r.overall.deferred, 0u);
}

TEST(ReplayOriginal, ParallelVolumesNoQueueing) {
  trace::Trace t;
  t.volumes = 3;
  t.report_interval = kSecond;
  t.events = {{.time = 0, .block = 1, .device = 0},
              {.time = 0, .block = 2, .device = 1},
              {.time = 0, .block = 3, .device = 2}};
  const auto r = replay_original(t);
  EXPECT_DOUBLE_EQ(r.overall.max_response_ms, to_ms(kPageReadLatency));
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(QosPipeline, FimMappingMatchesAfterFirstInterval) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;
  QosPipeline pipe(scheme, cfg);
  trace::Trace t;
  t.volumes = 0;
  t.report_interval = 10 * kBaseInterval;
  // Interval 0: blocks 100 and 200 co-occur (same QoS window) repeatedly.
  // Interval 1: the same blocks return — they must be FIM-matched.
  for (int rep = 0; rep < 3; ++rep) {
    const SimTime base = rep * 2 * kBaseInterval;
    t.events.push_back({.time = base, .block = 100, .device = 0});
    t.events.push_back({.time = base, .block = 200, .device = 0});
  }
  const SimTime second = 10 * kBaseInterval;
  t.events.push_back({.time = second, .block = 100, .device = 0});
  t.events.push_back({.time = second, .block = 200, .device = 0});
  t.events.push_back({.time = second, .block = 999, .device = 0});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(r.intervals[0].fim_match_rate, 0.0)
      << "no history before the first interval";
  EXPECT_NEAR(r.intervals[1].fim_match_rate, 2.0 / 3.0, 1e-9);
}

TEST(QosPipeline, OutcomesCoverEveryRequestExactlyOnce) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const auto t = trace::generate_synthetic({.bucket_pool = 36,
                                            .requests_per_interval = 5,
                                            .total_requests = 500,
                                            .seed = 3});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.outcomes.size(), 500u);
  for (const auto& o : r.outcomes) {
    EXPECT_NE(o.device, kInvalidDevice);
    EXPECT_GE(o.dispatch, o.arrival);
    EXPECT_GE(o.start, o.dispatch);
    EXPECT_EQ(o.finish - o.start, kPageReadLatency);
  }
}

}  // namespace
}  // namespace flashqos::core
