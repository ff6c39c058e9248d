// Concurrency stress for the parallel replay machinery, written to give
// ThreadSanitizer something to chew on: many producers and consumers on a
// tiny HandoffQueue and repeated sharded sweeps. The assertions are deliberately simple — the
// point of these tests is the interleavings, and TSan turns any data race
// or lock-order bug they expose into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "core/parallel_replay.hpp"
#include "core/qos_pipeline.hpp"
#include "core/tenant_scheduler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "util/handoff_queue.hpp"
#include "util/thread_pool.hpp"
#include "verify/replay_equivalence.hpp"

using namespace flashqos;

namespace {

// Many producers, many consumers, capacity far below the element count so
// both sides block constantly. Every pushed value must be popped exactly
// once and the element sum conserved.
TEST(HandoffQueueStress, ManyProducersManyConsumersTinyCapacity) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  HandoffQueue<std::uint64_t> queue(2);

  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &pushed, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (!queue.push(p * kPerProducer + i)) return;
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &popped, &sum] {
      while (auto v = queue.pop()) {
        popped.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(pushed.load(), kTotal);
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

// close() racing against blocked producers: consumers stop early, so
// producers must observe push() -> false instead of blocking forever.
TEST(HandoffQueueStress, CloseUnblocksStalledProducers) {
  HandoffQueue<int> queue(1);
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, &rejected] {
      for (int i = 0; i < 500; ++i) {
        if (!queue.push(i)) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Drain a handful of elements, then slam the door.
  for (int i = 0; i < 5; ++i) (void)queue.pop();
  queue.close();
  for (auto& t : producers) t.join();
  EXPECT_GT(rejected.load(), 0);
  EXPECT_FALSE(queue.push(99));
  while (queue.pop()) {
  }
  EXPECT_FALSE(queue.pop().has_value());
}

const decluster::DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const decluster::DesignTheoretic s(d, true);
  return s;
}

trace::Trace tiny_interval_trace(std::uint64_t seed) {
  // Tiny intervals -> one reporting slice per QoS interval -> hundreds of
  // FIM rollovers per replay.
  trace::SyntheticParams p;
  p.bucket_pool = scheme931().buckets();
  p.requests_per_interval = 3;
  p.total_requests = 900;
  p.seed = seed;
  return trace::generate_synthetic(p);
}

// Sharded sweep stress: a wide job list (several distinct traces x modes),
// run twice on the same engine; slots must be populated identically while
// workers complete in whatever order the scheduler picks.
TEST(ParallelReplayStress, ShardedSweepRepeatedRuns) {
  std::vector<trace::Trace> traces;
  for (std::uint64_t s = 0; s < 4; ++s) traces.push_back(tiny_interval_trace(s));
  std::vector<core::ReplayJob> jobs;
  for (const auto& t : traces) {
    for (const auto retrieval : {core::RetrievalMode::kOnline,
                                 core::RetrievalMode::kIntervalAligned}) {
      for (const auto mapping :
           {core::MappingMode::kModulo, core::MappingMode::kFim}) {
        core::PipelineConfig cfg;
        cfg.retrieval = retrieval;
        cfg.mapping = mapping;
        jobs.push_back({&scheme931(), &t, cfg});
      }
    }
  }
  ASSERT_EQ(jobs.size(), 16u);
  core::ParallelReplayEngine engine({.threads = 4});
  const auto first = engine.run_jobs(jobs);
  const auto second = engine.run_jobs(jobs);
  ASSERT_EQ(first.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string why;
    ASSERT_TRUE(verify::results_identical(first[i], second[i], &why))
        << "job " << i << ": " << why;
  }
}

// Tenant-ingress seam under contention: many producer threads try_push
// into per-tenant bounded queues with a tiny capacity (so sheds race with
// drains) while one consumer pop_any()s everything. Conservation per
// tenant: every accepted item is popped exactly once, sheds account for
// the rest. TSan watches the mutex/condvar handoff and the close/drain
// handshake that check::Sched model-checks exhaustively.
TEST(TenantIngressStress, ManyProducersSingleDrainerConservation) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kPerProducer = 2000;
  core::TenantIngress ingress(kTenants, 2);

  std::atomic<std::uint64_t> accepted[kTenants] = {};
  std::atomic<std::uint64_t> shed[kTenants] = {};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t tenant = p % kTenants;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t id = p * kPerProducer + i;
        if (ingress.try_push(tenant, id)) {
          accepted[tenant].fetch_add(1, std::memory_order_relaxed);
        } else {
          shed[tenant].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::uint64_t popped[kTenants] = {};
  std::thread drainer([&] {
    while (auto item = ingress.pop_any()) ++popped[item->first];
  });

  for (auto& t : producers) t.join();
  ingress.close();
  drainer.join();

  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(popped[t], accepted[t].load()) << "tenant " << t;
    EXPECT_EQ(accepted[t].load() + shed[t].load(),
              (kProducers / kTenants) * kPerProducer)
        << "tenant " << t;
  }
  // Close-then-drain: nothing poppable or pushable afterwards.
  EXPECT_FALSE(ingress.try_push(0, 1));
  EXPECT_FALSE(ingress.pop_any().has_value());
}

// close() racing a drainer blocked on all-empty queues: the consumer must
// wake and observe nullopt, never a lost wakeup.
TEST(TenantIngressStress, CloseWakesBlockedDrainer) {
  for (int round = 0; round < 50; ++round) {
    core::TenantIngress ingress(2, 4);
    std::thread drainer([&] {
      while (ingress.pop_any()) {
      }
    });
    (void)ingress.try_push(1, 7);
    ingress.close();
    drainer.join();  // hangs here if the wakeup is lost
  }
}

// Multi-tenant jobs swept repeatedly on one engine: the tenant dispatch
// path (interval rollover, wake machinery, budget draws) runs in several
// workers at once, with every slot pinned across rounds.
TEST(ParallelReplayStress, MultiTenantRepeatedRuns) {
  trace::MultiTenantParams mt;
  mt.intervals = 150;
  mt.tenants = {
      {.requests_per_interval = 2, .bucket_pool = 8},
      {.requests_per_interval = 6, .bucket_pool = 12},
  };
  mt.seed = 41;
  mt.jitter_slots = 2;
  const auto t = trace::generate_multi_tenant(mt);
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.tenants = {
      {.name = "gold", .weight = 2.0, .reservation = 2},
      {.name = "flood", .weight = 1.0, .reservation = 0,
       .queue_capacity = 8, .mark_threshold = 6},
  };
  std::vector<core::ReplayJob> jobs(4, core::ReplayJob{&scheme931(), &t, cfg});
  jobs[1].config.retrieval = core::RetrievalMode::kOnline;
  jobs[3].config.retrieval = core::RetrievalMode::kOnline;
  core::ParallelReplayEngine engine({.threads = 4});
  const auto first = engine.run_jobs(jobs);
  EXPECT_GT(first[0].tenant_usage[1].shed, 0u);
  for (int round = 0; round < 3; ++round) {
    const auto again = engine.run_jobs(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::string why;
      ASSERT_TRUE(verify::results_identical(first[i], again[i], &why))
          << "round " << round << " job " << i << ": " << why;
    }
  }
}

// Wide submit_with_future fan-out on a shared pool: futures must all
// complete and the packaged-task plumbing must be race-free.
TEST(ParallelReplayStress, SubmitWithFutureFanOut) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 512;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  std::atomic<std::size_t> ran{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit_with_future(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), kTasks);
}

}  // namespace
