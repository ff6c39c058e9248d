#include "core/parallel_replay.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fim/apriori.hpp"
#include "obs/metrics.hpp"
#include "util/handoff_queue.hpp"

namespace flashqos::core {
namespace {

/// Engine-level registry handles. Stage timings are wall-clock (what the
/// scaling PRs tune); they never feed back into simulated results.
struct EngineMetrics {
  obs::Counter& jobs;
  obs::Counter& mined_slices;
  obs::LatencyHistogram& handoff_occupancy;
  obs::LatencyHistogram& mine_ns;
  obs::LatencyHistogram& replay_ns;

  static EngineMetrics& get() {
    auto& reg = obs::MetricRegistry::global();
    static EngineMetrics m{reg.counter("parallel.jobs"),
                           reg.counter("parallel.mined_slices"),
                           reg.histogram("parallel.handoff_occupancy"),
                           reg.histogram("parallel.mine_ns"),
                           reg.histogram("parallel.replay_ns")};
    return m;
  }
};

/// Wall-clock nanoseconds since `t0`, for stage-timing histograms.
[[nodiscard]] std::int64_t elapsed_ns(
    // flashqos-lint: allow(wall-clock): stage-timing metric, never a result
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // flashqos-lint: allow(wall-clock): stage-timing metric only
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One mined reporting slice in flight between the mining stage and the
/// replay core.
struct MinedSlice {
  std::size_t idx = 0;
  std::vector<fim::FrequentPair> pairs;
};

/// FimSource for the replay core, fed by the producer that mines ahead of
/// it over the handoff queue. The slice count is unknown up front, so
/// arrived slices are keyed by index; the producer emits in slice order
/// and the core consumes in slice order, so the map stays O(lookahead).
/// A queue that closes before producing a requested slice means the miner
/// failed; its own exception surfaces when run_stream joins it.
class MinedSliceSource final : public FimSource {
 public:
  explicit MinedSliceSource(HandoffQueue<MinedSlice>& queue) : queue_(queue) {}

  std::span<const fim::FrequentPair> slice(std::size_t idx) override {
    // Earlier slices are never re-requested (the core mines forward only);
    // drop any the core skipped so memory cannot creep.
    ready_.erase(ready_.begin(), ready_.lower_bound(idx));
    auto it = ready_.find(idx);
    while (it == ready_.end()) {
      auto item = queue_.pop();
      if (!item.has_value()) {
        throw std::runtime_error(
            "parallel stream replay: mining stage closed before producing "
            "slice " + std::to_string(idx));
      }
      if (item->idx < idx) continue;  // skipped slice, already unneeded
      ready_.emplace(item->idx, std::move(item->pairs));
      it = ready_.find(idx);
    }
    current_ = std::move(it->second);
    ready_.erase(it);
    return current_;
  }

 private:
  HandoffQueue<MinedSlice>& queue_;
  std::map<std::size_t, std::vector<fim::FrequentPair>> ready_;
  std::vector<fim::FrequentPair> current_;  // span target until next call
};

/// Join every future; rethrow the first captured exception (if any),
/// preferring worker errors over `pending` (a consumer-side error that a
/// worker failure usually caused).
void join_all(std::vector<std::future<void>>& futures, std::exception_ptr pending) {
  std::exception_ptr worker_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!worker_error) worker_error = std::current_exception();
    }
  }
  if (worker_error) std::rethrow_exception(worker_error);
  if (pending) std::rethrow_exception(pending);
}

}  // namespace

ParallelReplayEngine::ParallelReplayEngine(ParallelReplayOptions opts)
    : opts_(opts), pool_(opts.threads) {
  FLASHQOS_EXPECT(opts_.mining_lookahead > 0,
                  "mining lookahead must be positive");
}

std::vector<PipelineResult> ParallelReplayEngine::run_jobs(
    std::span<const ReplayJob> jobs) {
  for (const auto& job : jobs) {
    FLASHQOS_EXPECT(job.scheme != nullptr && job.trace != nullptr,
                    "replay job needs a scheme and a trace");
  }
  // Pre-sized slots indexed by job id: each worker writes its own entry,
  // so the sweep result is independent of completion order.
  std::vector<PipelineResult> results(jobs.size());
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  if constexpr (obs::kEnabled) EngineMetrics::get().jobs.inc(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    futures.push_back(pool_.submit_with_future([&jobs, &results, i] {
      const auto& job = jobs[i];
      results[i] = QosPipeline(*job.scheme, job.config).run(*job.trace);
    }));
  }
  join_all(futures, nullptr);
  return results;
}

PipelineResult ParallelReplayEngine::run(const decluster::AllocationScheme& scheme,
                                         const PipelineConfig& cfg,
                                         const trace::Trace& t) {
  return run_materialized(t, cfg.qos_interval, [&](const StreamOptions& opts) {
    return run_stream(
        scheme, cfg, [&t] { return std::make_unique<trace::VectorCursor>(t); },
        opts);
  });
}

StreamResult ParallelReplayEngine::run_stream(
    const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
    const trace::CursorFactory& factory, const StreamOptions& opts) {
  FLASHQOS_EXPECT(static_cast<bool>(factory),
                  "stream replay needs a cursor factory");
  FLASHQOS_EXPECT(opts.batch_size > 0, "stream batch size must be positive");
  auto cursor = factory();
  FLASHQOS_EXPECT(cursor != nullptr, "cursor factory returned a null cursor");
  const SimTime ri = cursor->meta().report_interval;
  const bool mine = cfg.retrieval != RetrievalMode::kOnline &&
                    cfg.mapping == MappingMode::kFim && ri > 0;
  if (!mine) {
    // Serial fallback. Online dispatch is FCFS with earliest-finish replica
    // choice — the order requests hit the device clocks *is* the
    // semantics, so we do not split its stages; modulo mapping and
    // interval-free streams have no mining stage to run ahead.
    return QosPipeline(scheme, cfg).run_stream(*cursor, nullptr, opts);
  }

  // Producer: an independent pass over the stream (its own cursor), cutting
  // each reporting slice with the inline miner's SliceTransactionBuilder,
  // then mining and handing the pairs over the bounded queue. Mining is a
  // pure function of the slice, so mined-ahead pairs are bit-identical to
  // inline mining.
  HandoffQueue<MinedSlice> queue(opts_.mining_lookahead);
  std::vector<std::future<void>> miners;
  miners.push_back(pool_.submit_with_future([&] {
    try {
      auto mine_cursor = factory();
      FLASHQOS_EXPECT(mine_cursor != nullptr,
                      "cursor factory returned a null cursor");
      std::vector<trace::TraceEvent> buf(opts.batch_size);
      SliceTransactionBuilder tx(cfg.qos_interval);
      std::size_t slice = 0;
      bool stop = false;
      // Mine and hand off the slice under construction. push() returning
      // false means the replay core finished on a prefix and closed the
      // queue — nothing later can be needed, so the producer stops.
      const auto close_slice = [&] {
        // flashqos-lint: allow(wall-clock): miner stage-timing metric
        const auto t0 = std::chrono::steady_clock::now();
        MinedSlice m{slice,
                     fim::mine_pairs_apriori(tx.take(), cfg.fim_min_support).pairs};
        if (!queue.push(std::move(m))) {
          stop = true;
          return;
        }
        if constexpr (obs::kEnabled) {
          auto& em = EngineMetrics::get();
          em.mined_slices.inc();
          em.mine_ns.record(elapsed_ns(t0));
          em.handoff_occupancy.record(static_cast<std::int64_t>(queue.size()));
        }
        ++slice;
      };
      for (std::size_t n; !stop && (n = mine_cursor->fill(buf)) > 0;) {
        for (std::size_t i = 0; i < n && !stop; ++i) {
          const auto s = static_cast<std::size_t>(buf[i].time / ri);
          while (slice < s && !stop) close_slice();
          if (!stop) tx.add(buf[i]);
        }
      }
      if (!stop) close_slice();  // the slice holding the last event
    } catch (...) {
      queue.close();  // unblock the consumer; the future carries the error
      throw;
    }
  }));

  QosPipeline pipe(scheme, cfg);
  MinedSliceSource source(queue);
  StreamResult result;
  // flashqos-lint: allow(wall-clock): replay stage-timing metric
  const auto replay_t0 = std::chrono::steady_clock::now();
  try {
    result = pipe.run_stream(*cursor, &source, opts);
  } catch (...) {
    queue.close();
    join_all(miners, std::current_exception());
    throw;  // unreachable: join_all rethrows pending when no worker failed
  }
  // The core may consume only a prefix of the slices (the last dispatch
  // decides); close the queue so the producer stops blocking.
  queue.close();
  join_all(miners, nullptr);
  if constexpr (obs::kEnabled) {
    EngineMetrics::get().replay_ns.record(elapsed_ns(replay_t0));
  }
  return result;
}

}  // namespace flashqos::core
