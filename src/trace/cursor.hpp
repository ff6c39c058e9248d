// Pull-based trace cursors: interval batches without the whole trace.
//
// The paper's real traces are tens of millions of requests; materializing
// them as a Trace costs O(trace) memory before the first request replays.
// A TraceCursor instead yields events in trace order, a caller-sized batch
// at a time, so the streaming replay path (QosPipeline::run_stream) keeps
// memory O(batch + in-flight) regardless of trace length. Every producer
// implements the same interface: file readers (disksim/MSR, see
// stream_reader.hpp), the synthetic generators (synthetic.hpp /
// workload.hpp), and the VectorCursor adapter over an in-memory Trace.
//
// Cursor contract (the streaming≡in-memory identity in src/verify rests on
// it — see docs/ARCHITECTURE.md "Streaming replay"):
//  * fill() writes events in nondecreasing time order, exactly the events
//    an in-memory materialization would contain, in the same order;
//  * meta() is stable across the whole stream (name/volumes/interval);
//  * reset() rewinds to the first event and a second pass is bit-identical
//    to the first (file cursors re-scan; generator cursors re-seed).
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace flashqos::trace {

/// Stream-level metadata: what Trace carries besides the event vector.
struct TraceMeta {
  std::string name;
  std::uint32_t volumes = 0;
  SimTime report_interval = 0;
};

class TraceCursor {
 public:
  TraceCursor() = default;
  TraceCursor(const TraceCursor&) = delete;
  TraceCursor& operator=(const TraceCursor&) = delete;
  virtual ~TraceCursor() = default;

  [[nodiscard]] virtual const TraceMeta& meta() const noexcept = 0;

  /// Write the next events of the stream into `out` (trace order); returns
  /// how many were written. 0 means end of stream. Implementations buffer
  /// O(out.size()) events at most — never the tail of the trace.
  [[nodiscard]] virtual std::size_t fill(std::span<TraceEvent> out) = 0;

  /// Rewind to the first event; the next pass replays identically.
  virtual void reset() = 0;

  // ---- live-stream extensions (service::PipelineService) -----------------
  // Finite cursors (files, generators, VectorCursor) keep the defaults and
  // behave exactly as before: fill()==0 still means end of stream, and the
  // streaming engine's drain bound stays the last ingested arrival time.

  /// Lower bound on the arrival time of every event fill() has not yet
  /// delivered. A live producer raises this (an explicit flush, or the
  /// fact that all connected clients have submitted past t) so the engine
  /// can dispatch instants below it without waiting for more input. The
  /// promise is monotone and composes with the time-sorted contract above;
  /// the default (0) promises nothing beyond it.
  [[nodiscard]] virtual SimTime frontier() const noexcept { return 0; }

  /// Meaning of fill() returning 0: true (default) = end of stream; false
  /// = a live stream that is momentarily empty — the caller should drain
  /// up to frontier() and call fill() again (implementations block rather
  /// than spin).
  [[nodiscard]] virtual bool exhausted() const noexcept { return true; }
};

/// Adapter over an in-memory Trace (borrowed; must outlive the cursor).
class VectorCursor final : public TraceCursor {
 public:
  explicit VectorCursor(const Trace& t)
      : trace_(&t), meta_{t.name, t.volumes, t.report_interval} {}

  [[nodiscard]] const TraceMeta& meta() const noexcept override {
    return meta_;
  }

  [[nodiscard]] std::size_t fill(std::span<TraceEvent> out) override {
    const std::size_t n =
        std::min(out.size(), trace_->events.size() - pos_);
    for (std::size_t i = 0; i < n; ++i) out[i] = trace_->events[pos_ + i];
    pos_ += n;
    return n;
  }

  void reset() override { pos_ = 0; }

 private:
  const Trace* trace_;
  TraceMeta meta_;
  std::size_t pos_ = 0;
};

/// Base for producers that naturally emit one interval batch at a time
/// (the synthetic generators): fill() serves from a staging buffer that
/// produce() refills. Staging capacity is one generator batch — O(batch),
/// not O(trace).
class BatchStagedCursor : public TraceCursor {
 public:
  [[nodiscard]] std::size_t fill(std::span<TraceEvent> out) final {
    std::size_t written = 0;
    while (written < out.size()) {
      if (stage_pos_ == stage_.size()) {
        stage_.clear();
        stage_pos_ = 0;
        // Skip empty intervals: produce() may legitimately append nothing
        // and still have more of the stream to go.
        while (stage_.empty() && produce(stage_)) {
        }
        if (stage_.empty()) break;  // end of stream
      }
      const std::size_t n =
          std::min(out.size() - written, stage_.size() - stage_pos_);
      for (std::size_t i = 0; i < n; ++i) {
        out[written + i] = stage_[stage_pos_ + i];
      }
      stage_pos_ += n;
      written += n;
    }
    return written;
  }

 protected:
  /// Append the next batch of events to `out`; false = end of stream.
  /// May legitimately append nothing and return true (an empty interval).
  [[nodiscard]] virtual bool produce(std::vector<TraceEvent>& out) = 0;

  /// Subclass reset() implementations call this to drop staged events.
  void restart_stage() {
    stage_.clear();
    stage_pos_ = 0;
  }

 private:
  std::vector<TraceEvent> stage_;
  std::size_t stage_pos_ = 0;
};

/// Materialize a cursor into an in-memory Trace (tests, small traces, and
/// the legacy generate_* entry points).
[[nodiscard]] Trace drain_cursor(TraceCursor& c);

}  // namespace flashqos::trace
