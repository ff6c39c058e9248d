// Unit tests for the streaming trace path: chunk-boundary framing in the
// byte-source line scanner, file-cursor ≡ in-memory-reader identity,
// structured parse-error handling, cursor reset, the run_stream batch-size
// sweep, and the single-pass streaming statistics.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/cursor.hpp"
#include "trace/disksim_format.hpp"
#include "trace/msr_format.hpp"
#include "trace/stats.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic.hpp"

namespace flashqos::trace {
namespace {

void expect_same_events(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    EXPECT_EQ(x.time, y.time) << "event " << i;
    EXPECT_EQ(x.block, y.block) << "event " << i;
    EXPECT_EQ(x.device, y.device) << "event " << i;
    EXPECT_EQ(x.size_blocks, y.size_blocks) << "event " << i;
    EXPECT_EQ(x.is_read, y.is_read) << "event " << i;
  }
}

Trace small_trace() {
  SyntheticParams p;
  p.bucket_pool = 36;
  p.requests_per_interval = 4;
  p.total_requests = 200;
  p.seed = 7;
  return generate_synthetic(p);
}

DisksimCursor disksim_cursor_over(std::string text, std::size_t chunk_bytes,
                                  const Trace& like,
                                  std::size_t max_diags = 64) {
  return DisksimCursor(
      std::make_unique<MemoryByteSource>(std::move(text), chunk_bytes),
      like.name, like.volumes, like.report_interval, max_diags);
}

TEST(StreamReader, ChunkBoundariesNeverChangeTheParse) {
  const auto t = small_trace();
  std::ostringstream out;
  write_disksim_ascii(t, out);
  const std::string text = out.str();
  // Every chunk size — including 1 byte, where every record straddles a
  // chunk edge — must frame the identical event stream.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{61}, std::size_t{1} << 20}) {
    auto cursor = disksim_cursor_over(text, chunk, t);
    const auto got = drain_cursor(cursor);
    EXPECT_EQ(cursor.parse_errors(), 0u) << "chunk=" << chunk;
    expect_same_events(t, got);
  }
}

TEST(StreamReader, MatchesInMemoryReaderOnTheSameBytes) {
  const auto t = small_trace();
  std::ostringstream out;
  write_disksim_ascii(t, out);
  const std::string text = out.str();
  std::istringstream in(text);
  const auto want =
      read_disksim_ascii(in, t.name, t.volumes, t.report_interval);
  auto cursor = disksim_cursor_over(text, 17, t);
  expect_same_events(want, drain_cursor(cursor));
}

TEST(StreamReader, CrlfCommentsBlanksAndMissingFinalNewline) {
  Trace like;
  like.name = "framing";
  like.volumes = 4;
  like.report_interval = kMillisecond;
  const std::string text =
      "# header comment\r\n"
      "\r\n"
      "0.5 1 100 16 1\r\n"
      "\n"
      "1.5 2 200 32 0\n"
      "2.5 3 300 16 1";  // final line without a newline
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
    auto cursor = disksim_cursor_over(text, chunk, like);
    const auto got = drain_cursor(cursor);
    EXPECT_EQ(cursor.parse_errors(), 0u);
    ASSERT_EQ(got.events.size(), 3u);
    EXPECT_EQ(got.events[0].time, from_ms(0.5));
    EXPECT_EQ(got.events[1].device, 2u);
    EXPECT_EQ(got.events[1].size_blocks, 2u);
    EXPECT_FALSE(got.events[1].is_read);
    EXPECT_EQ(got.events[2].block, 300u);
  }
}

TEST(StreamReader, MalformedLinesAreSkippedCountedAndCapped) {
  Trace like;
  like.name = "errors";
  like.volumes = 4;
  like.report_interval = kMillisecond;
  const std::string text =
      "0.5 1 100 16 1\n"
      "garbage\n"              // malformed (line 2)
      "1.5 2 200 17 1\n"       // sectors not 8KB-aligned (line 3)
      "0.2 3 300 16 1\n"       // out of order vs last accepted (line 4)
      "2.5 9 400 16 1\n"       // device >= volumes (line 5)
      "3.5 3 500 16 1\n";
  auto cursor = disksim_cursor_over(text, 8, like, /*max_diags=*/2);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.events.size(), 2u);  // only the two clean in-order lines
  EXPECT_EQ(got.events[0].block, 100u);
  EXPECT_EQ(got.events[1].block, 500u);
  EXPECT_EQ(cursor.parse_errors(), 4u);  // counting continues past the cap
  ASSERT_EQ(cursor.diagnostics().size(), 2u);  // retention is capped
  EXPECT_EQ(cursor.diagnostics()[0].line, 2u);
  EXPECT_EQ(cursor.diagnostics()[1].line, 3u);
}

TEST(StreamReader, EmptyInputYieldsNothing) {
  Trace like;
  like.volumes = 1;
  like.report_interval = kMillisecond;
  auto cursor = disksim_cursor_over("", 8, like);
  const auto got = drain_cursor(cursor);
  EXPECT_TRUE(got.events.empty());
  EXPECT_EQ(cursor.parse_errors(), 0u);
}

TEST(StreamReader, ResetReplaysBitIdentically) {
  const auto t = small_trace();
  std::ostringstream out;
  write_disksim_ascii(t, out);
  auto cursor = disksim_cursor_over(out.str(), 13, t);
  const auto first = drain_cursor(cursor);
  cursor.reset();
  EXPECT_EQ(cursor.parse_errors(), 0u);
  const auto second = drain_cursor(cursor);
  expect_same_events(first, second);
}

TEST(StreamReader, MsrCursorMatchesInMemoryReader) {
  const auto t = small_trace();
  std::ostringstream out;
  write_msr_csv(t, out);
  const std::string text = out.str();
  MsrReadOptions opts;
  // The streaming reader cannot infer max-disk+1; synthetic traces leave
  // volumes at 0, so pin the single volume explicitly on both readers.
  opts.volumes = 1;
  opts.report_interval = t.report_interval;
  std::istringstream in(text);
  const auto want = read_msr_csv(in, t.name, opts);
  MsrCursor cursor(std::make_unique<MemoryByteSource>(text, 19), t.name,
                   opts);
  const auto got = drain_cursor(cursor);
  EXPECT_EQ(cursor.parse_errors(), 0u);
  expect_same_events(want, got);
}

TEST(StreamingStats, MatchesTheInMemoryIntervalStats) {
  const auto t = small_trace();
  const SimTime window = t.report_interval / 20;
  const auto want = interval_stats(t, window);

  StreamingTraceStats stats(t.report_interval, window);
  for (const auto& e : t.events) stats.add(e);
  stats.finish();
  ASSERT_EQ(stats.intervals().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(stats.intervals()[i].total_reads, want[i].total_reads);
    EXPECT_DOUBLE_EQ(stats.intervals()[i].avg_reads_per_sec,
                     want[i].avg_reads_per_sec);
    EXPECT_DOUBLE_EQ(stats.intervals()[i].max_reads_per_sec,
                     want[i].max_reads_per_sec);
  }

  VectorCursor cursor(t);
  const auto streamed = interval_stats(cursor, window);
  ASSERT_EQ(streamed.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(streamed[i].total_reads, want[i].total_reads);
    EXPECT_DOUBLE_EQ(streamed[i].avg_reads_per_sec,
                     want[i].avg_reads_per_sec);
    EXPECT_DOUBLE_EQ(streamed[i].max_reads_per_sec,
                     want[i].max_reads_per_sec);
  }
}

// The batch-size sweep: the streaming engine's results are exactly run()'s
// whatever the cursor hands it per fill() call. (The full identity —
// metric registry, windowed time-series, generator and file cursors,
// mutation trip — is flashqos_verify --stream.)
TEST(StreamReplay, BatchSizeNeverChangesTheResult) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = small_trace();
  for (const bool aligned : {false, true}) {
    core::PipelineConfig cfg;
    if (aligned) cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    const auto want = core::QosPipeline(scheme, cfg).run(t);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}}) {
      VectorCursor cursor(t);
      const auto got = core::QosPipeline(scheme, cfg).run_stream(
          cursor, {.batch_size = batch});
      EXPECT_EQ(got.requests, want.outcomes.size());
      EXPECT_EQ(got.deadline_violations, want.deadline_violations);
      ASSERT_EQ(got.intervals.size(), want.intervals.size());
      const auto expect_report_eq = [&](const core::IntervalReport& a,
                                        const core::IntervalReport& b) {
        EXPECT_EQ(a.requests, b.requests);
        EXPECT_DOUBLE_EQ(a.avg_response_ms, b.avg_response_ms);
        EXPECT_DOUBLE_EQ(a.max_response_ms, b.max_response_ms);
        EXPECT_DOUBLE_EQ(a.avg_e2e_ms, b.avg_e2e_ms);
        EXPECT_EQ(a.deferred, b.deferred);
        EXPECT_DOUBLE_EQ(a.avg_delay_ms, b.avg_delay_ms);
        EXPECT_EQ(a.failed, b.failed);
        EXPECT_EQ(a.writes, b.writes);
      };
      for (std::size_t i = 0; i < want.intervals.size(); ++i) {
        expect_report_eq(want.intervals[i], got.intervals[i]);
      }
      expect_report_eq(want.overall, got.overall);
    }
  }
}

}  // namespace
}  // namespace flashqos::trace
