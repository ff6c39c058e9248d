// Discrete-event simulator of a flash storage array.
//
// The array is N flash modules behind a controller (paper Fig. 1). Each
// module serves requests FIFO across `ways` concurrent packages with a
// pluggable timing model. The simulator is a classic event-driven core:
// a time-ordered heap of arrival/completion events, deterministic
// tie-breaking by submission sequence, integer-nanosecond clock.
//
// This is the substitute for the paper's modified DiskSim + MSR SSD
// extension; see DESIGN.md for the substitution argument.
#pragma once

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "flashsim/module_model.hpp"
#include "flashsim/request.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/expect.hpp"

namespace flashqos::flashsim {

class FlashArray {
 public:
  FlashArray(std::uint32_t devices, std::shared_ptr<const ModuleModel> model);
  ~FlashArray() { flush_observability(); }
  FlashArray(const FlashArray&) = delete;
  FlashArray& operator=(const FlashArray&) = delete;

  [[nodiscard]] std::uint32_t devices() const noexcept {
    return static_cast<std::uint32_t>(modules_.size());
  }

  /// Submit a request. Requests may arrive in any order as long as their
  /// submit_time is not before the simulated clock (events already
  /// processed cannot be rewritten).
  void submit(const IoRequest& req);

  /// Advance the simulation, processing every event with time <= t.
  void run_until(SimTime t);

  /// Drain all pending work (runs to quiescence).
  void run();

  /// Simulated clock: time of the last processed event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Earliest time at which the device could start a new request, given
  /// everything queued so far. For ways > 1, the earliest-free package.
  [[nodiscard]] SimTime device_free_at(DeviceId d) const;

  /// Completions recorded so far, in completion order. take_completions()
  /// hands them off into `out` (cleared first) by swapping buffers, so a
  /// caller that keeps `out` alive reuses both capacities and draining
  /// completions every dispatch instant allocates nothing.
  [[nodiscard]] const std::vector<IoCompletion>& completions() const noexcept {
    return completions_;
  }
  void take_completions(std::vector<IoCompletion>& out);

  [[nodiscard]] std::size_t pending_requests() const noexcept { return pending_; }

  /// Publish this array's metric tallies to the process-wide registry and
  /// zero them. An array instance is single-threaded, so the event loop
  /// counts into plain members and only this flush touches the shared
  /// atomics — called from the destructor; call it explicitly before
  /// taking a registry snapshot while the array is still alive.
  void flush_observability() noexcept;

 private:
  struct Module {
    std::deque<IoRequest> queue;          // waiting, FIFO
    std::vector<SimTime> package_free;    // per-way next-free time
    std::uint32_t busy_ways = 0;
  };

  enum class EventType : std::uint8_t { kArrival, kCompletion };

  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among simultaneous events
    EventType type;
    DeviceId device;
    IoRequest request;        // kArrival payload
    IoCompletion completion;  // kCompletion payload

    bool operator>(const Event& other) const noexcept {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void process(const Event& e);
  void try_start(DeviceId d, SimTime at);

  /// Per-device registry handles, resolved once at construction. Counters
  /// accumulate across every array instance in the process (labels are
  /// device="N"), which is what the load-balance view wants: total
  /// accesses and busy time per device position.
  struct DeviceInstruments {
    obs::Counter* requests = nullptr;  // flashsim.device.requests
    obs::Counter* busy_ns = nullptr;   // flashsim.device.busy_ns
  };

  std::shared_ptr<const ModuleModel> model_;
  std::vector<Module> modules_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<IoCompletion> completions_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;

  // Observability (empty / null when FLASHQOS_OBS=OFF). The event loop
  // accumulates into the plain per-instance tallies; flush_observability()
  // publishes them to the registry instruments in one pass.
  struct DeviceTally {
    std::uint64_t requests = 0;
    std::uint64_t busy_ns = 0;
  };
  std::vector<DeviceInstruments> device_obs_;
  std::vector<DeviceTally> device_tally_;
  std::vector<std::uint64_t> depth_tally_;  // queue depth -> occurrences
  std::uint64_t submits_tally_ = 0;
  std::uint64_t completions_tally_ = 0;
  obs::Counter* submits_ = nullptr;
  obs::Counter* completions_count_ = nullptr;
  obs::LatencyHistogram* queue_depth_ = nullptr;
};

}  // namespace flashqos::flashsim
