#include "flashsim/flash_array.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace flashqos::flashsim {
namespace {

SimTime service_of(const ModuleModel& model, const IoRequest& req) {
  return req.service_override > 0 ? req.service_override : model.service_time(req);
}

}  // namespace

FlashArray::FlashArray(std::uint32_t devices, std::shared_ptr<const ModuleModel> model)
    : model_(std::move(model)), modules_(devices) {
  FLASHQOS_EXPECT(devices > 0, "array needs at least one module");
  FLASHQOS_EXPECT(model_ != nullptr, "array needs a timing model");
  const std::uint32_t ways = std::max<std::uint32_t>(1, model_->ways());
  for (auto& m : modules_) m.package_free.assign(ways, 0);
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricRegistry::global();
    device_obs_.resize(devices);
    device_tally_.resize(devices);
    for (std::uint32_t d = 0; d < devices; ++d) {
      const std::string label = "device=\"" + std::to_string(d) + "\"";
      device_obs_[d].requests = &reg.counter("flashsim.device.requests", label);
      device_obs_[d].busy_ns = &reg.counter("flashsim.device.busy_ns", label);
    }
    submits_ = &reg.counter("flashsim.submits");
    completions_count_ = &reg.counter("flashsim.completions");
    queue_depth_ = &reg.histogram("flashsim.queue_depth");
  }
}

void FlashArray::flush_observability() noexcept {
  if constexpr (obs::kEnabled) {
    if (submits_tally_ > 0) submits_->inc(submits_tally_);
    if (completions_tally_ > 0) completions_count_->inc(completions_tally_);
    submits_tally_ = 0;
    completions_tally_ = 0;
    for (std::size_t d = 0; d < device_tally_.size(); ++d) {
      auto& t = device_tally_[d];
      if (t.requests > 0) device_obs_[d].requests->inc(t.requests);
      if (t.busy_ns > 0) device_obs_[d].busy_ns->inc(t.busy_ns);
      t = {};
    }
    for (std::size_t depth = 0; depth < depth_tally_.size(); ++depth) {
      queue_depth_->record_n(static_cast<std::int64_t>(depth),
                             depth_tally_[depth]);
    }
    depth_tally_.clear();
  }
}

void FlashArray::submit(const IoRequest& req) {
  FLASHQOS_EXPECT(req.device < modules_.size(), "request device out of range");
  FLASHQOS_EXPECT(req.submit_time >= now_,
                  "cannot submit a request into the simulated past");
  FLASHQOS_EXPECT(req.pages >= 1, "request must read at least one page");
  events_.push(Event{.time = req.submit_time,
                     .seq = next_seq_++,
                     .type = EventType::kArrival,
                     .device = req.device,
                     .request = req,
                     .completion = {}});
  ++pending_;
  if constexpr (obs::kEnabled) ++submits_tally_;
}

void FlashArray::run_until(SimTime t) {
  while (!events_.empty() && events_.top().time <= t) {
    const Event e = events_.top();
    events_.pop();
    FLASHQOS_ASSERT(e.time >= now_, "event time regression");
    now_ = e.time;
    process(e);
  }
  now_ = std::max(now_, t);
}

void FlashArray::run() {
  // Drain every pending event but leave the clock at the last completion —
  // jumping to +infinity would forbid any further submissions.
  while (!events_.empty()) {
    const Event e = events_.top();
    events_.pop();
    FLASHQOS_ASSERT(e.time >= now_, "event time regression");
    now_ = e.time;
    process(e);
  }
}

void FlashArray::process(const Event& e) {
  Module& m = modules_[e.device];
  switch (e.type) {
    case EventType::kArrival:
      m.queue.push_back(e.request);
      if constexpr (obs::kEnabled) {
        const std::size_t depth = m.queue.size();
        if (depth >= depth_tally_.size()) depth_tally_.resize(depth + 1, 0);
        ++depth_tally_[depth];
      }
      try_start(e.device, e.time);
      break;
    case EventType::kCompletion:
      completions_.push_back(e.completion);
      --m.busy_ways;
      --pending_;
      if constexpr (obs::kEnabled) {
        const auto& c = e.completion;
        auto& t = device_tally_[e.device];
        ++t.requests;
        t.busy_ns += static_cast<std::uint64_t>(c.finish - c.start);
        ++completions_tally_;
        obs::Tracer::global().record(
            {.request = static_cast<std::int64_t>(c.id),
             .start = c.start,
             .end = c.finish,
             .value = 0,
             .device = static_cast<std::int32_t>(e.device),
             .kind = obs::EventKind::kDeviceService,
             .detail = obs::EventDetail::kNone});
      }
      try_start(e.device, e.time);
      break;
  }
}

void FlashArray::try_start(DeviceId d, SimTime at) {
  Module& m = modules_[d];
  while (!m.queue.empty() && m.busy_ways < m.package_free.size()) {
    // Earliest-free package; all are <= `at` when busy_ways < ways is the
    // only dispatch condition, but keep the general form for clarity.
    const auto it = std::min_element(m.package_free.begin(), m.package_free.end());
    const IoRequest req = m.queue.front();
    m.queue.pop_front();
    const SimTime start = std::max(at, *it);
    const SimTime finish = start + service_of(*model_, req);
    *it = finish;
    ++m.busy_ways;
    events_.push(Event{.time = finish,
                       .seq = next_seq_++,
                       .type = EventType::kCompletion,
                       .device = d,
                       .request = {},
                       .completion = IoCompletion{.id = req.id,
                                                  .device = d,
                                                  .submit_time = req.submit_time,
                                                  .start = start,
                                                  .finish = finish}});
  }
}

SimTime FlashArray::device_free_at(DeviceId d) const {
  FLASHQOS_EXPECT(d < modules_.size(), "device id out of range");
  const Module& m = modules_[d];
  // Pending queue entries serialize after the busiest package horizon; the
  // conservative next-free estimate is max(now, min package_free) plus the
  // queued work. For the common ways == 1 case this is exact.
  SimTime free = *std::min_element(m.package_free.begin(), m.package_free.end());
  free = std::max(free, now_);
  for (const auto& q : m.queue) free += service_of(*model_, q);
  return free;
}

void FlashArray::take_completions(std::vector<IoCompletion>& out) {
  out.clear();
  out.swap(completions_);
}

}  // namespace flashqos::flashsim
