#include "parabb/obs/recorder.hpp"

#include <bit>

#include "parabb/support/assert.hpp"
#include "parabb/support/json.hpp"

namespace parabb {

std::string to_string(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kExpand: return "expand";
    case FlightEventKind::kPrune: return "prune";
    case FlightEventKind::kIncumbent: return "incumbent";
    case FlightEventKind::kBudget: return "budget";
    case FlightEventKind::kDispose: return "dispose";
    case FlightEventKind::kSteal: return "steal";
    case FlightEventKind::kDegrade: return "degrade";
    case FlightEventKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

std::string to_string(FlightPruneRule r) {
  switch (r) {
    case FlightPruneRule::kNone: return "none";
    case FlightPruneRule::kBound: return "bound";
    case FlightPruneRule::kCharacteristic: return "characteristic";
    case FlightPruneRule::kTransposition: return "transposition";
  }
  return "?";
}

FlightChannel::FlightChannel(std::size_t capacity) {
  PARABB_REQUIRE(capacity > 0, "flight channel capacity must be > 0");
  const std::size_t rounded = std::bit_ceil(std::max<std::size_t>(capacity, 8));
  ring_.resize(rounded);
  mask_ = rounded - 1;
}

std::vector<FlightEvent> FlightChannel::chronological() const {
  std::vector<FlightEvent> out;
  const std::uint64_t first = dropped();
  out.reserve(static_cast<std::size_t>(next_ - first));
  for (std::uint64_t i = first; i < next_; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {}

FlightChannel& FlightRecorder::channel(std::size_t worker) {
  const std::lock_guard lock(mutex_);
  if (worker >= channels_.size()) channels_.resize(worker + 1);
  if (!channels_[worker]) {
    channels_[worker] = std::make_unique<FlightChannel>(capacity_);
  }
  return *channels_[worker];
}

std::size_t FlightRecorder::channel_count() const {
  const std::lock_guard lock(mutex_);
  return channels_.size();
}

JsonValue FlightRecorder::dump_json() const {
  const std::lock_guard lock(mutex_);
  JsonValue out = JsonValue::object();
  out.set("capacity",
          static_cast<std::int64_t>(channels_.empty()
                                        ? capacity_
                                        : channels_[0]->capacity()));
  JsonValue workers = JsonValue::array();
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i]) continue;
    const FlightChannel& ch = *channels_[i];
    JsonValue w = JsonValue::object();
    w.set("worker", static_cast<std::int64_t>(i));
    w.set("total", ch.total());
    w.set("dropped", ch.dropped());
    JsonValue events = JsonValue::array();
    for (const FlightEvent& e : ch.chronological()) {
      JsonValue ev = JsonValue::object();
      ev.set("seq", e.seq);
      ev.set("event", parabb::to_string(e.kind));
      if (e.kind == FlightEventKind::kPrune) {
        ev.set("rule", parabb::to_string(e.rule));
      }
      ev.set("level", static_cast<std::int64_t>(e.level));
      ev.set("value", e.value);
      events.push_back(std::move(ev));
    }
    w.set("events", std::move(events));
    workers.push_back(std::move(w));
  }
  out.set("workers", std::move(workers));
  return out;
}

std::string FlightRecorder::to_string() const {
  const std::lock_guard lock(mutex_);
  std::string out;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i]) continue;
    const FlightChannel& ch = *channels_[i];
    out += "worker " + std::to_string(i) + " (" +
           std::to_string(ch.total()) + " events, " +
           std::to_string(ch.dropped()) + " dropped)\n";
    for (const FlightEvent& e : ch.chronological()) {
      out += "  #" + std::to_string(e.seq) + ' ' + parabb::to_string(e.kind);
      if (e.kind == FlightEventKind::kPrune) {
        out += '[' + parabb::to_string(e.rule) + ']';
      }
      out += " level=" + std::to_string(e.level) +
             " value=" + std::to_string(e.value) + '\n';
    }
  }
  return out;
}

}  // namespace parabb
