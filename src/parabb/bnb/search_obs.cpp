#include "parabb/bnb/search_obs.hpp"

#include <span>
#include <string>

#include "parabb/obs/metrics.hpp"

namespace parabb {

void merge_search_stats(SearchStats& into, const SearchStats& from) {
  std::array<std::uint64_t, kSearchStatsFieldCount + 2> dst;
  std::array<std::uint64_t, kSearchStatsFieldCount + 2> src;
  for (std::size_t i = 0; i < kSearchStatsFieldCount; ++i) {
    dst[i] = into.*(kSearchStatsFields[i].member);
    src[i] = from.*(kSearchStatsFields[i].member);
  }
  dst[kSearchStatsFieldCount] = into.peak_active;
  src[kSearchStatsFieldCount] = from.peak_active;
  dst[kSearchStatsFieldCount + 1] = into.peak_memory_bytes;
  src[kSearchStatsFieldCount + 1] = from.peak_memory_bytes;
  accumulate(std::span<std::uint64_t>(dst),
             std::span<const std::uint64_t>(src));
  for (std::size_t i = 0; i < kSearchStatsFieldCount; ++i) {
    into.*(kSearchStatsFields[i].member) = dst[i];
  }
  into.peak_active = static_cast<std::size_t>(dst[kSearchStatsFieldCount]);
  into.peak_memory_bytes =
      static_cast<std::size_t>(dst[kSearchStatsFieldCount + 1]);
}

void SearchObs::bind(const Observation* obs, std::size_t channel,
                     bool with_flight) {
  if (!obs) return;
  if (obs->metrics) {
    for (std::size_t i = 0; i < kSearchStatsFieldCount; ++i) {
      const SearchStatsField& f = kSearchStatsFields[i];
      counters_[i] = obs->metrics->counter(
          f.metric ? std::string(f.metric)
                   : std::string("parabb_search_") + f.name + "_total");
    }
    peak_active_ = obs->metrics->gauge("parabb_search_peak_active");
    peak_memory_ = obs->metrics->gauge("parabb_search_peak_memory_bytes");
    ckpt_writes_ = obs->metrics->counter("parabb_ckpt_writes_total");
    ckpt_bytes_ = obs->metrics->counter("parabb_ckpt_bytes_total");
    ckpt_restores_ = obs->metrics->counter("parabb_ckpt_restores_total");
    metrics_ = true;
  }
  if (with_flight && obs->recorder) {
    flight_ = &obs->recorder->channel(channel);
  }
}

void SearchObs::bind_deque_depth(const Observation* obs, std::size_t worker) {
  if (!obs || !obs->metrics) return;
  deque_depth_ = obs->metrics->gauge("parabb_deque_depth_w" +
                                     std::to_string(worker));
}

void SearchObs::deque_depth(std::int64_t depth) noexcept {
  if (deque_depth_) deque_depth_->set(depth);
}

void SearchObs::checkpoint_written(std::int64_t bytes) noexcept {
  if (ckpt_writes_) {
    ckpt_writes_->add(1);
    ckpt_bytes_->add(static_cast<std::uint64_t>(bytes));
  }
  if (flight_)
    flight_->record(FlightEventKind::kCheckpoint, FlightPruneRule::kNone, 0,
                    bytes);
}

void SearchObs::checkpoint_restored(std::int64_t frontier) noexcept {
  if (ckpt_restores_) ckpt_restores_->add(1);
  if (flight_)
    flight_->record(FlightEventKind::kCheckpoint, FlightPruneRule::kNone, 1,
                    frontier);
}

void SearchObs::flush(const SearchStats& cur) {
  if (!metrics_) return;
  for (std::size_t i = 0; i < kSearchStatsFieldCount; ++i) {
    const std::uint64_t delta =
        cur.*(kSearchStatsFields[i].member) -
        last_.*(kSearchStatsFields[i].member);
    if (delta != 0) counters_[i]->add(delta);
  }
  peak_active_->set_max(static_cast<std::int64_t>(cur.peak_active));
  peak_memory_->set_max(static_cast<std::int64_t>(cur.peak_memory_bytes));
  last_ = cur;
}

}  // namespace parabb
