#include "pipeline/shard_breaker.h"

#include <algorithm>

#include "common/error.h"

namespace mlqr {

ShardBreaker::ShardBreaker(std::size_t n_shards, std::size_t quarantine_after,
                           std::chrono::microseconds probe_backoff,
                           std::size_t probe_shots, bool has_fallback)
    : quarantine_after_(quarantine_after),
      probe_backoff_(probe_backoff),
      probe_shots_(std::max<std::size_t>(probe_shots, 1)),
      has_fallback_(has_fallback),
      shards_(n_shards) {}

ShardBreaker::Route ShardBreaker::route(std::size_t target,
                                        Clock::time_point now) {
  if (quarantine_after_ == 0) return {target, false};  // Breaker off.
  ShardState& st = shards_[target];
  if (!st.quarantined) return {target, false};
  // Half-open probe: once the back-off has elapsed, let a bounded number
  // of live shots test the shard (the first success re-admits it).
  if (now >= st.retry_at && st.probe_in_flight < probe_shots_) {
    ++st.probe_in_flight;
    ++counts_.probes;
    return {target, true};
  }
  // Quarantined: divert to the next healthy shard (deterministic scan
  // order keeps rerouting reproducible for a given failure pattern).
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    const std::size_t cand = (target + k) % shards_.size();
    if (!shards_[cand].quarantined) {
      ++counts_.rerouted;
      return {cand, false};
    }
  }
  if (has_fallback_) {
    ++counts_.rerouted;
    return {kFallback, false};
  }
  // Every shard quarantined and no fallback: last resort, serve on the
  // target anyway — a success recovers it, a failure restarts its
  // back-off, and either way the shot resolves instead of stranding.
  return {target, false};
}

void ShardBreaker::record(std::size_t served_by, bool probe, bool failed,
                          Clock::time_point now) {
  if (quarantine_after_ == 0 || served_by == kFallback) return;
  ShardState& st = shards_[served_by];
  if (probe && st.probe_in_flight > 0) --st.probe_in_flight;
  if (failed) {
    if (!st.quarantined) {
      if (++st.consecutive_failures >= quarantine_after_) {
        st.quarantined = true;
        ++counts_.quarantines;
        st.retry_at = now + probe_backoff_;
      }
    } else {
      // A failed probe (or last-resort traffic on an all-quarantined
      // engine): stay quarantined and restart the back-off window.
      st.retry_at = now + probe_backoff_;
    }
  } else {
    st.consecutive_failures = 0;
    if (st.quarantined) {
      // Any success on a quarantined shard — probe or last-resort — means
      // it is serving correct labels again: re-admit it.
      st.quarantined = false;
      ++counts_.recoveries;
    }
  }
}

ShardHealth ShardBreaker::health(std::size_t shard) const {
  MLQR_CHECK_MSG(shard < shards_.size(),
                 "shard_health index " << shard << " out of range (engine has "
                                       << shards_.size() << " shards)");
  const ShardState& st = shards_[shard];
  if (!st.quarantined) return ShardHealth::kHealthy;
  return st.probe_in_flight > 0 ? ShardHealth::kProbing
                                : ShardHealth::kQuarantined;
}

void ShardBreaker::reset(std::size_t shard) {
  shards_.at(shard) = ShardState{};
}

std::size_t ShardBreaker::quarantined_shards() const {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(),
                    [](const ShardState& st) { return st.quarantined; }));
}

}  // namespace mlqr
