// Per-shard circuit breaker for StreamingEngine: the routing and health
// policy, factored out of the engine so it is a pure function of
// (route/record calls, now). No locks, no clocks of its own — the caller
// passes the time in and serializes access (the engine drives it under
// its mutex; tests drive it directly with injected time points), the same
// shape as RecalibrationPolicy. tools/lint_invariants.py keeps it that way.
//
// The model, per shard:
//   * healthy — serves its own traffic; quarantine_after consecutive
//     failed shots quarantine it and arm the probe back-off;
//   * quarantined — traffic reroutes to the next healthy shard in scan
//     order, else to the fallback backend, else (last resort) to the
//     quarantined shard itself so no shot is ever stranded;
//   * half-open — from retry_at on, up to probe_shots shots route back as
//     probes. Any success on a quarantined shard (probe or last resort)
//     re-admits it; a failure restarts the back-off.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace mlqr {

/// Externally visible health of one shard (see ShardBreaker::health()).
enum class ShardHealth : std::uint8_t {
  kHealthy,      ///< Serving its own traffic.
  kProbing,      ///< Quarantined, with a half-open probe shot in flight.
  kQuarantined,  ///< Not serving; traffic reroutes until a probe succeeds
                 ///< or the shard is reset (swap_shard).
};

/// Breaker counters; StreamingStats carries them as its base.
struct BreakerCounts {
  std::uint64_t rerouted = 0;     ///< Shots served off their target shard.
  std::uint64_t quarantines = 0;  ///< Healthy -> quarantined transitions.
  std::uint64_t probes = 0;       ///< Half-open probe shots dispatched.
  std::uint64_t recoveries = 0;   ///< Quarantined -> healthy via a probe.
};

class ShardBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// Route::served_by value for shots sent to the fallback backend.
  static constexpr std::size_t kFallback = ~std::size_t{0};

  struct Route {
    std::size_t served_by;  ///< Shard index, or kFallback.
    bool probe;             ///< A half-open probe of a quarantined shard.
  };

  /// quarantine_after == 0 disables the breaker: every shot serves on its
  /// target and failures stay per-shot. probe_shots is clamped to >= 1.
  /// has_fallback says whether a fallback backend can take rerouted shots.
  ShardBreaker(std::size_t n_shards, std::size_t quarantine_after,
               std::chrono::microseconds probe_backoff,
               std::size_t probe_shots, bool has_fallback);

  /// Claim-time routing of one shot aimed at `target`. Counts reroutes and
  /// probes; a probe must be matched by a record() with probe = true.
  Route route(std::size_t target, Clock::time_point now);

  /// Completion-time bookkeeping for one classified shot: failure counting,
  /// quarantine transitions, probe evaluation, recovery. Fallback-served
  /// shots are ignored.
  void record(std::size_t served_by, bool probe, bool failed,
              Clock::time_point now);

  ShardHealth health(std::size_t shard) const;
  /// Back to healthy with no history (fresh calibration, fresh health).
  void reset(std::size_t shard);

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t quarantined_shards() const;
  const BreakerCounts& counts() const { return counts_; }

 private:
  struct ShardState {
    std::size_t consecutive_failures = 0;
    std::size_t probe_in_flight = 0;
    bool quarantined = false;
    /// Earliest time a half-open probe may route traffic back.
    Clock::time_point retry_at{};
  };

  std::size_t quarantine_after_;
  std::chrono::microseconds probe_backoff_;
  std::size_t probe_shots_;
  bool has_fallback_;
  std::vector<ShardState> shards_;
  BreakerCounts counts_;
};

}  // namespace mlqr
