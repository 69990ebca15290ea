// StreamingEngine's two pure policies driven directly: the ShardBreaker
// state machine with injected time points (transitions the engine-level
// tests can only reach through sleeps, or not at all) and the DriftMonitor
// trackers with hand-computed, exactly representable expectations.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/error.h"
#include "pipeline/drift_monitor.h"
#include "pipeline/shard_breaker.h"

namespace mlqr {
namespace {

using namespace std::chrono_literals;
using Route = ShardBreaker::Route;
using TimePoint = ShardBreaker::Clock::time_point;

constexpr auto kBackoff = 100us;
/// An arbitrary origin: the breaker only ever compares and adds.
const TimePoint kT0 = TimePoint{} + 1s;

void expect_route(const Route& r, std::size_t served_by, bool probe) {
  EXPECT_EQ(r.served_by, served_by);
  EXPECT_EQ(r.probe, probe);
}

/// Fails `shard` until it quarantines (quarantine_after failures at kT0).
void trip(ShardBreaker& b, std::size_t shard, std::size_t quarantine_after) {
  for (std::size_t k = 0; k < quarantine_after; ++k)
    b.record(shard, /*probe=*/false, /*failed=*/true, kT0);
  ASSERT_EQ(b.health(shard), ShardHealth::kQuarantined);
}

TEST(ShardBreaker, DisabledServesEveryShotOnItsTarget) {
  ShardBreaker b(3, /*quarantine_after=*/0, kBackoff, 1, /*has_fallback=*/true);
  for (int k = 0; k < 10; ++k) b.record(1, false, /*failed=*/true, kT0);
  EXPECT_EQ(b.health(1), ShardHealth::kHealthy);
  expect_route(b.route(1, kT0), 1, false);
  EXPECT_EQ(b.quarantined_shards(), 0u);
  EXPECT_EQ(b.counts().quarantines, 0u);
  EXPECT_EQ(b.counts().rerouted, 0u);
}

TEST(ShardBreaker, ConsecutiveFailuresQuarantineAndASuccessResetsTheCount) {
  ShardBreaker b(2, /*quarantine_after=*/2, kBackoff, 1, false);
  b.record(0, false, true, kT0);
  b.record(0, false, false, kT0);  // Breaks the streak.
  b.record(0, false, true, kT0);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  b.record(0, false, true, kT0);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.counts().quarantines, 1u);
  EXPECT_EQ(b.quarantined_shards(), 1u);
}

TEST(ShardBreaker, ShotsRerouteBeforeRetryAtAndProbeFromIt) {
  ShardBreaker b(3, /*quarantine_after=*/1, kBackoff, 1, false);
  trip(b, 0, 1);
  expect_route(b.route(0, kT0), 1, false);
  expect_route(b.route(0, kT0 + kBackoff - 1ns), 1, false);
  // The scan skips every quarantined shard, in order.
  trip(b, 1, 1);
  expect_route(b.route(0, kT0 + kBackoff - 1ns), 2, false);
  EXPECT_EQ(b.counts().rerouted, 3u);
  EXPECT_EQ(b.counts().probes, 0u);
  // At retry_at exactly, the shot goes back as a half-open probe.
  expect_route(b.route(0, kT0 + kBackoff), 0, true);
  EXPECT_EQ(b.health(0), ShardHealth::kProbing);
  EXPECT_EQ(b.counts().probes, 1u);
}

TEST(ShardBreaker, FailedProbeRestartsTheBackoff) {
  ShardBreaker b(2, /*quarantine_after=*/1, kBackoff, 1, false);
  trip(b, 0, 1);
  const TimePoint probe_at = kT0 + kBackoff;
  expect_route(b.route(0, probe_at), 0, true);
  const TimePoint failed_at = probe_at + 50us;
  b.record(0, /*probe=*/true, /*failed=*/true, failed_at);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.counts().quarantines, 1u);  // Not a fresh transition.
  // The window restarts from the failure, not from the first quarantine.
  expect_route(b.route(0, failed_at + kBackoff - 1ns), 1, false);
  expect_route(b.route(0, failed_at + kBackoff), 0, true);
  b.record(0, /*probe=*/true, /*failed=*/false, failed_at + kBackoff);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.counts().probes, 2u);
  EXPECT_EQ(b.counts().recoveries, 1u);
}

TEST(ShardBreaker, ProbeShotsCapsProbesInFlight) {
  ShardBreaker b(2, /*quarantine_after=*/1, kBackoff, /*probe_shots=*/2,
                 false);
  trip(b, 0, 1);
  const TimePoint t = kT0 + kBackoff;
  expect_route(b.route(0, t), 0, true);
  expect_route(b.route(0, t), 0, true);
  expect_route(b.route(0, t), 1, false);  // Cap reached: reroutes.
  EXPECT_EQ(b.counts().probes, 2u);
  EXPECT_EQ(b.counts().rerouted, 1u);
  // One probe fails: a slot frees, but the back-off restarted, so the
  // next shot still reroutes instead of probing.
  b.record(0, true, /*failed=*/true, t);
  EXPECT_EQ(b.health(0), ShardHealth::kProbing);  // One still in flight.
  expect_route(b.route(0, t), 1, false);
  // The other succeeds and re-admits the shard.
  b.record(0, true, /*failed=*/false, t);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.counts().recoveries, 1u);
}

TEST(ShardBreaker, ProbeShotsZeroStillAllowsOneProbe) {
  ShardBreaker b(1, /*quarantine_after=*/1, kBackoff, /*probe_shots=*/0,
                 false);
  trip(b, 0, 1);
  expect_route(b.route(0, kT0 + kBackoff), 0, true);
}

TEST(ShardBreaker, FallbackSuccessNeitherRecoversNorCountsAsFailure) {
  ShardBreaker b(2, /*quarantine_after=*/1, kBackoff, 1,
                 /*has_fallback=*/true);
  trip(b, 0, 1);
  // A healthy shard still takes precedence over the fallback.
  expect_route(b.route(0, kT0), 1, false);
  trip(b, 1, 1);
  expect_route(b.route(0, kT0), ShardBreaker::kFallback, false);
  EXPECT_EQ(b.counts().rerouted, 2u);
  b.record(ShardBreaker::kFallback, false, /*failed=*/false, kT0);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.counts().recoveries, 0u);
  // A fallback failure right before retry_at does not restart shard 0's
  // back-off: the probe still goes out on time.
  b.record(ShardBreaker::kFallback, false, /*failed=*/true,
           kT0 + kBackoff - 1ns);
  EXPECT_EQ(b.counts().quarantines, 2u);
  expect_route(b.route(0, kT0 + kBackoff), 0, true);
}

TEST(ShardBreaker, LastResortServesTheTargetWhenEveryShardIsQuarantined) {
  ShardBreaker b(2, /*quarantine_after=*/1, 1h, 1, /*has_fallback=*/false);
  trip(b, 0, 1);
  trip(b, 1, 1);
  expect_route(b.route(0, kT0), 0, false);
  expect_route(b.route(1, kT0), 1, false);
  EXPECT_EQ(b.counts().rerouted, 0u);
  EXPECT_EQ(b.counts().probes, 0u);
  // A last-resort failure keeps it quarantined; a success re-admits it.
  b.record(0, false, /*failed=*/true, kT0);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  b.record(0, false, /*failed=*/false, kT0);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.counts().recoveries, 1u);
  EXPECT_EQ(b.quarantined_shards(), 1u);
}

TEST(ShardBreaker, ResetClearsAllState) {
  ShardBreaker b(2, /*quarantine_after=*/2, kBackoff, 1, false);
  b.record(0, false, true, kT0);  // One failure toward the threshold.
  trip(b, 1, 2);
  expect_route(b.route(1, kT0 + kBackoff), 1, true);  // Probe in flight.
  ASSERT_EQ(b.health(1), ShardHealth::kProbing);
  b.reset(1);
  EXPECT_EQ(b.health(1), ShardHealth::kHealthy);
  expect_route(b.route(1, kT0), 1, false);
  b.reset(0);
  b.record(0, false, true, kT0);  // The earlier failure was forgotten.
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.quarantined_shards(), 0u);
  // Counters are lifetime totals, not shard state.
  EXPECT_EQ(b.counts().quarantines, 1u);
  EXPECT_EQ(b.counts().probes, 1u);
  EXPECT_THROW(b.health(2), Error);
}

// ---- DriftMonitor ----------------------------------------------------------

DriftConfig exact_config() {
  DriftConfig c;
  c.enabled = true;
  c.alpha = 0.5;  // Powers of two keep every expected double exact.
  c.baseline_shots = 4;
  c.baseline_signal = 3;
  c.min_samples = 0;
  return c;
}

TEST(DriftMonitorUnit, DisabledMonitorTouchesNothing) {
  DriftConfig c = exact_config();
  c.enabled = false;
  DriftMonitor m(1, c);
  const std::vector<int> labels{1, 1};
  for (int k = 0; k < 10; ++k) m.observe(0, labels, 0.5f, labels);
  const DriftReport r = m.report(0);
  EXPECT_FALSE(r.ready);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(m.counts().scored_shots, 0u);
  EXPECT_EQ(m.counts().reference_shots, 0u);
}

TEST(DriftMonitorUnit, ClampsConfig) {
  DriftConfig c;
  c.alpha = 7.0;
  c.baseline_shots = 0;
  c.baseline_signal = 0;
  c.confidence_sample = 0;
  const DriftMonitor m(1, c);
  EXPECT_EQ(m.config().alpha, 1.0);
  EXPECT_EQ(m.config().baseline_shots, 1u);
  EXPECT_EQ(m.config().baseline_signal, 1u);
  EXPECT_EQ(m.config().confidence_sample, 1u);
}

TEST(DriftMonitorUnit, LabelsAboveThreeClampIntoTheLastBin) {
  DriftConfig c = exact_config();
  c.baseline_shots = 1;
  c.alpha = 1.0;  // The EWMA is the latest shot's mix.
  DriftMonitor m(3, c);
  const std::vector<int> zeros{0, 0};
  for (std::size_t s = 0; s < 3; ++s) m.observe(s, zeros, -1.0f, {});
  m.observe(0, std::vector<int>{3, 3}, -1.0f, {});
  m.observe(1, std::vector<int>{9, 3}, -1.0f, {});   // 9 lands in bin 3.
  m.observe(2, std::vector<int>{-4, 0}, -1.0f, {});  // -4 lands in bin 0.
  EXPECT_EQ(m.report(0).label_l1, 2.0);
  EXPECT_EQ(m.report(1).label_l1, 2.0);
  EXPECT_EQ(m.report(2).label_l1, 0.0);
}

TEST(DriftMonitorUnit, BaselinesFreezeExactlyAtTheirWindows) {
  DriftMonitor m(1, exact_config());  // baseline_shots 4, signal 3.
  const std::vector<int> expected{0, 0};
  // Fidelities 1, 0.5, 0 and confidences 0.5, 0.75, 1: both means are
  // exact (0.5 and 0.75).
  m.observe(0, std::vector<int>{0, 0}, 0.5f, expected);
  m.observe(0, std::vector<int>{0, 1}, 0.75f, expected);
  DriftReport r = m.report(0);
  EXPECT_FALSE(r.ready);  // Nothing frozen yet.
  EXPECT_EQ(r.confidence, 0.0);
  EXPECT_EQ(r.baseline_confidence, 0.0);
  EXPECT_EQ(r.fidelity, 0.0);
  EXPECT_EQ(r.baseline_fidelity, 0.0);
  m.observe(0, std::vector<int>{1, 1}, 1.0f, expected);
  r = m.report(0);
  EXPECT_TRUE(r.ready);
  EXPECT_EQ(r.baseline_confidence, 0.75);
  EXPECT_EQ(r.confidence, 0.75);
  EXPECT_EQ(r.baseline_fidelity, 0.5);
  EXPECT_EQ(r.fidelity, 0.5);
  EXPECT_EQ(r.label_l1, 0.0);
  // Shot 4 (unscored, not a reference) freezes the label mix at
  // (2.5, 1.5) / 4 = (0.625, 0.375); the EWMA starts there.
  m.observe(0, std::vector<int>{0, 0}, -1.0f, {});
  r = m.report(0);
  EXPECT_EQ(r.label_l1, 0.0);
  EXPECT_EQ(r.scored, 3u);
  EXPECT_EQ(r.reference, 3u);
  EXPECT_EQ(r.confidence, 0.75);
  // Shot 5: EWMA 0.5 * (0.625, 0.375) + 0.5 * (1, 0) = (0.8125, 0.1875).
  m.observe(0, std::vector<int>{0, 0}, -1.0f, {});
  r = m.report(0);
  EXPECT_EQ(r.label_l1, 0.375);
  EXPECT_EQ(r.samples, 5u);
}

TEST(DriftMonitorUnit, MinFidelityFloorApplies) {
  DriftConfig c = exact_config();
  c.baseline_signal = 1;
  c.fidelity_drop = 1.0;  // The relative test can never fire...
  c.label_l1 = 2.5;       // ...nor the label mix.
  DriftMonitor no_floor(1, c);
  c.min_fidelity = 0.9;
  DriftMonitor with_floor(1, c);
  const std::vector<int> labels{0, 1};
  const std::vector<int> expected{0, 0};
  for (int k = 0; k < 8; ++k) {
    no_floor.observe(0, labels, -1.0f, expected);
    with_floor.observe(0, labels, -1.0f, expected);
  }
  EXPECT_EQ(no_floor.report(0).fidelity, 0.5);
  EXPECT_FALSE(no_floor.report(0).drifted);
  EXPECT_TRUE(with_floor.report(0).ready);
  EXPECT_TRUE(with_floor.report(0).drifted);
  EXPECT_EQ(with_floor.drifted_shards(), 1u);
}

TEST(DriftMonitorUnit, ReadyStaysFalseBelowMinSamples) {
  DriftConfig c = exact_config();
  c.baseline_shots = 1;
  c.alpha = 1.0;
  c.min_samples = 5;
  DriftMonitor m(1, c);
  m.observe(0, std::vector<int>{0, 0}, -1.0f, {});
  for (int k = 0; k < 3; ++k) m.observe(0, std::vector<int>{3, 3}, -1.0f, {});
  DriftReport r = m.report(0);
  EXPECT_EQ(r.label_l1, 2.0);  // Would flag, but too few samples.
  EXPECT_FALSE(r.ready);
  EXPECT_FALSE(r.drifted);
  EXPECT_EQ(m.drifted_shards(), 0u);
  m.observe(0, std::vector<int>{3, 3}, -1.0f, {});
  r = m.report(0);
  EXPECT_TRUE(r.ready);
  EXPECT_TRUE(r.drifted);
}

TEST(DriftMonitorUnit, ResetRestartsBaselinesButKeepsTotals) {
  DriftMonitor m(2, exact_config());
  const std::vector<int> labels{0, 0};
  for (int k = 0; k < 4; ++k) m.observe(1, labels, 0.5f, labels);
  ASSERT_TRUE(m.report(1).ready);
  m.reset(1);
  const DriftReport r = m.report(1);
  EXPECT_FALSE(r.ready);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.baseline_confidence, 0.0);
  EXPECT_EQ(m.counts().scored_shots, 4u);
  EXPECT_EQ(m.counts().reference_shots, 4u);
  EXPECT_THROW(m.report(2), Error);
}

}  // namespace
}  // namespace mlqr
