#include "pipeline/drift_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mlqr {

DriftMonitor::DriftMonitor(std::size_t n_shards, DriftConfig cfg)
    : cfg_(cfg), shards_(n_shards) {
  cfg_.alpha = std::clamp(cfg_.alpha, 1e-6, 1.0);
  cfg_.baseline_shots = std::max<std::size_t>(cfg_.baseline_shots, 1);
  cfg_.baseline_signal = std::max<std::size_t>(cfg_.baseline_signal, 1);
  cfg_.confidence_sample = std::max<std::size_t>(cfg_.confidence_sample, 1);
}

void DriftMonitor::SignalTrack::update(double x, std::size_t baseline_n,
                                       double alpha) {
  ++count;
  if (!frozen) {
    // Baseline phase: plain mean over the first baseline_n samples, then
    // freeze and seed the EWMA from it so the first post-baseline report
    // starts exactly at "no drift".
    baseline_sum += x;
    if (count >= baseline_n) {
      baseline = baseline_sum / static_cast<double>(count);
      value = baseline;
      frozen = true;
    }
  } else {
    value = (1.0 - alpha) * value + alpha * x;
  }
}

void DriftMonitor::observe(std::size_t shard, std::span<const int> labels,
                           float conf, std::span<const int> expected) {
  if (!cfg_.enabled) return;
  ShardMonitor& m = shards_[shard];
  ++m.samples;

  // Label mix: this shot's per-level occupancy, averaged over qubits so
  // every shot contributes unit mass regardless of register width.
  std::array<double, kLabelBins> frac{};
  const double w = 1.0 / static_cast<double>(labels.size());
  for (const int l : labels)
    frac[static_cast<std::size_t>(
        std::clamp<int>(l, 0, static_cast<int>(kLabelBins) - 1))] += w;
  for (std::size_t i = 0; i < kLabelBins; ++i)
    m.label_mix[i].update(frac[i], cfg_.baseline_shots, cfg_.alpha);

  if (conf >= 0.0f) {
    ++m.scored;
    ++counts_.scored_shots;
    m.confidence.update(conf, cfg_.baseline_signal, cfg_.alpha);
  }

  if (!expected.empty()) {
    ++m.reference;
    ++counts_.reference_shots;
    std::size_t match = 0;
    for (std::size_t q = 0; q < labels.size(); ++q)
      if (labels[q] == expected[q]) ++match;
    m.fidelity.update(
        static_cast<double>(match) / static_cast<double>(labels.size()),
        cfg_.baseline_signal, cfg_.alpha);
  }
}

DriftReport DriftMonitor::report(std::size_t shard) const {
  MLQR_CHECK_MSG(shard < shards_.size(),
                 "drift index " << shard << " out of range (engine has "
                                << shards_.size() << " shards)");
  const ShardMonitor& m = shards_[shard];
  DriftReport r;
  r.samples = m.samples;
  r.scored = m.scored;
  r.reference = m.reference;
  if (m.confidence.frozen) {
    r.confidence = m.confidence.value;
    r.baseline_confidence = m.confidence.baseline;
  }
  if (m.fidelity.frozen) {
    r.fidelity = m.fidelity.value;
    r.baseline_fidelity = m.fidelity.baseline;
  }
  const bool label_frozen = m.label_mix.front().frozen;
  if (label_frozen)
    for (const SignalTrack& bin : m.label_mix)
      r.label_l1 += std::abs(bin.value - bin.baseline);
  r.ready = cfg_.enabled && m.samples >= cfg_.min_samples &&
            (m.confidence.frozen || m.fidelity.frozen || label_frozen);
  if (!r.ready) return r;
  const bool conf_drift =
      m.confidence.frozen &&
      r.confidence < r.baseline_confidence * (1.0 - cfg_.confidence_drop);
  const bool fid_drift =
      m.fidelity.frozen &&
      (r.fidelity < r.baseline_fidelity - cfg_.fidelity_drop ||
       (cfg_.min_fidelity > 0.0 && r.fidelity < cfg_.min_fidelity));
  const bool label_drift = label_frozen && r.label_l1 > cfg_.label_l1;
  r.drifted = conf_drift || fid_drift || label_drift;
  return r;
}

void DriftMonitor::reset(std::size_t shard) {
  shards_.at(shard) = ShardMonitor{};
}

std::size_t DriftMonitor::drifted_shards() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (report(s).drifted) ++n;
  return n;
}

}  // namespace mlqr
