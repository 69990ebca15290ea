// Per-shard drift observer for StreamingEngine: baseline-then-EWMA
// trackers over the served labels, sampled confidences and reference-shot
// fidelity, factored out of the engine so it is a pure function of the
// observed shots. No locks, no clocks — the caller serializes access (the
// engine drives it under its mutex; tests drive it directly).
// tools/lint_invariants.py keeps it that way. Monitoring is passive: it
// never alters routing, labels, or ticket outcomes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mlqr {

/// Knobs for the per-shard drift monitors (StreamingEngine::drift()).
/// Three signals are tracked per shard, each as a frozen baseline (mean
/// over the first baseline window) plus an EWMA:
///   * confidence — softmax p_max of the winning labels, re-scored on the
///     dispatcher thread every confidence_sample-th OK shot (only on
///     backends whose supports_scored() is true).
///   * fidelity — fraction of qubits matching the caller-supplied
///     expected labels on submit_reference() shots (interleaved
///     calibration probes with known ground truth).
///   * label mix — per-level occupancy histogram of the served labels
///     (catches population drift even without scoring or references).
struct DriftConfig {
  /// Master switch; when false no monitor state is ever touched.
  bool enabled = false;
  /// EWMA smoothing factor for the post-baseline trackers, in (0, 1].
  double alpha = 0.02;
  /// OK shots of label-mix baseline before that tracker goes live.
  std::size_t baseline_shots = 256;
  /// Scored / reference shots of baseline for confidence and fidelity.
  std::size_t baseline_signal = 16;
  /// Score every Nth OK shot per shard (1 = every shot). Scoring re-runs
  /// inference serially on the dispatcher thread, so keep it sparse when
  /// ingest is saturating the classifier.
  std::size_t confidence_sample = 16;
  /// Relative confidence drop vs baseline that flags drift.
  double confidence_drop = 0.05;
  /// Absolute reference-fidelity drop vs baseline that flags drift.
  double fidelity_drop = 0.02;
  /// Absolute reference-fidelity floor (0 disables the floor check).
  double min_fidelity = 0.0;
  /// L1 distance between the label-mix EWMA and its baseline that flags
  /// drift (2.0 would mean totally disjoint distributions).
  double label_l1 = 0.25;
  /// Minimum OK shots on a shard before any signal may flag drift.
  std::size_t min_samples = 64;
};

/// One shard's drift-monitor snapshot (StreamingEngine::drift()). Signal
/// fields are zero until their baseline froze.
struct DriftReport {
  bool ready = false;    ///< A baseline froze and min_samples was reached.
  bool drifted = false;  ///< At least one signal crossed its threshold.
  std::uint64_t samples = 0;    ///< OK shots observed on this shard.
  std::uint64_t scored = 0;     ///< Shots with a sampled confidence.
  std::uint64_t reference = 0;  ///< Reference shots with expected labels.
  double confidence = 0.0;           ///< Confidence EWMA.
  double baseline_confidence = 0.0;  ///< Frozen confidence baseline.
  double fidelity = 0.0;             ///< Reference-fidelity EWMA.
  double baseline_fidelity = 0.0;    ///< Frozen fidelity baseline.
  double label_l1 = 0.0;  ///< L1(label-mix EWMA, baseline mix).
};

/// Engine-lifetime totals (never reset by reset()); StreamingStats
/// carries them as its base.
struct DriftCounts {
  std::uint64_t reference_shots = 0;  ///< Reference shots resolved OK.
  std::uint64_t scored_shots = 0;  ///< Shots with a sampled confidence.
};

class DriftMonitor {
 public:
  /// Label bins tracked by the mix monitor; labels clamp into the last
  /// bin, so any level count up to (and beyond) 3 is representable.
  static constexpr std::size_t kLabelBins = 4;

  /// Clamps alpha into [1e-6, 1] and the baseline / sampling counts to
  /// >= 1; config() returns the clamped copy.
  DriftMonitor(std::size_t n_shards, DriftConfig cfg);

  /// Folds one OK shot served by `shard` into its monitor. conf < 0 means
  /// no confidence sample was taken; a non-empty `expected` (same size as
  /// `labels`) marks a reference shot. A no-op while disabled.
  void observe(std::size_t shard, std::span<const int> labels, float conf,
               std::span<const int> expected);

  /// Evaluates one shard's monitor against the config thresholds.
  DriftReport report(std::size_t shard) const;
  /// Fresh baselines for one shard (a new calibration earns its own).
  void reset(std::size_t shard);

  const DriftConfig& config() const { return cfg_; }
  std::size_t drifted_shards() const;
  const DriftCounts& counts() const { return counts_; }

 private:
  /// Baseline-then-EWMA tracker for one scalar signal.
  struct SignalTrack {
    std::uint64_t count = 0;
    double baseline_sum = 0.0;
    double baseline = 0.0;  ///< Mean of the first baseline_n samples.
    double value = 0.0;     ///< EWMA, seeded from the frozen baseline.
    bool frozen = false;
    void update(double x, std::size_t baseline_n, double alpha);
  };

  struct ShardMonitor {
    std::uint64_t samples = 0;    ///< OK shots observed.
    std::uint64_t scored = 0;     ///< Shots with a sampled confidence.
    std::uint64_t reference = 0;  ///< Reference shots observed.
    SignalTrack confidence;
    SignalTrack fidelity;
    /// Per-level occupancy; every bin sees every OK shot, so all freeze
    /// together at baseline_shots.
    std::array<SignalTrack, kLabelBins> label_mix;
  };

  DriftConfig cfg_;
  std::vector<ShardMonitor> shards_;
  DriftCounts counts_;
};

}  // namespace mlqr
