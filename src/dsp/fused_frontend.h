// Fused float demodulation + matched filtering — the float twin of
// QuantizedFrontend's one-pass design.
//
// The unfused float path sweeps the raw trace once per qubit to build a
// complex-double baseband buffer (Demodulator) and then sweeps every
// baseband buffer once per filter (MatchedFilter::apply) — two full
// memory passes and ~90k double multiplies per five-qubit shot. Both
// stages are linear in the raw trace, so they fuse exactly like the
// integer path: pre-rotating every kernel by its qubit's exact LO phasor,
// R_{q,f}(t) = K_f(t) * lo_q(t), turns the whole front-end into
//     score_f = sum_t [ Re R(t) * I(t) - Im R(t) * Q(t) ]
// — one pass over the raw float trace per filter, float SIMD throughout
// (simd::fused_dot_f32), no intermediate baseband buffer at all. The
// per-filter MF bias and the feature normalizer's (x - mean)/std fold
// into one trailing affine map, clamped at the shared winsorization bound
// exactly like FeatureNormalizer::apply.
//
// Numerics: kernels are rotated in double then stored as float, the
// accumulation runs in float vector lanes, and the LO comes from the
// exact polar form rather than the demodulator's resync'd recurrence —
// features therefore differ from the reference path by normal float
// rounding (tests pin the parity with a small tolerance; the reference
// path stays available as ProposedDiscriminator::features_into_reference).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iosfwd>
#include <vector>

#include "discrim/inference_scratch.h"
#include "dsp/demodulator.h"
#include "dsp/fused_kernel_table.h"
#include "mf/mf_bank.h"
#include "nn/normalizer.h"
#include "sim/iq.h"

namespace mlqr {

/// Float one-pass front-end: raw IQ trace -> normalized features, ready
/// for the per-qubit float heads.
class FusedFrontend {
 public:
  FusedFrontend() = default;

  /// Pre-rotates every kernel of `bank` by `demod`'s exact LO phasors and
  /// folds MF bias + `norm` into the trailing affine step. All kernels
  /// must have length `n_samples`.
  static FusedFrontend build(const Demodulator& demod, const ChipMfBank& bank,
                             const FeatureNormalizer& norm,
                             std::size_t n_samples);

  /// One pass over the raw trace: writes every filter's normalized float
  /// feature into scratch.features (resized to n_filters()). Thread-safe
  /// for distinct scratch instances.
  void features_into(const IqTrace& trace, InferenceScratch& scratch) const;

  /// Feature extraction for `block` traces at once, writing shot s's
  /// features to out[s * out_stride + f]. Per (filter, shot) this runs
  /// the identical accumulate + affine chain of features_into — only the
  /// loop order differs — so the values are bit-identical. The win is
  /// cache reuse: the pre-rotated kernel table (n_filters x n_samples x 2
  /// rows) streams once per small shot block instead of once per shot.
  void features_block_into(std::size_t block, const IqTrace* const* traces,
                           float* out, std::size_t out_stride) const;

  /// False until build() has run (a default-constructed instance).
  bool valid() const { return n_samples_ > 0; }

  std::size_t n_samples() const { return n_samples_; }
  std::size_t n_filters() const { return scale_.size(); }
  /// Fused dot products per shot: filters whose kernel rows are exact
  /// copies or negations of another's share one (see FusedKernelTable).
  std::size_t distinct_filters() const { return table_.distinct_rows(); }
  std::size_t num_qubits() const { return n_qubits_; }

  /// Binary little-endian persistence of the pre-rotated kernel tables and
  /// affine maps (calibration snapshot leaf); a reloaded front-end computes
  /// bit-identical features.
  void save(std::ostream& os) const;
  static FusedFrontend load(std::istream& is);

 private:
  /// Filter f's normalized, winsorized feature from its fused score.
  float feature(std::size_t f, float acc) const {
    const float z = acc * scale_[f] + offset_[f];
    return std::clamp(z, -kMaxAbsFeatureZ, kMaxAbsFeatureZ);
  }

  std::size_t n_samples_ = 0;
  std::size_t n_qubits_ = 0;
  FusedKernelTable<float> table_;  ///< Pre-rotated kernel rows (SoA).
  std::vector<float> scale_;       ///< Per filter: 1 / std.
  std::vector<float> offset_;      ///< Per filter: -(bias + mean) / std.
};

}  // namespace mlqr
