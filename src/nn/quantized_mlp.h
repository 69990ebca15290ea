// Integer fixed-point MLP inference — the FPGA NN datapath in software.
//
// Each dense layer runs entirely in integers: int16 weight codes times the
// incoming activation codes, summed with the pre-shifted bias into a
// saturating accumulator (cfg.accum_bits wide, the ap_fixed AP_SAT
// behaviour), ReLU as max(acc, 0), then a pure arithmetic-shift
// requantization (round-half-even) onto the next layer's activation grid.
// Because every format's scale is a power of two, no floating point touches
// the forward pass at all — labels are bit-identical across batch sizes and
// thread counts by construction.
//
// Formats come from calibration: weight fractions from the trained weight
// range (narrowed if needed so the calibrated pre-activation range,
// with 2x headroom, provably fits the accumulator width), activation
// fractions from the float network's hidden activations on calibration
// data.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "nn/mlp.h"

namespace mlqr {

/// Quantized mirror of one DenseLayer (codes, not values).
struct QuantizedDenseLayer {
  std::size_t in = 0;
  std::size_t out = 0;
  FixedPointFormat weight_fmt;  ///< Grid of `w` codes.
  FixedPointFormat in_fmt;      ///< Grid of the incoming activation codes.
  std::vector<std::int16_t> w;  ///< out x in, row-major codes.
  std::vector<std::int64_t> b;  ///< Bias at in_fmt.frac + weight_fmt.frac.

  std::size_t parameter_count() const { return w.size() + b.size(); }
};

/// Integer-only inference twin of a trained float Mlp.
class QuantizedMlp {
 public:
  QuantizedMlp() = default;

  /// Quantizes `mlp`. `calib_features` is a row-major (n x input_size)
  /// matrix of float-path inputs driving the activation-range calibration;
  /// `input_fmt` is the code grid the caller feeds the first layer with
  /// (the front-end's feature format). Throws when cfg.accum_bits cannot
  /// hold the calibrated ranges at any non-negative weight fraction.
  static QuantizedMlp quantize(const Mlp& mlp,
                               std::span<const float> calib_features,
                               const FixedPointFormat& input_fmt,
                               const QuantizationConfig& cfg);

  std::size_t input_size() const;
  std::size_t output_size() const;
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const;
  const std::vector<QuantizedDenseLayer>& layers() const { return layers_; }

  /// Integer forward pass: `x` holds input codes on the first layer's
  /// in_fmt grid; logits land in `logits` as accumulator codes (fraction =
  /// logit_frac_bits()). `act_a`/`act_b` are the int16 ping-pong
  /// activation buffers (activation_bits <= 16, so every code fits; the
  /// narrow type is what lets the dot products run on
  /// simd::dot_i16's widening multiply-add); all three reuse capacity
  /// call-to-call.
  void logits_into(std::span<const std::int32_t> x,
                   std::vector<std::int64_t>& logits,
                   std::vector<std::int16_t>& act_a,
                   std::vector<std::int16_t>& act_b) const;

  /// argmax over the integer logits (ties break to the lower index, same
  /// rule as the float path).
  int predict(std::span<const std::int32_t> x,
              std::vector<std::int64_t>& logits,
              std::vector<std::int16_t>& act_a,
              std::vector<std::int16_t>& act_b) const;

  /// Batched argmax classify over `batch` feature rows (row-major int32
  /// codes, batch x input_size()): shots are processed in shot-lane
  /// blocks — activations staged as input pairs per shot ([i/2][shot][2])
  /// so one pmaddwd against a broadcast weight pair serves a whole vector
  /// of shots, giving full SIMD lanes even on the narrow hidden layers
  /// where per-shot dots are all tail. Weights run split
  /// (simd::madd_split_pairs_i16), so a layer accumulates exactly in int32.
  /// Integer arithmetic is exact, so reordering is free: labels (written
  /// to labels[s * label_stride]) are bit-identical to predict on every
  /// row. act_a/act_b/logits are scratch matrices reusing capacity
  /// call-to-call.
  void classify_batch_into(std::size_t batch, const std::int32_t* features,
                           std::vector<std::int16_t>& act_a,
                           std::vector<std::int16_t>& act_b,
                           std::vector<std::int64_t>& logits, int* labels,
                           std::size_t label_stride) const;

  /// Fraction bits of the emitted logit codes.
  int logit_frac_bits() const;
  /// Real value of one logit step (2^-logit_frac_bits()).
  double logit_resolution() const;

  const QuantizationConfig& config() const { return cfg_; }

  /// Binary little-endian persistence (calibration snapshot leaf): the
  /// config, every layer's formats and the exact integer codes round-trip,
  /// so a reloaded head's integer forward pass is bit-identical.
  void save(std::ostream& os) const;
  static QuantizedMlp load(std::istream& is);

 private:
  /// One layer's weights as the batched heads consume them: w = 256 * hi +
  /// lo with hi in [-128, 127] and lo in [0, 255], out rows of
  /// 2 * ceil(in / 2) codes (an odd width pads a zero weight). Derived
  /// from the codes at quantize/load time, never serialized.
  struct SplitWeights {
    std::vector<std::int16_t> hi, lo;
  };
  void derive_split_weights();

  QuantizationConfig cfg_;
  std::vector<QuantizedDenseLayer> layers_;
  std::vector<SplitWeights> split_;  ///< Per layer.
};

}  // namespace mlqr
