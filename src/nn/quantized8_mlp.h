// Int8 fixed-point MLP inference — the W=8 point of the paper's
// quantization ablation as a first-class serving datapath.
//
// Same contract as QuantizedMlp, narrower codes: int8 weights, 8-bit
// activation codes, an int32 saturating accumulator, and the identical
// saturate / ReLU / shift-round-half-even requantization chain between
// layers. Every format scale is a power of two, so the forward pass is
// pure integer arithmetic — labels are bit-identical across batch sizes,
// thread counts, shards and SIMD tiers by construction.
//
// The dot products run on simd::dot_u8i8 (vpdpbusd on VNNI hosts), whose
// unsigned-times-signed operand convention dictates the activation
// storage: codes are kept biased, u = code + 128 in a uint8, and the bias
// is removed exactly with a per-output-row constant
//     corr[j] = -128 * sum_i w[j][i]
// folded into the accumulator init — zero per-element cost, exact by
// linearity. `corr` is derived state: recomputed from the weight codes on
// build and load, never serialized.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "nn/mlp.h"
#include "nn/quantized_mlp.h"

namespace mlqr {

/// One int8 dense layer (codes, not values).
struct Quantized8DenseLayer {
  std::size_t in = 0;
  std::size_t out = 0;
  FixedPointFormat weight_fmt;  ///< Grid of `w` codes.
  FixedPointFormat in_fmt;      ///< Grid of the incoming activation codes.
  std::vector<std::int8_t> w;   ///< out x in, row-major codes.
  std::vector<std::int32_t> b;  ///< Bias at in_fmt.frac + weight_fmt.frac.
  /// Per output row: -128 * sum_i w[j][i], the exact correction for the
  /// +128 activation bias of the u8xs8 dot kernel. Derived, not persisted.
  std::vector<std::int32_t> corr;

  std::size_t parameter_count() const { return w.size() + b.size(); }
};

/// Integer-only int8 inference twin of a trained float Mlp.
class Quantized8Mlp {
 public:
  Quantized8Mlp() = default;

  /// Largest layer width the int32 dot kernel provably cannot overflow at
  /// (and then some: the true bound is n * 255 * 128 < 2^31). Enforced at
  /// build and load time.
  static constexpr std::size_t kMaxLayerWidth = 1u << 15;

  /// Quantizes `mlp` through the same range calibration as
  /// QuantizedMlp::quantize, then narrows the minted codes to int8.
  /// Requires cfg.weight_bits and cfg.activation_bits in [2, 8] and
  /// cfg.accum_bits in [8, 31] (logits and biases must fit int32).
  static Quantized8Mlp quantize(const Mlp& mlp,
                                std::span<const float> calib_features,
                                const FixedPointFormat& input_fmt,
                                const QuantizationConfig& cfg);

  /// Narrowing conversion from an int16 network whose codes were minted
  /// under an int8-compatible config (the quantize() implementation; also
  /// the upgrade path for calibrations quantized at W<=8 before this class
  /// existed). Throws when any code or width exceeds the int8 contract.
  static Quantized8Mlp from_quantized(const QuantizedMlp& q16);

  std::size_t input_size() const;
  std::size_t output_size() const;
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const;
  const std::vector<Quantized8DenseLayer>& layers() const { return layers_; }

  /// Integer forward pass: `x` holds input codes on the first layer's
  /// in_fmt grid; logits land in `logits` as int32 accumulator codes
  /// (fraction = logit_frac_bits()). `act_a`/`act_b` are the biased-uint8
  /// ping-pong activation buffers; all three reuse capacity call-to-call.
  void logits_into(std::span<const std::int32_t> x,
                   std::vector<std::int32_t>& logits,
                   std::vector<std::uint8_t>& act_a,
                   std::vector<std::uint8_t>& act_b) const;

  /// argmax over the integer logits (ties break to the lower index, same
  /// rule as every other path).
  int predict(std::span<const std::int32_t> x,
              std::vector<std::int32_t>& logits,
              std::vector<std::uint8_t>& act_a,
              std::vector<std::uint8_t>& act_b) const;

  /// Batched argmax classify over `batch` feature rows (row-major int32
  /// codes, batch x input_size()), activations shot-lane transposed to
  /// [dim][shot]; labels (bit-identical to predict) land in
  /// labels[s * label_stride].
  void classify_batch_into(std::size_t batch, const std::int32_t* features,
                           std::vector<std::uint8_t>& act_a,
                           std::vector<std::uint8_t>& act_b,
                           std::vector<std::int32_t>& logits, int* labels,
                           std::size_t label_stride) const;

  /// Fraction bits of the emitted logit codes.
  int logit_frac_bits() const;
  /// Real value of one logit step (2^-logit_frac_bits()).
  double logit_resolution() const;

  const QuantizationConfig& config() const { return cfg_; }

  /// Binary little-endian persistence (calibration snapshot leaf): config,
  /// formats and exact integer codes round-trip, so a reloaded head's
  /// forward pass is bit-identical. `corr` is recomputed on load.
  void save(std::ostream& os) const;
  static Quantized8Mlp load(std::istream& is);

 private:
  QuantizationConfig cfg_;
  std::vector<Quantized8DenseLayer> layers_;
};

}  // namespace mlqr
