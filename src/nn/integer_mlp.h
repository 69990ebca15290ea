// Integer fixed-point MLP inference — the FPGA NN datapath in software, at
// the two code widths of the paper's quantization ablation (Fig 6).
//
// Each dense layer runs entirely in integers: weight codes times the
// incoming activation codes, summed with the pre-shifted bias into a
// saturating accumulator (cfg.accum_bits wide, the ap_fixed AP_SAT
// behaviour), ReLU as max(acc, 0), then a pure arithmetic-shift
// requantization (round-half-even) onto the next layer's activation grid.
// Because every format's scale is a power of two, no floating point touches
// the forward pass at all — labels are bit-identical across batch sizes,
// thread counts, shards and SIMD tiers by construction.
//
// Formats come from calibration: weight fractions from the trained weight
// range (narrowed if needed so the calibrated pre-activation range,
// with 2x headroom, provably fits the accumulator width), activation
// fractions from the float network's hidden activations on calibration
// data.
//
// IntegerMlp<Code> is that one datapath at both widths. IntegerWidth<Code>
// names what differs between them (storage types and limits); the kernel
// calls are per-width overloads in the .cpp:
//   int16_t  int16 weights and activations, int64 biases and logits. Per
//            shot simd::dot_i16; batched, simd::madd_split_pairs_i16 over
//            split weights, so a layer accumulates exactly in int32.
//   int8_t   int8 weights, int32 biases and logits. The dot products run on
//            simd::dot_u8i8 (vpdpbusd on VNNI hosts), whose unsigned-times-
//            signed convention dictates the activation storage: codes are
//            kept biased, u = code + 128 in a uint8, and the bias is removed
//            exactly by a per-row constant corr[j] = -128 * sum_i w[j][i]
//            folded into the accumulator init — zero per-element cost, exact
//            by linearity. Batched, one int32 pass per layer.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "nn/dense_stack.h"
#include "nn/mlp.h"

namespace mlqr {

/// The per-width policy of IntegerMlp. Only the two specializations exist.
template <typename Code>
struct IntegerWidth;

template <>
struct IntegerWidth<std::int16_t> {
  using Act = std::int16_t;    ///< Stored activation code.
  using Logit = std::int64_t;  ///< Bias and logit code.
  /// Widest weight / activation code (and activation grid).
  static constexpr int kCodeBits = 16;
  /// Widest saturating accumulator.
  static constexpr int kMaxAccumBits = 63;
  /// Offset every stored activation carries.
  static constexpr int kActBias = 0;
  /// Inputs per shot in one batched staging slot: a pmaddwd pair.
  static constexpr std::size_t kPairWidth = 2;
  /// dot_i16's madd path forbids -2^15 in the weight operand.
  static constexpr int kMinWeightCode = -32767;
  /// Per-shot rows sum in int64 and batched rows in chunks of
  /// simd::kMaxSplitPairs pairs, so no width bound is needed.
  static constexpr std::size_t kMaxLayerWidth =
      std::numeric_limits<std::size_t>::max();
};

template <>
struct IntegerWidth<std::int8_t> {
  using Act = std::uint8_t;    ///< code + kActBias, for dot_u8i8.
  using Logit = std::int32_t;  ///< Bias and logit code.
  static constexpr int kCodeBits = 8;
  /// Every saturated accumulator (and bias) fits int32 — the point of the
  /// narrow datapath.
  static constexpr int kMaxAccumBits = 31;
  static constexpr int kActBias = 128;
  /// The batched staging is [dim][shot]: pairs of width 1.
  static constexpr std::size_t kPairWidth = 1;
  static constexpr int kMinWeightCode = -128;
  /// Every |product| <= 255 * 128 < 2^15, so n <= 2^15 keeps the batched
  /// pass's single int32 accumulation (and dot_u8i8) exact.
  static constexpr std::size_t kMaxLayerWidth = std::size_t{1} << 15;
};

/// Integer mirror of one DenseLayer (codes, not values).
template <typename Code>
struct IntegerDenseLayer {
  std::size_t in = 0;
  std::size_t out = 0;
  FixedPointFormat weight_fmt;  ///< Grid of `w` codes.
  FixedPointFormat in_fmt;      ///< Grid of the incoming activation codes.
  std::vector<Code> w;          ///< out x in, row-major codes.
  /// Bias at in_fmt.frac + weight_fmt.frac.
  std::vector<typename IntegerWidth<Code>::Logit> b;

  std::size_t parameter_count() const { return w.size() + b.size(); }
};

/// Integer-only inference twin of a trained float Mlp.
template <typename Code>
class IntegerMlp {
 public:
  using Width = IntegerWidth<Code>;
  using Act = typename Width::Act;
  using Logit = typename Width::Logit;
  using Layer = IntegerDenseLayer<Code>;

  /// Quantizes `mlp`. `calib_features` is a row-major (n x input_size)
  /// matrix of float-path inputs driving the activation-range calibration;
  /// `input_fmt` is the code grid the caller feeds the first layer with
  /// (the front-end's feature format). Requires cfg.weight_bits and
  /// cfg.activation_bits in [2, Width::kCodeBits] and cfg.accum_bits in
  /// [8, Width::kMaxAccumBits]. Throws when cfg.accum_bits cannot hold the
  /// calibrated ranges at any non-negative weight fraction.
  static IntegerMlp quantize(const Mlp& mlp,
                             std::span<const float> calib_features,
                             const FixedPointFormat& input_fmt,
                             const QuantizationConfig& cfg);

  std::size_t input_size() const {
    MLQR_CHECK(!layers_.empty());
    return layers_.front().in;
  }
  std::size_t output_size() const {
    MLQR_CHECK(!layers_.empty());
    return layers_.back().out;
  }
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const {
    std::size_t n = 0;
    for (const Layer& l : layers_) n += l.parameter_count();
    return n;
  }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Integer forward pass: `x` holds input codes on the first layer's
  /// in_fmt grid; logits land in `logits` as accumulator codes (fraction =
  /// logit_frac_bits()). `act_a`/`act_b` are the ping-pong activation
  /// buffers in the width's storage type; all three reuse capacity
  /// call-to-call.
  void logits_into(std::span<const std::int32_t> x, std::vector<Logit>& logits,
                   std::vector<Act>& act_a, std::vector<Act>& act_b) const;

  /// argmax over the integer logits (ties break to the lower index, same
  /// rule as the float path).
  int predict(std::span<const std::int32_t> x, std::vector<Logit>& logits,
              std::vector<Act>& act_a, std::vector<Act>& act_b) const {
    logits_into(x, logits, act_a, act_b);
    return argmax_tie_low(std::span<const Logit>(logits));
  }

  /// Batched argmax classify over `batch` feature rows (row-major int32
  /// codes, batch x input_size()): shots are processed in shot-lane
  /// blocks — activations staged as input pairs per shot
  /// ([i / kPairWidth][shot][kPairWidth]) so every weight is broadcast
  /// against a whole vector of shots, giving full SIMD lanes even on the
  /// narrow hidden layers where per-shot dots are all tail. Integer
  /// arithmetic is exact, so reordering is free: labels (written to
  /// labels[s * label_stride]) are bit-identical to predict on every row.
  /// act_a/act_b/logits are scratch matrices reusing capacity call-to-call.
  void classify_batch_into(std::size_t batch, const std::int32_t* features,
                           std::vector<Act>& act_a, std::vector<Act>& act_b,
                           std::vector<Logit>& logits, int* labels,
                           std::size_t label_stride) const;

  /// Fraction bits of the emitted logit codes.
  int logit_frac_bits() const;
  /// Real value of one logit step (2^-logit_frac_bits()).
  double logit_resolution() const {
    return std::ldexp(1.0, -logit_frac_bits());
  }

  const QuantizationConfig& config() const { return cfg_; }

  /// Binary little-endian persistence (calibration snapshot leaf): the
  /// config, every layer's formats and the exact integer codes round-trip,
  /// so a reloaded head's integer forward pass is bit-identical. load
  /// rejects what this width cannot run exactly: a config or grid wider
  /// than its codes, a forbidden weight code, a layer past kMaxLayerWidth,
  /// or a requantization shift outside int64.
  void save(std::ostream& os) const;
  static IntegerMlp load(std::istream& is);

 private:
  /// Per-layer state derived from the codes at quantize/load time, never
  /// serialized.
  struct Derived {
    /// Accumulator init per output row: the bias plus the exact correction
    /// -kActBias * sum_i w[j][i] for the biased activation storage.
    std::vector<std::int64_t> init;
    /// Requantization shift onto the next layer's grid (0 on the last).
    int shift = 0;
    /// int16 only, the batched heads' split weights: w = 256 * hi + lo with
    /// hi in [-128, 127] and lo in [0, 255], out rows of 2 * ceil(in / 2)
    /// codes (an odd width pads a zero weight).
    std::vector<std::int16_t> hi, lo;
  };
  void derive();
  Act requantize(std::int64_t acc, int shift) const;

  QuantizationConfig cfg_;
  std::vector<Layer> layers_;
  std::vector<Derived> derived_;  ///< Per layer.
};

extern template class IntegerMlp<std::int16_t>;
extern template class IntegerMlp<std::int8_t>;

}  // namespace mlqr
