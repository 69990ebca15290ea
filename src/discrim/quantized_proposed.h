// Integer fixed-point twin of the proposed discriminator — the actual
// FPGA datapath end-to-end: fused int16 demod+matched-filter front-end
// (QuantizedFrontend) feeding one integer per-qubit head (IntegerMlp)
// each. Exposes the same classify_into(trace, scratch, out) contract as
// the float designs, so make_backend plugs it straight into
// ReadoutEngine::process_batch; per-shot inference is pure integer
// arithmetic, so labels are bit-identical across batch sizes, thread
// counts, shards and SIMD tiers.
//
// Built by *calibrated* quantization of a trained float
// ProposedDiscriminator: fixed-point formats for the trace, features,
// kernels, weights and activations are fitted from training data
// (fit_format / saturating_format), not assumed — the resource model reads
// these calibrated widths via design_spec().
//
// Two presets ship, the W=16 and W=8 points of the paper's quantization
// ablation (Fig 6); they differ only in the heads' code width (the
// front-end's kernel and trace grids are calibrated independently of it):
//   QuantizedProposedDiscriminator   int16 heads, default 16/16/32,
//                                    named OURS-INT<weight_bits>,
//                                    snapshot kind 1.
//   Quantized8ProposedDiscriminator  int8 heads on simd::dot_u8i8 (vpdpbusd
//                                    on VNNI hosts), default 8/8/24, named
//                                    OURS-INT8, snapshot kind 5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "discrim/inference_scratch.h"
#include "discrim/proposed.h"
#include "discrim/shot_set.h"
#include "dsp/quantized_frontend.h"
#include "fpga/resource_model.h"
#include "nn/integer_mlp.h"

namespace mlqr {

/// Summary of the calibrated fixed-point formats across the whole design —
/// what the FPGA resource model consumes instead of assumed widths.
struct CalibratedFormats {
  FixedPointFormat trace;    ///< ADC-side I/Q code grid.
  FixedPointFormat feature;  ///< Merged-feature / NN-input grid.
  int weight_bits = 0;       ///< Kernel + NN weight code width.
  int activation_bits = 0;   ///< Inter-layer activation code width.
  int accum_bits = 0;        ///< Saturating MAC accumulator width.
  /// Narrowest weight fraction actually calibrated across kernels and NN
  /// layers (the effective precision floor of the datapath).
  int min_weight_frac_bits = 0;
};

/// What a preset fixes beyond its head width: the default precision knobs
/// and the backend name its snapshots carry.
template <typename Code>
struct IntegerPreset;

template <>
struct IntegerPreset<std::int16_t> {
  /// The W=16 deployment widths: 16-bit codes, a 32-bit accumulator.
  static QuantizationConfig default_config() { return {}; }
  static std::string name(const QuantizationConfig& cfg) {
    return "OURS-INT" + std::to_string(cfg.weight_bits);
  }
};

template <>
struct IntegerPreset<std::int8_t> {
  /// The Fig 6 ablation's W=8 grid, with the accumulator sized so int32
  /// holds every logit.
  static QuantizationConfig default_config() {
    QuantizationConfig cfg;
    cfg.weight_bits = 8;
    cfg.activation_bits = 8;
    cfg.accum_bits = 24;
    return cfg;
  }
  static std::string name(const QuantizationConfig&) { return "OURS-INT8"; }
};

/// Trained-then-quantized instance of the proposed design with
/// IntegerMlp<Code> heads.
template <typename Code>
class IntegerProposedDiscriminator {
 public:
  using Head = IntegerMlp<Code>;

  /// Quantizes a trained float discriminator. `calib`/`calib_idx` supply
  /// the range-calibration shots (use the training split; capped at
  /// cfg.max_calibration_shots). cfg must satisfy the head width's limits
  /// (see IntegerMlp::quantize).
  static IntegerProposedDiscriminator quantize(
      const ProposedDiscriminator& d, const ShotSet& calib,
      std::span<const std::size_t> calib_idx,
      const QuantizationConfig& cfg = IntegerPreset<Code>::default_config());

  /// Per-qubit level predictions for one multiplexed trace. Thread-safe.
  std::vector<int> classify(const IqTrace& trace) const {
    InferenceScratch scratch;
    std::vector<int> out(heads_.size());
    classify_into(trace, scratch, out);
    return out;
  }

  /// Allocation-free integer path: raw trace -> fused int front-end ->
  /// integer heads, entirely inside `scratch`'s reused buffers. `out` must
  /// hold num_qubits() entries. Thread-safe for distinct scratches.
  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const;

  /// Batched classify over shots [lo, hi): feature codes gathered into a
  /// row-major tile, each integer head swept weight-row-outer over the
  /// whole tile (IntegerMlp::classify_batch_into), labels scattered back
  /// through `labels_at(s)`. Integer arithmetic is exact, so labels are
  /// bit-identical to classify_into. Thread-safe for distinct scratches.
  void classify_batch_into(std::size_t lo, std::size_t hi,
                           const ShotFrameAt& frame_at,
                           InferenceScratch& scratch,
                           const ShotLabelsAt& labels_at) const;

  std::string name() const { return IntegerPreset<Code>::name(cfg_); }

  std::size_t num_qubits() const { return heads_.size(); }
  std::size_t samples_used() const { return frontend_.n_samples(); }
  std::size_t feature_dim() const { return frontend_.n_filters(); }
  const QuantizedFrontend& frontend() const { return frontend_; }
  const Head& head(std::size_t q) const { return heads_.at(q); }
  const QuantizationConfig& config() const { return cfg_; }

  CalibratedFormats calibrated_formats() const;

  /// DesignSpec of this exact instance — topology from the trained heads,
  /// HLS precision knobs from the calibrated formats (see
  /// hls_config_from_formats) rather than assumed deployment widths.
  DesignSpec design_spec() const;

  /// Binary little-endian persistence of the complete integer datapath
  /// (config, fused front-end tables, per-qubit integer heads). A reloaded
  /// instance classifies bit-identically. Prefer pipeline/snapshot.h's
  /// save_backend / load_backend wrappers, which add the magic+version
  /// header.
  void save(std::ostream& os) const;
  static IntegerProposedDiscriminator load(std::istream& is);

 private:
  /// This width's entry in InferenceScratch's integer-head buffer sets.
  using HeadScratch =
      IntegerHeadScratch<typename Head::Act, typename Head::Logit>;

  QuantizationConfig cfg_;
  QuantizedFrontend frontend_;
  std::vector<Head> heads_;  ///< One integer head per qubit.
};

extern template class IntegerProposedDiscriminator<std::int16_t>;
extern template class IntegerProposedDiscriminator<std::int8_t>;

using QuantizedProposedDiscriminator =
    IntegerProposedDiscriminator<std::int16_t>;
using Quantized8ProposedDiscriminator =
    IntegerProposedDiscriminator<std::int8_t>;

}  // namespace mlqr
