#include "nn/quantized8_mlp.h"

#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "nn/dense_stack.h"

namespace mlqr {

namespace {

void check_int8_config(const QuantizationConfig& cfg) {
  MLQR_CHECK_MSG(cfg.weight_bits >= 2 && cfg.weight_bits <= 8,
                 "int8 MLP needs weight_bits in [2, 8], got "
                     << cfg.weight_bits);
  MLQR_CHECK_MSG(cfg.activation_bits >= 2 && cfg.activation_bits <= 8,
                 "int8 MLP needs activation_bits in [2, 8], got "
                     << cfg.activation_bits);
  // accum_bits <= 31 keeps every saturated accumulator (and bias) inside
  // int32 — the whole point of the narrow datapath.
  MLQR_CHECK_MSG(cfg.accum_bits >= 8 && cfg.accum_bits <= 31,
                 "int8 MLP needs accum_bits in [8, 31], got "
                     << cfg.accum_bits);
}

/// Rebuilds the derived +128-bias correction row from the weight codes.
void recompute_corr(Quantized8DenseLayer& l) {
  l.corr.assign(l.out, 0);
  for (std::size_t j = 0; j < l.out; ++j) {
    std::int32_t sum = 0;
    const std::int8_t* row = l.w.data() + j * l.in;
    for (std::size_t i = 0; i < l.in; ++i) sum += row[i];
    l.corr[j] = -128 * sum;
  }
}

}  // namespace

Quantized8Mlp Quantized8Mlp::quantize(const Mlp& mlp,
                                      std::span<const float> calib_features,
                                      const FixedPointFormat& input_fmt,
                                      const QuantizationConfig& cfg) {
  check_int8_config(cfg);
  // Identical range calibration and code minting as the int16 twin — only
  // the storage narrows, so the two datapaths agree wherever the widths
  // do.
  return from_quantized(
      QuantizedMlp::quantize(mlp, calib_features, input_fmt, cfg));
}

Quantized8Mlp Quantized8Mlp::from_quantized(const QuantizedMlp& q16) {
  check_int8_config(q16.config());
  Quantized8Mlp q;
  q.cfg_ = q16.config();
  q.layers_.reserve(q16.layers().size());
  for (const QuantizedDenseLayer& l16 : q16.layers()) {
    Quantized8DenseLayer l;
    l.in = l16.in;
    l.out = l16.out;
    MLQR_CHECK_MSG(l.in <= kMaxLayerWidth,
                   "int8 MLP layer width " << l.in << " exceeds the exact "
                       "int32 dot bound (" << kMaxLayerWidth << ")");
    l.weight_fmt = l16.weight_fmt;
    l.in_fmt = l16.in_fmt;
    MLQR_CHECK_MSG(l.in_fmt.total_bits <= 8,
                   "int8 MLP activation grid is " << l.in_fmt.total_bits
                                                  << " bits wide");
    l.w.resize(l16.w.size());
    for (std::size_t i = 0; i < l16.w.size(); ++i) {
      // Codes minted at weight_bits <= 8 always fit int8; pin it anyway so
      // a mismatched config can never truncate silently.
      MLQR_CHECK_MSG(l16.w[i] >= -128 && l16.w[i] <= 127,
                     "weight code " << l16.w[i]
                                    << " does not fit the int8 datapath");
      l.w[i] = static_cast<std::int8_t>(l16.w[i]);
    }
    l.b.resize(l16.b.size());
    for (std::size_t i = 0; i < l16.b.size(); ++i)
      // accum_bits <= 31 bounds |b| < 2^30: exact in int32.
      l.b[i] = static_cast<std::int32_t>(l16.b[i]);
    recompute_corr(l);
    q.layers_.push_back(std::move(l));
  }
  return q;
}

void Quantized8Mlp::save(std::ostream& os) const {
  save_quantization_config(os, cfg_);
  io::write_u64(os, layers_.size());
  for (const Quantized8DenseLayer& l : layers_) {
    io::write_u64(os, l.in);
    io::write_u64(os, l.out);
    save_format(os, l.weight_fmt);
    save_format(os, l.in_fmt);
    io::write_vec_i8(os, l.w);
    io::write_vec_i32(os, l.b);
  }
}

Quantized8Mlp Quantized8Mlp::load(std::istream& is) {
  Quantized8Mlp q;
  q.cfg_ = load_quantization_config(is);
  check_int8_config(q.cfg_);
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt int8 MLP: zero layers");
  q.layers_.resize(n_layers);
  std::size_t prev_out = 0;
  for (Quantized8DenseLayer& l : q.layers_) {
    l.in = io::read_count(is);
    l.out = io::read_count(is);
    l.weight_fmt = load_format(is);
    l.in_fmt = load_format(is);
    l.w = io::read_vec_i8(is);
    l.b = io::read_vec_i32(is);
    check_layer_chain(l, prev_out, "int8 MLP");
    MLQR_CHECK_MSG(l.in <= kMaxLayerWidth,
                   "corrupt int8 MLP: layer width " << l.in
                       << " exceeds the exact int32 dot bound");
    MLQR_CHECK_MSG(l.in_fmt.total_bits <= 8,
                   "corrupt int8 MLP: " << l.in_fmt.total_bits
                                        << "-bit activation grid");
    prev_out = l.out;
    recompute_corr(l);
  }
  return q;
}

std::size_t Quantized8Mlp::input_size() const {
  return stack_input_size(layers_);
}

std::size_t Quantized8Mlp::output_size() const {
  return stack_output_size(layers_);
}

std::size_t Quantized8Mlp::parameter_count() const {
  return stack_parameter_count(layers_);
}

void Quantized8Mlp::logits_into(std::span<const std::int32_t> x,
                                std::vector<std::int32_t>& logits,
                                std::vector<std::uint8_t>& act_a,
                                std::vector<std::uint8_t>& act_b) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "input size " << x.size() << " != " << input_size());
  // Input codes live on the first layer's in_fmt grid (total_bits <= 8),
  // so code + 128 lands exactly in [0, 255]: the biased-uint8 staging the
  // u8xs8 dot kernel needs.
  act_a.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    act_a[i] = static_cast<std::uint8_t>(x[i] + 128);
  std::vector<std::uint8_t>* cur = &act_a;
  std::vector<std::uint8_t>* next = &act_b;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Quantized8DenseLayer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    const std::uint8_t* in_codes = cur->data();
    if (last) {
      logits.resize(layer.out);
    } else {
      next->resize(layer.out);
    }
    const int shift =
        last ? 0
             : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                   layers_[l + 1].in_fmt.frac_bits;
    for (std::size_t j = 0; j < layer.out; ++j) {
      // Exact accumulation: the biased dot plus the per-row correction
      // equals sum_i code_i * w_i by linearity; int64 holds every
      // intermediate, then the saturating clamp restores the narrow
      // ap_fixed accumulator semantics.
      std::int64_t acc =
          static_cast<std::int64_t>(layer.b[j]) + layer.corr[j] +
          simd::dot_u8i8(in_codes, layer.w.data() + j * layer.in, layer.in);
      acc = saturate_to_bits(acc, cfg_.accum_bits);
      if (last) {
        logits[j] = static_cast<std::int32_t>(acc);
      } else {
        if (acc < 0) acc = 0;  // ReLU in the integer domain.
        const std::int64_t code = saturate_to_bits(
            shift_round_half_even(acc, shift), cfg_.activation_bits);
        (*next)[j] = static_cast<std::uint8_t>(code + 128);
      }
    }
    std::swap(cur, next);
  }
}

int Quantized8Mlp::predict(std::span<const std::int32_t> x,
                           std::vector<std::int32_t>& logits,
                           std::vector<std::uint8_t>& act_a,
                           std::vector<std::uint8_t>& act_b) const {
  logits_into(x, logits, act_a, act_b);
  return argmax_tie_low(std::span<const std::int32_t>(logits));
}

void Quantized8Mlp::classify_batch_into(std::size_t batch,
                                        const std::int32_t* features,
                                        std::vector<std::uint8_t>& act_a,
                                        std::vector<std::uint8_t>& act_b,
                                        std::vector<std::int32_t>& logits,
                                        int* labels,
                                        std::size_t label_stride) const {
  if (batch == 0) return;
  const std::size_t in_dim = input_size();
  const std::size_t out_dim = output_size();

  // Shot-lane schedule: activations transposed to [dim][shot] within a
  // block (QuantizedMlp pairs its inputs instead) so the inner
  // loop is contiguous across shots with the weight broadcast. Every
  // |product| <= 255 * 128 < 2^15 and kMaxLayerWidth <= 2^15 bound the
  // int32 lane accumulator by 2^30, so a single int32 accumulation pass
  // is exact for any admissible layer — no strip flushing needed.
  constexpr std::size_t kShotBlock = 128;

  std::size_t max_dim = in_dim;
  for (const Quantized8DenseLayer& layer : layers_)
    max_dim = std::max(max_dim, layer.out);
  act_a.resize(max_dim * kShotBlock);
  act_b.resize(max_dim * kShotBlock);
  logits.resize(out_dim * kShotBlock);

  for (std::size_t s0 = 0; s0 < batch; s0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, batch - s0);
    // Stage the block transposed in the biased-unsigned domain.
    for (std::size_t i = 0; i < in_dim; ++i)
      for (std::size_t s = 0; s < nb; ++s)
        act_a[i * kShotBlock + s] = static_cast<std::uint8_t>(
            features[(s0 + s) * in_dim + i] + 128);
    std::vector<std::uint8_t>* cur = &act_a;
    std::vector<std::uint8_t>* next = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Quantized8DenseLayer& layer = layers_[l];
      const bool last = l + 1 == layers_.size();
      const int shift =
          last ? 0
               : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                     layers_[l + 1].in_fmt.frac_bits;
      for (std::size_t j = 0; j < layer.out; ++j) {
        const std::int8_t* wrow = layer.w.data() + j * layer.in;
        const std::int64_t init =
            static_cast<std::int64_t>(layer.b[j]) + layer.corr[j];
        std::int32_t acc32[kShotBlock];
        std::fill(acc32, acc32 + nb, 0);
        for (std::size_t i = 0; i < layer.in; ++i) {
          const std::int32_t w = wrow[i];
          const std::uint8_t* in_row = cur->data() + i * kShotBlock;
          for (std::size_t s = 0; s < nb; ++s)
            acc32[s] += w * in_row[s];
        }
        // Epilogue: the exact per-(shot, output) chain of logits_into.
        for (std::size_t s = 0; s < nb; ++s) {
          std::int64_t acc = init + acc32[s];
          acc = saturate_to_bits(acc, cfg_.accum_bits);
          if (last) {
            logits[j * kShotBlock + s] = static_cast<std::int32_t>(acc);
          } else {
            if (acc < 0) acc = 0;  // ReLU in the integer domain.
            const std::int64_t code = saturate_to_bits(
                shift_round_half_even(acc, shift), cfg_.activation_bits);
            (*next)[j * kShotBlock + s] =
                static_cast<std::uint8_t>(code + 128);
          }
        }
      }
      std::swap(cur, next);
    }
    // Strided argmax over the transposed logits — same strictly-greater
    // tie-low rule as argmax_tie_low.
    for (std::size_t s = 0; s < nb; ++s) {
      std::size_t best = 0;
      for (std::size_t j = 1; j < out_dim; ++j)
        if (logits[j * kShotBlock + s] > logits[best * kShotBlock + s])
          best = j;
      labels[(s0 + s) * label_stride] = static_cast<int>(best);
    }
  }
}

int Quantized8Mlp::logit_frac_bits() const {
  MLQR_CHECK(!layers_.empty());
  const Quantized8DenseLayer& last = layers_.back();
  return last.in_fmt.frac_bits + last.weight_fmt.frac_bits;
}

double Quantized8Mlp::logit_resolution() const {
  return std::ldexp(1.0, -logit_frac_bits());
}

}  // namespace mlqr
