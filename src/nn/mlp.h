// Feed-forward multilayer perceptron (dense, ReLU hidden, linear logits).
//
// Small enough to hand to the FPGA resource estimator layer-by-layer, yet
// fast enough (via linalg/gemm.h) to train the 686 k-parameter FNN
// baseline. Every weight and bias lives in one contiguous float arena,
// layer by layer W (out x in, row-major) then b — the order save() writes.
// The trainer's gradients and AdamW's moments are flat arrays of the same
// layout, so an optimizer step, a gradient reduction or a best-epoch
// restore is one loop over one span. Per-layer views are computed from the
// layer sizes on each call and never stored, so copies and moves need no
// fix-up. The fixed-point datapath of the quantization study is
// nn/integer_mlp.h, built from a trained Mlp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace mlqr {

/// One dense layer viewed inside a parameter arena: y = W x + b with W
/// row-major (out x in). `T` is `const float` for reading, `float` for
/// writing (a gradient, or the model's own arena).
template <typename T>
struct DenseLayerView {
  std::size_t in = 0;
  std::size_t out = 0;
  std::span<T> w;  ///< out x in, row-major.
  std::span<T> b;  ///< out.
};
using DenseLayer = DenseLayerView<const float>;

/// MLP over float features. Hidden activations are ReLU; the final layer
/// emits raw logits (softmax lives in the loss / caller).
class Mlp {
 public:
  Mlp() = default;

  /// Builds layers from sizes, e.g. {45, 22, 11, 3}. Needs >= 2 entries.
  explicit Mlp(std::vector<std::size_t> layer_sizes);

  /// He-normal weight initialization (deterministic given rng state).
  void init_weights(Rng& rng);

  std::size_t input_size() const;
  std::size_t output_size() const;
  std::size_t num_layers() const {
    return sizes_.empty() ? 0 : sizes_.size() - 1;
  }
  std::size_t parameter_count() const { return params_.size(); }
  /// Layer widths, input first: {in, hidden..., out}.
  const std::vector<std::size_t>& layer_sizes() const { return sizes_; }

  /// Length of the parameter arena of a network with these layer widths
  /// (the one place that knows a layer takes (in + 1) * out floats).
  static std::size_t arena_size(std::span<const std::size_t> sizes) {
    std::size_t n = 0;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
      n += (sizes[l] + 1) * sizes[l + 1];
    return n;
  }

  /// The parameter arena: per layer, W then b.
  std::span<const float> params() const { return params_; }
  std::span<float> params() { return params_; }

  /// Layer `l`'s weights and bias inside params().
  DenseLayer layer(std::size_t l) const { return layer(l, params()); }

  /// Layer `l`'s weights and bias inside any arena laid out like params()
  /// (a gradient, a moment vector), so no caller computes offsets.
  template <typename T>
  DenseLayerView<T> layer(std::size_t l, std::span<T> arena) const {
    MLQR_CHECK(l < num_layers() && arena.size() == params_.size());
    const std::size_t at = arena_size(std::span(sizes_).first(l + 1));
    const std::size_t in = sizes_[l], out = sizes_[l + 1];
    return {in, out, arena.subspan(at, in * out),
            arena.subspan(at + in * out, out)};
  }

  /// Logits for a single sample (x.size() == input_size()).
  std::vector<float> logits(std::span<const float> x) const;

  /// Allocation-free logits: the result lands in `out`; `scratch` holds the
  /// intermediate activations. Both reuse their capacity call-to-call —
  /// the streaming engine's per-worker scratch path.
  void logits_into(std::span<const float> x, std::vector<float>& out,
                   std::vector<float>& scratch) const;

  /// argmax of logits(x).
  int predict(std::span<const float> x) const;

  /// argmax via logits_into — allocation-free predict.
  int predict_reusing(std::span<const float> x, std::vector<float>& out,
                      std::vector<float>& scratch) const;

  /// predict_reusing plus the softmax probability of the winning class
  /// (written to `p_max`, in (0, 1]). The label is bit-identical to
  /// predict_reusing — same logits, same tie-low argmax — so confidence
  /// monitoring never disagrees with the serving path about the label.
  int predict_scored_reusing(std::span<const float> x, std::vector<float>& out,
                             std::vector<float>& scratch, float& p_max) const;

  /// Batched argmax classify: one serial GEMM per layer over `batch`
  /// feature rows (row-major, batch x input_size()) with a shared
  /// vectorized bias(+ReLU) epilogue, then per-row argmax into
  /// labels[r * label_stride]. act_a/act_b are row-major ping-pong
  /// activation matrices that reuse their capacity call-to-call (the
  /// per-worker scratch path). Labels are bit-identical to
  /// predict_reusing on every row — the GEMM evaluates the same dot
  /// kernels with the same output blocking as sgemv, and a +-0.0
  /// difference from the split bias add cannot flip an argmax.
  void classify_batch_into(std::size_t batch, const float* features,
                           std::vector<float>& act_a,
                           std::vector<float>& act_b, int* labels,
                           std::size_t label_stride) const;

  /// Binary little-endian serialization (layer dims + exact f32 weight bit
  /// patterns; calibration snapshot leaf). load throws mlqr::Error on a
  /// truncated stream or inconsistent layer chain, and checks every
  /// payload count against its dims and the stream's remaining bytes
  /// before growing the arena.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  std::vector<std::size_t> sizes_;  ///< {in, hidden..., out}.
  std::vector<float> params_;       ///< Per layer: W (out x in), then b.
};

}  // namespace mlqr
