// AdamW optimizer state behind a checkpointable seam.
//
// The recalibration loop wants warm starts: retrain the same head a few
// epochs from the previous calibration's weights *and* moments.
// AdamWOptimizer owns the first/second moments — two flat vectors laid out
// like Mlp::params() — plus the step counter and the layer sizes they
// belong to, applies one update per reduced minibatch gradient (one loop
// over the whole arena), and save/load round-trips losslessly so the
// state can ride along with a calibration snapshot.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "nn/mlp.h"

namespace mlqr {

/// Hyper-parameters for one AdamW step (mirrors the TrainerConfig fields).
struct AdamWParams {
  float learning_rate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Decoupled-weight-decay Adam (AdamW) with checkpointable state. A
/// warm-start retrain resumes exactly where the previous calibration pass
/// stopped — same moments, same bias-correction schedule — instead of
/// re-paying the Adam warmup on every recalibration.
class AdamWOptimizer {
 public:
  AdamWOptimizer() = default;
  explicit AdamWOptimizer(const Mlp& model) { reset(model); }

  /// (Re)allocates zeroed moments for `model` and rewinds the step count.
  void reset(const Mlp& model);

  bool initialized() const { return !sizes_.empty(); }

  /// True when the moments belong to a model with `model`'s layer sizes.
  /// A shape check, not a size check: two topologies with equal parameter
  /// counts do not match.
  bool matches(const Mlp& model) const;

  long step_count() const { return step_; }

  /// Applies one AdamW update to `model` from `grad`, a flat gradient laid
  /// out like model.params(). Advances the step counter first; bias
  /// correction uses the post-increment count, matching the long-standing
  /// trainer behaviour.
  void step(Mlp& model, std::span<const float> grad, const AdamWParams& p);

  /// Binary little-endian persistence (exact f32 bit patterns), so a
  /// reloaded optimizer continues bit-identically. Layout: step (u64),
  /// layer sizes (u64 count + u64 each), then the first and the second
  /// moment as count-prefixed f32 runs.
  void save(std::ostream& os) const;
  /// Throws mlqr::Error on a truncated or inconsistent stream; every count
  /// is bounded by the stream's remaining bytes before it sizes anything.
  static AdamWOptimizer load(std::istream& is);

 private:
  long step_ = 0;
  std::vector<std::size_t> sizes_;  ///< The model's Mlp::layer_sizes().
  std::vector<float> m_, v_;        ///< First/second moments.
};

}  // namespace mlqr
