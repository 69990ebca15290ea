// Building blocks shared by the float (nn/mlp.h) and integer
// (nn/integer_mlp.h) dense networks.
//
// Both MLPs are stacks of layers carrying `in`/`out` dims plus weight and
// bias payloads; the arithmetic and the storage differ (one float
// parameter arena, per-layer integer code vectors). The load-time chain
// validation that keeps a corrupt snapshot from half-building a network,
// and the tie-to-lowest argmax rule both forward passes share, live here
// once instead of twice with drifting error messages.
#pragma once

#include <cstddef>
#include <span>

#include "common/error.h"

namespace mlqr {

/// Load-path validation of one layer header: nonzero dims and the chain
/// rule (layer l's input width equals layer l-1's output width). `what`
/// names the network kind in the error ("MLP", "integer MLP"). `prev_out`
/// is 0 for the first layer and the previous layer's `out` after; callers
/// thread it through the loop. Runs before any payload is read, so a
/// corrupt header never sizes an allocation.
inline void check_layer_dims(std::size_t in, std::size_t out,
                             std::size_t prev_out, const char* what) {
  MLQR_CHECK_MSG(in > 0 && out > 0, "corrupt " << what << " layer header");
  MLQR_CHECK_MSG(prev_out == 0 || in == prev_out,
                 what << " layer chain mismatch: input "
                      << in << " after a layer with " << prev_out
                      << " outputs");
}

/// argmax with ties broken to the lowest index — the classification rule
/// both forward passes implement (std::max_element's behaviour, and what
/// the FPGA comparator tree does). Factored so float and integer logits
/// provably share one rule; bit-identity of labels across paths depends on
/// it.
template <typename T>
int argmax_tie_low(std::span<const T> scores) {
  MLQR_CHECK(!scores.empty());
  std::size_t best = 0;
  for (std::size_t j = 1; j < scores.size(); ++j)
    if (scores[j] > scores[best]) best = j;
  return static_cast<int>(best);
}

}  // namespace mlqr
