// Pre-rotated matched-filter kernel storage shared by the float and
// integer fused front-ends — the sample-type-parameterized core of the
// one-pass DDC+MF design.
//
// Both front-ends hold the same thing: an SoA pair of filter-major rows
// (Re R and Im R of every kernel pre-rotated by its qubit's LO) streamed
// by a fused dot product per filter. Only the sample type differs — float
// rows driven by simd::fused_dot_f32 versus int16 code rows driven by
// simd::fused_dot_i16 with the madd-safety invariant (no -2^15 code).
// FusedSampleTraits captures exactly those differences; FusedKernelTable
// is everything else, written once, so the ROADMAP's int8 datapath adds a
// traits specialization instead of a third front-end copy. Serialization
// delegates to the same write_vec_* calls the front-ends used directly —
// the on-disk byte layout is unchanged.
//
// The table also computes each distinct row once. A bank's scarce-data
// RMF/EMF fallback kernels are exact copies or exact negations of its QMF
// kernels (mf/mf_bank.h), so finalize() groups the rows and scores()/
// scores_block() run one fused dot product per distinct row, fanning the
// score out to every filter that row serves (negated where the filter's
// row is the exact negation). Round-to-nearest is sign-symmetric, so a
// negated row's score is exactly the negated score: the fan-out is
// bit-identical to accumulating every row. The groups are derived from the
// row bytes alone, never serialized.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace mlqr {

/// The per-sample-type policy: accumulator width, the SIMD fused dot
/// product, row (de)serialization, and the load-time code validation.
template <typename Sample>
struct FusedSampleTraits;

template <>
struct FusedSampleTraits<float> {
  using Accum = float;

  static Accum fused_dot(const float* kr, const float* ki, const float* xi,
                         const float* xq, std::size_t n,
                         std::size_t /*strip*/) {
    return simd::fused_dot_f32(kr, ki, xi, xq, n);
  }
  /// Float accumulation has no overflow notion; strip is unused.
  static std::size_t compute_strip(const std::vector<float>&,
                                   const std::vector<float>&) {
    return 1;
  }
  static void write_rows(std::ostream& os, const std::vector<float>& rows) {
    io::write_vec_f32(os, rows);
  }
  static std::vector<float> read_rows(std::istream& is) {
    return io::read_vec_f32(is);
  }
  /// Every float bit pattern is a legal kernel sample (NaN scores clamp at
  /// the winsorization bound downstream).
  static void check_codes(const std::vector<float>&) {}
  /// Hash key of one sample, negated when `flip`: the bit pattern, with
  /// both zeros on one key because alias checks compare samples by value.
  static std::uint64_t sample_key(float x, bool flip) {
    const float v = flip ? -x : x;
    return v == 0.0f ? 0 : std::bit_cast<std::uint32_t>(v);
  }
  /// The exact score of a row's negation. fused_dot_f32 never returns -0
  /// (its chains start at +0, and a sum is -0 only when both terms are),
  /// and a negated row whose score is exactly 0 scores +0 too; 0 - acc
  /// reproduces both cases, where -acc would turn +0 into -0.
  static Accum negate(Accum acc) { return 0.0f - acc; }
};

template <>
struct FusedSampleTraits<std::int16_t> {
  using Accum = std::int64_t;

  static Accum fused_dot(const std::int16_t* kr, const std::int16_t* ki,
                         const std::int16_t* xi, const std::int16_t* xq,
                         std::size_t n, std::size_t strip) {
    return simd::fused_dot_i16_strip(kr, ki, xi, xq, n, strip);
  }
  static void fused_dot_x4(const std::int16_t* kr, const std::int16_t* ki,
                           const std::int16_t* const* xi,
                           const std::int16_t* const* xq, std::size_t n,
                           std::size_t strip, Accum* out) {
    simd::fused_dot_i16_strip_x4(kr, ki, xi, xq, n, strip, out);
  }
  /// Largest strip (madd blocks accumulated in a plain int32 lane before
  /// one split flush, see common/simd.h) the kernel-code magnitudes
  /// provably cannot overflow: strip * 2 * max|code| * 2^15 <= 2^31 - 1,
  /// trace codes assumed full-range. Narrow kernel grids (12-bit codes ->
  /// strip 16) flush once per many blocks; the default 16-bit grid
  /// collapses to 1, where every block flushes into the split halves —
  /// still int32 lanes, no int64 widening in the loop.
  static std::size_t compute_strip(const std::vector<std::int16_t>& kr,
                                   const std::vector<std::int16_t>& ki) {
    std::int64_t max_abs = 1;
    for (std::int16_t c : kr) {
      const std::int64_t a = c < 0 ? -std::int64_t{c} : std::int64_t{c};
      max_abs = std::max(max_abs, a);
    }
    for (std::int16_t c : ki) {
      const std::int64_t a = c < 0 ? -std::int64_t{c} : std::int64_t{c};
      max_abs = std::max(max_abs, a);
    }
    const std::int64_t per_block = 2 * max_abs * 32768;
    return static_cast<std::size_t>(
        std::max<std::int64_t>(1, ((std::int64_t{1} << 31) - 1) / per_block));
  }
  static void write_rows(std::ostream& os,
                         const std::vector<std::int16_t>& rows) {
    io::write_vec_int(os, rows);
  }
  static std::vector<std::int16_t> read_rows(std::istream& is) {
    return io::read_vec_int<std::int16_t>(is);
  }
  /// fused_dot_i16's pairwise int16 multiply-add requires kernel codes
  /// != -2^15 — the invariant the builders pin where codes are minted,
  /// re-pinned here on every (untrusted) load.
  static void check_codes(const std::vector<std::int16_t>& rows) {
    for (std::int16_t c : rows)
      MLQR_CHECK_MSG(c > INT16_MIN, "kernel code -32768 is not representable");
  }
  static std::uint64_t sample_key(std::int16_t x, bool flip) {
    const std::int32_t v = flip ? -std::int32_t{x} : std::int32_t{x};
    return static_cast<std::uint32_t>(v);
  }
  /// Integer sums are exact, so a negated row scores exactly -acc.
  static Accum negate(Accum acc) { return -acc; }
};

/// One filter served by a distinct kernel row: the filter's index, and
/// whether the filter's own row is the exact negation of the distinct row.
struct FusedFanOut {
  std::uint32_t filter = 0;
  bool negate = false;
};

/// The rotated-kernel SoA both fused front-ends stream: n_filters x
/// n_samples real rows and imaginary rows, contiguous and filter-major so
/// the hot loop reads sequentially.
template <typename Sample>
class FusedKernelTable {
 public:
  using Traits = FusedSampleTraits<Sample>;
  using Accum = typename Traits::Accum;

  FusedKernelTable() = default;

  /// Most shots scores_block() takes at once.
  static constexpr std::size_t kMaxShotBlock = 8;

  /// Zero-filled table of n_filters rows of n_samples each, every row its
  /// own distinct row until finalize().
  void assign(std::size_t n_filters, std::size_t n_samples) {
    n_samples_ = n_samples;
    strip_ = 1;
    kr_.assign(n_filters * n_samples, Sample{});
    ki_.assign(n_filters * n_samples, Sample{});
    std::vector<std::uint32_t> lead(n_filters);
    std::iota(lead.begin(), lead.end(), 0u);
    group_rows(std::move(lead), std::vector<bool>(n_filters));
  }

  std::size_t n_samples() const { return n_samples_; }
  std::size_t row_elements() const { return kr_.size(); }

  Sample* row_r(std::size_t f) { return kr_.data() + f * n_samples_; }
  Sample* row_i(std::size_t f) { return ki_.data() + f * n_samples_; }
  const Sample* row_r(std::size_t f) const {
    return kr_.data() + f * n_samples_;
  }
  const Sample* row_i(std::size_t f) const {
    return ki_.data() + f * n_samples_;
  }

  /// Filter f's fused score over the raw sample streams:
  /// sum_t [ Re R(t) * xi(t) - Im R(t) * xq(t) ], SIMD per sample type.
  Accum accumulate(std::size_t f, const Sample* xi, const Sample* xq) const {
    return Traits::fused_dot(row_r(f), row_i(f), xi, xq, n_samples_, strip_);
  }

  /// Number of distinct rows: the fused dot products one shot costs.
  std::size_t distinct_rows() const { return lead_.size(); }
  /// The filters distinct row d serves, in ascending filter order; the
  /// first is the row d accumulates (it never negates).
  std::span<const FusedFanOut> fan_out(std::size_t d) const {
    return {fan_.data() + fan_begin_[d], fan_begin_[d + 1] - fan_begin_[d]};
  }

  /// Every filter's fused score for one shot, one accumulate() per
  /// distinct row: calls emit(filter, score) once per filter, in
  /// distinct-row order. Each score is bit-identical to accumulate(filter).
  template <typename Emit>
  void scores(const Sample* xi, const Sample* xq, Emit&& emit) const {
    for (std::size_t d = 0; d < lead_.size(); ++d) {
      const Accum acc = accumulate(lead_[d], xi, xq);
      for (const FusedFanOut& o : fan_out(d))
        emit(o.filter, o.negate ? Traits::negate(acc) : acc);
    }
  }

  /// scores() for nb <= kMaxShotBlock shots at once: each distinct row
  /// streams once across the block (four shots per accumulate4 where the
  /// sample type has it), then emit(filter, shot, score) runs per
  /// (filter, shot).
  template <typename Emit>
  void scores_block(std::size_t nb, const Sample* const* xi,
                    const Sample* const* xq, Emit&& emit) const {
    MLQR_CHECK(nb <= kMaxShotBlock);
    Accum accs[kMaxShotBlock] = {};
    for (std::size_t d = 0; d < lead_.size(); ++d) {
      const std::size_t row = lead_[d];
      std::size_t s = 0;
      if constexpr (requires { &Traits::fused_dot_x4; })
        for (; s + 4 <= nb; s += 4) accumulate4(row, xi + s, xq + s, accs + s);
      for (; s < nb; ++s) accs[s] = accumulate(row, xi[s], xq[s]);
      for (const FusedFanOut& o : fan_out(d))
        for (s = 0; s < nb; ++s)
          emit(o.filter, s, o.negate ? Traits::negate(accs[s]) : accs[s]);
    }
  }

  /// Derives everything the rows imply once they are final: the
  /// overflow-safe int32 strip, and the distinct rows. Rows whose samples
  /// are equal, or exactly negated, by value (±0 alike; a NaN matches
  /// nothing) share one distinct row, led by the lowest such filter.
  /// It runs on untrusted loads, so it costs O(F·S + F log F) for F rows
  /// of S samples, never a pairwise scan: each row is hashed
  /// sign-normalised (negated when its first nonzero sample is negative,
  /// so a row and its negation hash alike), the F hashes are sorted, and
  /// each row is confirmed sample by sample against the first row of its
  /// hash run only; a row that does not match (a 64-bit hash collision)
  /// stays its own distinct row.
  /// Builders call this once after minting rows through row_r()/row_i();
  /// load_rows() runs it itself. Until called, strip_ = 1 and every row is
  /// distinct (always correct, just slower).
  void finalize() {
    strip_ = Traits::compute_strip(kr_, ki_);
    const std::size_t n_rows = n_samples_ == 0 ? 0 : kr_.size() / n_samples_;
    MLQR_CHECK_MSG(n_rows <= UINT32_MAX, "too many kernel rows: " << n_rows);
    std::vector<bool> flip(n_rows);
    std::vector<std::uint64_t> hash(n_rows);
    std::vector<std::uint32_t> order(n_rows);
    for (std::size_t f = 0; f < n_rows; ++f) {
      flip[f] = leads_negative(f);
      hash[f] = row_hash(f, flip[f]);
      order[f] = static_cast<std::uint32_t>(f);
    }
    std::sort(order.begin(), order.end(),
              [&hash](std::uint32_t a, std::uint32_t b) {
                return hash[a] != hash[b] ? hash[a] < hash[b] : a < b;
              });
    // lead[f]: the lowest filter whose row f's row equals or negates
    // (f itself if none).
    std::vector<std::uint32_t> lead(n_rows);
    std::vector<bool> negated(n_rows);
    for (std::size_t k = 0; k < n_rows;) {
      const std::uint32_t first = order[k];
      lead[first] = first;
      for (++k; k < n_rows && hash[order[k]] == hash[first]; ++k) {
        const std::uint32_t g = order[k];
        const bool neg = flip[g] != flip[first];
        const bool alias = rows_match(first, g, neg);
        lead[g] = alias ? first : g;
        negated[g] = alias && neg;
      }
    }
    group_rows(std::move(lead), negated);
  }

  /// Real rows then imaginary rows, each as one length-prefixed vector —
  /// byte-identical to the layout the front-ends wrote before the table
  /// existed.
  void save_rows(std::ostream& os) const {
    Traits::write_rows(os, kr_);
    Traits::write_rows(os, ki_);
  }

  /// Reads both row tables and re-validates the per-type code invariants.
  /// The caller supplies `n_samples` (already decoded from its own header
  /// field) and cross-checks row_elements() against its filter count —
  /// the table cannot know how many filters the surrounding payload
  /// promised.
  void load_rows(std::istream& is, std::size_t n_samples) {
    n_samples_ = n_samples;
    kr_ = Traits::read_rows(is);
    ki_ = Traits::read_rows(is);
    MLQR_CHECK_MSG(ki_.size() == kr_.size() &&
                       (n_samples_ == 0 || kr_.size() % n_samples_ == 0),
                   "kernel row tables do not match their dims ("
                       << kr_.size() << " vs " << ki_.size() << " elements, "
                       << n_samples_ << " samples per row)");
    Traits::check_codes(kr_);
    Traits::check_codes(ki_);
    finalize();
  }

 private:
  /// Four-stream accumulate for scores_block(): filter f's fused score for
  /// four sample streams sharing every kernel-row load, at any strip.
  /// Integer exactness makes it bit-identical to four accumulate() calls;
  /// only instantiated for sample types whose traits provide fused_dot_x4.
  void accumulate4(std::size_t f, const Sample* const* xi,
                   const Sample* const* xq, Accum* out) const {
    Traits::fused_dot_x4(row_r(f), row_i(f), xi, xq, n_samples_, strip_, out);
  }

  /// Whether row f's first nonzero sample (real row, then imaginary) is
  /// negative; false for an all-zero row.
  bool leads_negative(std::size_t f) const {
    for (const Sample* row : {row_r(f), row_i(f)})
      for (std::size_t t = 0; t < n_samples_; ++t)
        if (row[t] != Sample{}) return row[t] < Sample{};
    return false;
  }

  /// FNV-1a over row f's sample keys, negated when `flip`.
  std::uint64_t row_hash(std::size_t f, bool flip) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Sample* row : {row_r(f), row_i(f)})
      for (std::size_t t = 0; t < n_samples_; ++t)
        h = (h ^ Traits::sample_key(row[t], flip)) * 0x100000001b3ull;
    return h;
  }

  /// Whether row g equals row f (negate: equals its negation) by value.
  bool rows_match(std::size_t f, std::size_t g, bool negate) const {
    const auto same = [negate](Sample a, Sample b) {
      return negate ? a == -b : a == b;
    };
    for (std::size_t t = 0; t < n_samples_; ++t)
      if (!same(row_r(f)[t], row_r(g)[t]) || !same(row_i(f)[t], row_i(g)[t]))
        return false;
    return true;
  }

  /// Builds the distinct rows from lead[f] (the lowest filter whose row
  /// f's row aliases, f itself if none) and negated[f]. Filters are
  /// visited in ascending order, so each fan-out lists its lead first.
  void group_rows(std::vector<std::uint32_t> lead,
                  const std::vector<bool>& negated) {
    const std::size_t n_rows = lead.size();
    lead_.clear();
    // lead[f] becomes f's distinct-row index (lead[l] is rewritten
    // before any f > l reads it).
    for (std::size_t f = 0; f < n_rows; ++f) {
      if (lead[f] == f) {
        lead[f] = static_cast<std::uint32_t>(lead_.size());
        lead_.push_back(static_cast<std::uint32_t>(f));
      } else {
        lead[f] = lead[lead[f]];
      }
    }
    fan_begin_.assign(lead_.size() + 1, 0);
    for (std::size_t f = 0; f < n_rows; ++f) ++fan_begin_[lead[f] + 1];
    for (std::size_t d = 0; d < lead_.size(); ++d)
      fan_begin_[d + 1] += fan_begin_[d];
    std::vector<std::uint32_t> next(fan_begin_.begin(), fan_begin_.end() - 1);
    fan_.resize(n_rows);
    for (std::size_t f = 0; f < n_rows; ++f)
      fan_[next[lead[f]]++] = {static_cast<std::uint32_t>(f), negated[f]};
  }

  std::size_t n_samples_ = 0;
  std::size_t strip_ = 1;   ///< int32 strip; see finalize().
  std::vector<Sample> kr_;  ///< Re R, n_filters x n_samples, filter-major.
  std::vector<Sample> ki_;  ///< Im R, same layout.
  std::vector<std::uint32_t> lead_;       ///< Per distinct row: its row.
  std::vector<std::uint32_t> fan_begin_;  ///< Distinct row d's fan-out is
                                          ///< fan_[fan_begin_[d], [d+1]).
  std::vector<FusedFanOut> fan_;          ///< One per filter.
};

}  // namespace mlqr
