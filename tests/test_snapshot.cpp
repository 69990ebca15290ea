// Calibration snapshot contracts (pipeline/snapshot.h): a backend saved
// with save_backend, reloaded with load_backend, and served through the
// engines classifies bit-identically to its pre-save original — float and
// int16 kinds, across batch/thread/shard knobs, and through a live
// StreamingEngine::swap_shard — while corrupt or mismatched streams fail
// with hard errors instead of half-loading.
#include "pipeline/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

/// Shared small two-qubit dataset + trained float and int16 designs
/// (training dominates this file's runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator quantized;
  std::vector<int> float_labels;  ///< Sync labels over every trace.
  std::vector<int> int16_labels;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 160;
      cfg.seed = 20260731;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 6;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q =
          QuantizedProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      ReadoutEngine fsync(make_backend(p));
      ReadoutEngine isync(make_backend(q));
      std::vector<int> fl = fsync.process_batch(ds.shots.traces).labels;
      std::vector<int> il = isync.process_batch(ds.shots.traces).labels;
      return Fixture{std::move(ds), std::move(p), std::move(q), std::move(fl),
                     std::move(il)};
    }();
    return fx;
  }
};

/// Labels of every fixture trace through `backend` at the given worker
/// budget.
std::vector<int> classify_all(const EngineBackend& backend,
                              std::size_t threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.min_shots_per_thread = 1;
  ReadoutEngine engine(backend, cfg);
  return engine.process_batch(Fixture::get().ds.shots.traces).labels;
}

TEST(Snapshot, FloatRoundTripBitIdentical) {
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.proposed);
  const BackendSnapshot snap = load_backend(ss);
  EXPECT_EQ(snap.kind(), SnapshotKind::kFloat);
  EXPECT_EQ(snap.name(), fx.proposed.name());
  EXPECT_EQ(snap.num_qubits(), fx.proposed.num_qubits());
  const auto reloaded = snap.as<ProposedDiscriminator>();
  ASSERT_TRUE(reloaded);
  EXPECT_FALSE(snap.as<QuantizedProposedDiscriminator>());
  EXPECT_EQ(reloaded->parameter_count(), fx.proposed.parameter_count());
  for (std::size_t threads : {1u, 4u})
    EXPECT_EQ(classify_all(snap.backend(), threads), fx.float_labels)
        << threads << " threads";
}

TEST(Snapshot, Int16RoundTripBitIdentical) {
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.quantized);
  const BackendSnapshot snap = load_backend(ss);
  EXPECT_EQ(snap.kind(), SnapshotKind::kInt16);
  EXPECT_EQ(snap.name(), fx.quantized.name());
  const auto reloaded = snap.as<QuantizedProposedDiscriminator>();
  ASSERT_TRUE(reloaded);
  EXPECT_FALSE(snap.as<ProposedDiscriminator>());
  // The calibrated formats round-trip exactly — what the FPGA resource
  // model reads from a reloaded calibration.
  const CalibratedFormats a = fx.quantized.calibrated_formats();
  const CalibratedFormats b = reloaded->calibrated_formats();
  EXPECT_EQ(a.trace.total_bits, b.trace.total_bits);
  EXPECT_EQ(a.trace.frac_bits, b.trace.frac_bits);
  EXPECT_EQ(a.feature.frac_bits, b.feature.frac_bits);
  EXPECT_EQ(a.min_weight_frac_bits, b.min_weight_frac_bits);
  for (std::size_t threads : {1u, 4u})
    EXPECT_EQ(classify_all(snap.backend(), threads), fx.int16_labels)
        << threads << " threads";
}

TEST(Snapshot, FileRoundTripAndOwningBackendOutlivesSnapshot) {
  const Fixture& fx = Fixture::get();
  const std::string path = "test_snapshot_tmp.snap";
  save_backend_file(path, fx.quantized);
  EngineBackend backend;
  {
    const BackendSnapshot snap = load_backend_file(path);
    backend = snap.backend();
    // The backend owns the discriminator through its shared_ptr capture;
    // the snapshot (and the file) can go away.
  }
  std::remove(path.c_str());
  EXPECT_EQ(classify_all(backend, 2), fx.int16_labels);
}

TEST(Snapshot, RejectsBadMagicVersionAndTruncation) {
  const Fixture& fx = Fixture::get();
  {
    std::stringstream ss;
    ss << "NOTASNAPxxxxxxxx";
    EXPECT_THROW(load_backend(ss), Error);
  }
  {
    // Valid magic, unsupported version.
    std::stringstream ss;
    ss << "MLQRSNAP";
    io::write_u32(ss, kSnapshotVersion + 7);
    EXPECT_THROW(load_backend(ss), Error);
  }
  {
    // Truncated mid-payload: hard error, not a half-loaded backend.
    std::stringstream full;
    save_backend(full, fx.proposed);
    const std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(load_backend(cut), Error);
  }
  {
    // Unknown kind byte (magic 8 + version 4 -> offset 12).
    std::stringstream full;
    save_backend(full, fx.proposed);
    std::string bytes = full.str();
    bytes[12] = 9;
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_backend(tampered), Error);
  }
  {
    // Header/payload qubit-count mismatch: flip the LSB of the n_qubits
    // u64 (offset 13, after magic + version + kind). The payload decodes
    // cleanly, so this specifically exercises the header cross-check.
    std::stringstream full;
    save_backend(full, fx.proposed);
    std::string bytes = full.str();
    ASSERT_EQ(static_cast<int>(bytes[13]), 2);  // Two-qubit fixture.
    bytes[13] = 9;
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_backend(tampered), Error);
  }
}

TEST(Snapshot, ComponentStreamsRejectDimensionMismatch) {
  // An integer head whose layer payload disagrees with its dims must not
  // load (the low-level half of the "hard errors on dimension mismatch"
  // guarantee; the cross-component half is covered above).
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  fx.quantized.head(0).save(ss);
  std::string bytes = ss.str();
  // The first layer's `in` dim sits right after the 20-byte config and the
  // 8-byte layer count; bump it so w.size() != in * out.
  bytes[28] = static_cast<char>(bytes[28] + 1);
  std::stringstream tampered(bytes);
  EXPECT_THROW(QuantizedProposedDiscriminator::Head::load(tampered), Error);
}

/// A 3 -> 2 -> 3 integer head at its preset's default config whose hidden
/// layer requantizes by shift = in_frac + weight_frac - next_in_frac.
template <typename Code>
std::string shift_head_bytes(int in_frac, int weight_frac, int next_in_frac) {
  constexpr int kBits = IntegerWidth<Code>::kCodeBits;
  std::stringstream ss;
  save_quantization_config(ss, IntegerPreset<Code>::default_config());
  io::write_u64(ss, 2);
  const auto layer = [&](std::size_t in, std::size_t out, int w_frac,
                         int i_frac) {
    io::write_u64(ss, in);
    io::write_u64(ss, out);
    save_format(ss, FixedPointFormat{kBits, w_frac});
    save_format(ss, FixedPointFormat{kBits, i_frac});
    io::write_vec_int(ss, std::vector<Code>(in * out, 1));
    io::write_vec_int(ss,
                      std::vector<typename IntegerMlp<Code>::Logit>(out, 0));
  };
  layer(3, 2, weight_frac, in_frac);
  layer(2, 3, 0, next_in_frac);
  return ss.str();
}

TEST(Snapshot, IntegerHeadsRejectUnrepresentableRequantShift) {
  // load_format accepts each fraction in [-62, 62] on its own, but the
  // chain <W,-62> x <W,-62> -> <W,62> requantizes by a 186-bit left shift
  // (undefined behaviour on the first predict). Both presets' heads must
  // refuse it at load. The rule's edges: shift_round_half_even needs
  // shift < 63, and a left shift of a saturated accumulator must stay in
  // int64 (accum_bits - 1 - shift <= 62).
  const auto check = [](auto code) {
    using Code = decltype(code);
    const auto loads = [](int in_frac, int weight_frac, int next_in_frac) {
      std::stringstream ss(
          shift_head_bytes<Code>(in_frac, weight_frac, next_in_frac));
      try {
        IntegerMlp<Code>::load(ss);
        return true;
      } catch (const Error&) {
        return false;
      }
    };
    const int accum = IntegerPreset<Code>::default_config().accum_bits;
    EXPECT_FALSE(loads(-62, -62, 62));
    EXPECT_TRUE(loads(8, 12, 8));
    EXPECT_TRUE(loads(31, 31, 0));   // shift 62
    EXPECT_FALSE(loads(32, 31, 0));  // shift 63
    EXPECT_TRUE(loads(0, 0, 63 - accum));   // left shift at the int64 edge
    EXPECT_FALSE(loads(0, 0, 64 - accum));  // one bit past it
  };
  check(std::int16_t{});
  check(std::int8_t{});
}

TEST(Snapshot, SwapShardServesReloadedCalibrationWithoutStopping) {
  // Drift-recalibration flow: a float engine serves traffic, a snapshot of
  // a quantized recalibration is loaded, and swap_shard installs it on
  // every shard between micro-batches — later tickets classify on the new
  // backend, earlier ones keep their old labels, nothing is dropped.
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.quantized);
  const BackendSnapshot snap = load_backend(ss);

  StreamingConfig cfg;
  cfg.queue_capacity = fx.ds.shots.size();
  cfg.batch_max = 16;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(120, fx.ds.shots.size());
  const std::size_t half = n / 2;

  std::vector<StreamingEngine::Ticket> tickets;
  for (std::size_t s = 0; s < half; ++s)
    tickets.push_back(eng.submit(fx.ds.shots.traces[s]));
  eng.drain();  // Pre-swap shots are classified (float) before the swap.
  eng.swap_shard(0, snap.backend());
  eng.swap_shard(1, snap.backend());
  EXPECT_EQ(eng.stats().swaps, 2u);
  for (std::size_t s = half; s < n; ++s)
    tickets.push_back(eng.submit(fx.ds.shots.traces[s]));
  eng.drain();

  const std::size_t nq = eng.num_qubits();
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<int> got(nq);
    eng.wait(tickets[s], got);
    const std::vector<int>& want = s < half ? fx.float_labels : fx.int16_labels;
    for (std::size_t q = 0; q < nq; ++q)
      ASSERT_EQ(got[q], want[s * nq + q]) << "shot " << s << " qubit " << q;
  }
  EXPECT_EQ(eng.stats().completed, n);
}

TEST(Snapshot, SwapShardUnderConcurrentTrafficKeepsTicketFrameBinding) {
  // Swapping in the *same* calibration (reloaded from its snapshot) while
  // producers stream means every label is independent of when the swap
  // lands — any dropped, rerouted, or misbound ticket would surface as a
  // mismatch. Also the TSan target for the swap path.
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.proposed);
  const BackendSnapshot snap = load_backend(ss);

  StreamingConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batch_max = 8;
  cfg.deadline_us = 50;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(200, fx.ds.shots.size());
  {
    std::jthread producer([&] {
      for (std::size_t s = 0; s < n; ++s) eng.submit(fx.ds.shots.traces[s]);
    });
    std::jthread swapper([&] {
      for (int round = 0; round < 6; ++round) {
        eng.swap_shard(round % 2, snap.backend());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const std::size_t nq = eng.num_qubits();
    std::vector<int> out(nq);
    for (std::size_t s = 0; s < n; ++s) {  // Tickets are issued in order.
      eng.wait(s, out);
      for (std::size_t q = 0; q < nq; ++q)
        ASSERT_EQ(out[q], fx.float_labels[s * nq + q])
            << "shot " << s << " qubit " << q;
    }
  }  // Joins producer and swapper before checking the swap counter.
  EXPECT_EQ(eng.stats().swaps, 6u);
}

TEST(Snapshot, SwapShardValidatesBackendAndIndex) {
  const Fixture& fx = Fixture::get();
  StreamingEngine eng(make_backend(fx.proposed), 2);
  EXPECT_THROW(eng.swap_shard(0, EngineBackend{}), Error);
  EXPECT_THROW(
      eng.swap_shard(0, EngineBackend("odd", fx.proposed.num_qubits() + 1,
                                      [](const IqTrace&, InferenceScratch&,
                                         std::span<int>) {})),
      Error);
  EXPECT_THROW(eng.swap_shard(7, make_backend(fx.proposed)), Error);
  EXPECT_EQ(eng.stats().swaps, 0u);
}

}  // namespace
}  // namespace mlqr
