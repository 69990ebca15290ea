// Shared pieces of the repository benchmark: clock and order statistics,
// the metric report, the shared set-up every workload starts from, the
// benchmark-side tracer, and the workload entry points.
//
// The benchmark measures mlqr from outside: every number comes from timing
// calls into the library's public API. Nothing in src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/readout_engine.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace mlqr_benchmark {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the same rule as numpy's default). Empty input yields 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The end-to-end estimator over a run's sub-windows or rounds: their best
/// decile. Outside load on a shared host only ever slows a sub-window
/// down, and comes in bursts of seconds, so the best decile estimates what
/// the code does when the host leaves it alone; a slower program is slower
/// in every sub-window, so the estimate still moves with it.
inline double best_decile_time(std::vector<double> v) { return quantile(std::move(v), 0.1); }
inline double best_decile_rate(std::vector<double> v) { return quantile(std::move(v), 0.9); }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Every metric the run measured (name -> value, unit), plus the
/// correctness books. Failures are counted against attempts; each distinct
/// reason is printed once.
class Report {
 public:
  /// Records a metric; a later value of the same name replaces the earlier
  /// one (streams re-report the engine-layer metrics of the sync passes).
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Human-readable metric lines, then the final RESULT line with every
  /// metric as JSON (benchmark/run.py selects the declared ones).
  void print(std::ostream& os) const;

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::uint64_t> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

enum BackendId : std::size_t { kFloat = 0, kInt16 = 1, kInt8 = 2, kNumBackends = 3 };
inline const char* backend_tag(std::size_t b) {
  static const char* const kTags[] = {"float", "int16", "int8"};
  return kTags[b];
}

/// The shared set-up: the five-qubit dataset, the trained float design and
/// its int16/int8 quantizations, and the per-shot reference labels of
/// every backend over the held-out split (the frame pool).
struct Setup {
  mlqr::ReadoutDataset ds;
  mlqr::BackendSnapshot backends[kNumBackends];
  std::vector<std::size_t> pool;          ///< ds.test_idx: held-out shots.
  std::vector<int> ref[kNumBackends];     ///< Per-shot labels, pool-major.
  double fidelity[kNumBackends] = {};     ///< F5Q of ref vs ground truth.
  std::size_t workers = 1;                ///< Engine worker budget.
  double dataset_s = 0, train_s = 0, quantize_s = 0, setup_s = 0;

  std::size_t n_qubits() const { return ds.shots.n_qubits; }
  const mlqr::IqTrace& frame(std::size_t p) const { return ds.shots.traces[pool[p]]; }
  const int* truth(std::size_t p) const {
    return ds.shots.labels.data() + pool[p] * n_qubits();
  }
  const mlqr::ProposedDiscriminator& float_design() const;
};

/// Builds the shared set-up `repeats` times (each from scratch, checking
/// the trained snapshots are byte-identical across repeats), keeps the
/// last, and reports the median set-up time. Computes the reference labels
/// and fidelities and checks them (pinned values at the default seed).
std::unique_ptr<Setup> build_setup(std::uint64_t seed, int repeats, Report& report);

/// Classify-call accounting shared by every traced engine: the timing
/// decorator below adds one entry per classify_into / classify_batch_into
/// call. Counters are atomics because engine workers call concurrently.
struct ClassifyBook {
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> shots{0};
  std::atomic<std::uint64_t> gemm_shots{0};
  void reset() { busy_ns = 0; calls = 0; shots = 0; gemm_shots = 0; }
};

/// Maps a frame back to its ticket for the traced streaming runs: a frame's
/// first samples identify its pool index, and the producer records the
/// ticket last issued for each pool index (the in-flight window is far
/// smaller than the pool, so the mapping is unique while a frame is in
/// flight). Classify spans land in per-ticket ring columns.
struct TicketSpans {
  std::unordered_map<std::uint64_t, std::uint32_t> pool_of_key;
  std::vector<std::uint64_t> ticket_of_pool;  ///< Written by the producer.
  std::vector<std::int64_t> cls_begin, cls_end;  ///< Ring, ticket % size.
  std::atomic<std::uint64_t> unmapped{0};

  static std::uint64_t frame_key(const mlqr::IqTrace& t);
  void init(const Setup& s, std::size_t ring);
  void record(const mlqr::IqTrace& t, std::int64_t b, std::int64_t e);
};

/// Wraps `inner` in a timing decorator: same labels, every classify call
/// timed into `book` (and, when `spans` is set, attributed to tickets).
mlqr::EngineBackend timed_backend(const mlqr::EngineBackend& inner, ClassifyBook* book,
                                  TicketSpans* spans);

/// One coarse span (process_batch, train, save, load, swap, drift poll...)
/// kept in preallocated memory and written out when the run ends.
struct Span {
  const char* name;
  std::uint64_t id;
  std::int64_t begin_ns, end_ns;
  std::uint64_t n;
};

/// Thread-safe: the consumer, the recalibration driver and the phases all
/// add spans.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }
  void add(const char* name, std::uint64_t id, std::int64_t b, std::int64_t e,
           std::uint64_t n = 1);
  /// Durations (us) of every span with this name.
  std::vector<double> durations_us(const char* name) const;
  std::uint64_t dropped() const;
  /// Writes the spans as CSV; returns false if the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
  std::uint64_t dropped_ = 0;  ///< Guarded by mu_.
};

// ---- phases shared by the workloads (phases.cpp) ----

struct SyncRates {
  double shots_per_s[kNumBackends] = {};  ///< Best-decile pass rate.
  double all_shots_per_s = 0;             ///< Same, all three passes.
  double float_p50_us = 0;  ///< Best decile of the rounds' median float wall.
  std::vector<double> float_batch_us;     ///< Every float process_batch wall.
  double float_total_s = 0;               ///< Their sum.
};

/// Round-robin process_batch passes over the whole pool (float, int16,
/// int8; 1024-shot batches) for `rounds` rounds, or until `seconds` have
/// elapsed when rounds == 0 (complete rounds only, so every backend serves
/// the same shot count). One unmeasured warm-up round comes first. Every
/// label is checked against the per-shot reference. When traced, every
/// process_batch call is a span and the float engine's classify calls go
/// through the timing decorator.
SyncRates sync_passes(const Setup& s, std::size_t rounds, double seconds, bool trace,
                      Report& report, SpanLog* log);

/// The traced-run layer probe: per-call costs of the front-ends, heads and
/// discriminators, plus the set-up's trainer/quantizer/dataset timings.
void layer_probe(const Setup& s, Report& report);

struct RecalStats {
  std::vector<double> recal_s, train_s, save_ms, load_ms, bytes, swap_us;
};

/// Per-shard swap counters for the recal_swap label check: a ticket issued
/// after swap k on its shard returned must carry snapshot k's labels (or a
/// later snapshot's, if another swap started before it resolved).
struct SwapBook {
  static constexpr std::size_t kMaxShards = 4;
  std::atomic<std::uint32_t> started[kMaxShards] = {};
  std::atomic<std::uint32_t> done[kMaxShards] = {};
  /// Written by the recalibration driver only; read after it is joined.
  std::vector<mlqr::BackendSnapshot> versions;        ///< Id -> snapshot.
  std::vector<std::size_t> installed[kMaxShards];     ///< Swap count -> id.
};

/// Retrains on the strided 4096-shot training slice k (40 epochs, trainer
/// seed 77 + k), snapshots the
/// result through save_backend -> load_backend, and swap_shards it into
/// `engine` (through `wrap`, the tracing decorator in traced runs).
void recalibrate(const Setup& s, std::size_t k, mlqr::StreamingEngine& engine,
                 std::size_t shard, RecalStats& stats, SpanLog* log, SwapBook* book,
                 const std::function<mlqr::EngineBackend(const mlqr::EngineBackend&)>& wrap);

// ---- workloads (workloads.cpp) ----

void run_batch_offline(const Setup& s, const Options& o, Report& r, SpanLog* log);
void run_stream_qec(const Setup& s, const Options& o, Report& r, SpanLog* log);
void run_stream_fanin(const Setup& s, const Options& o, Report& r, SpanLog* log);
void run_recal_swap(const Setup& s, const Options& o, Report& r, SpanLog* log);

}  // namespace mlqr_benchmark
