// Asynchronous, sharded, fault-tolerant streaming front door for the
// readout engine.
//
// ReadoutEngine::process_batch is strictly synchronous: the caller
// assembles a batch, blocks while it classifies, and owns the fan-out
// cadence. Real deployments look different — QEC cycles and multiplexed
// feedlines deliver a steady trickle of single shots from several
// producers, throughput comes from overlapping ingest with
// classification, and the serving chain drifts and faults continuously.
// StreamingEngine provides that shape. It is the ticket ring and the
// dispatcher; the two policies it consults are pure parts of their own:
//
//   * pipeline/shard_breaker.h — ShardBreaker, the per-shard circuit
//     breaker: claim-time routing (reroute, half-open probes, fallback,
//     last resort) and completion-time health bookkeeping.
//   * pipeline/drift_monitor.h — DriftMonitor, the per-shard baseline +
//     EWMA trackers over served labels, sampled confidence and
//     reference-shot fidelity (DriftConfig, DriftReport).
//
// Neither holds a lock or reads a clock: the engine drives both under its
// mutex and passes the time in, and tests drive them directly.
//
// The engine itself:
//   * owns N EngineBackend shards (e.g. one discriminator per
//     feedline/chip). Shots route round-robin by default or by an explicit
//     channel key (key % shards), so a multi-feedline fan-in keeps each
//     feedline's calibration on its own shard.
//   * Admission: submit(frame[, key]) -> Ticket copies the frame into a
//     bounded ring (StreamingConfig::queue_capacity) and blocks while it is
//     full — backpressure, not unbounded memory. submit_reference() also
//     tags the shot with known labels for the fidelity monitor.
//     submit_for(frame, SubmitOptions) takes the same key / reference
//     options plus a timeout and rejects (nullopt) once it elapses; a zero
//     timeout rejects at once, so admission control can live in the
//     caller when blocking is not an option (a QEC control loop cannot
//     stall its cycle).
//   * A resident dispatcher thread micro-batches ingest: it launches a
//     classification batch once batch_max frames are pending or
//     deadline_us has elapsed since the oldest pending frame arrived,
//     whichever comes first. Classification runs through the same
//     EngineCore machinery (persistent thread pool + per-worker-slot
//     InferenceScratch) as process_batch, so labels are bit-identical to
//     the synchronous path for the same frames, regardless of shard count,
//     thread count, or micro-batch boundaries.
//   * Load shedding: with shot_deadline_us set, a frame already too stale
//     to matter at claim time completes immediately with ShotStatus::kShed
//     — reported, never silently dropped — and the backlog drains at shed
//     speed instead of classify speed.
//   * wait(ticket, out) blocks until that shot's labels are ready and
//     releases its ring slot; wait_result(ticket, out) is the non-throwing
//     variant that reports ShotStatus (done/failed/shed), and
//     wait_for(ticket, out, timeout) additionally bounds the block
//     (kTimedOut leaves the ticket consumable later). drain() blocks until
//     everything submitted so far has resolved. Tickets complete in
//     arbitrary shard order but every ticket is individually awaitable;
//     every submitted ticket resolves to exactly one of done / failed /
//     shed — none are ever lost.
//   * A backend that throws does not kill the engine: per-shot failure
//     capture marks exactly the throwing shots failed (wait() rethrows the
//     stored exception per ticket, drain() surfaces it while failed
//     tickets remain unconsumed), the breaker counts it, and the
//     dispatcher keeps serving.
//   * swap_shard(shard, backend) hot-swaps one shard's calibration between
//     micro-batches — the drift-recalibration path (typically fed by a
//     pipeline/snapshot.h BackendSnapshot, see pipeline/recalibration.h) —
//     without dropping or rerouting tickets, and resets that shard's
//     breaker and drift monitor.
//
// Steady state allocates nothing: ring slots reuse their frame/label
// capacity, scratch lives per worker slot, and the dispatcher loop reuses
// its per-batch ticket/error buffers.
//
// Locking contract (compile-time checked on Clang, see
// common/annotations.h): every bookkeeping member — the ring vector, the
// shard table, the breaker and drift monitor, tickets, counters, and the
// dispatcher/swap gate flags — is MLQR_GUARDED_BY(mutex_), and the
// dispatcher-side helpers carry MLQR_REQUIRES(mutex_). The one thing the
// analysis cannot express is the slot custody hand-off: a producer fills a
// kReserved slot's frame and the dispatcher reads kInFlight slots' frames
// / writes their labels and per-batch error slots outside the lock, via
// pointers snapshotted under it. That protocol is documented on Slot below
// and stays covered by TSan.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "pipeline/drift_monitor.h"
#include "pipeline/readout_engine.h"
#include "pipeline/shard_breaker.h"

namespace mlqr {

struct StreamingConfig {
  /// Ring capacity: bounds in-flight shots (submitted, not yet waited).
  /// submit() blocks while the ring is full, wait() frees slots.
  std::size_t queue_capacity = 1024;
  /// Micro-batch cap: the dispatcher launches at most this many shots per
  /// classification batch.
  std::size_t batch_max = 64;
  /// Micro-batch deadline: a pending shot never waits longer than this for
  /// the batch to fill. 0 dispatches whatever is queued immediately
  /// (lowest latency, smallest batches).
  std::size_t deadline_us = 200;
  /// Per-shot service deadline, measured from submit(). When > 0, the
  /// dispatcher sheds any frame older than this at claim time: the ticket
  /// completes immediately with ShotStatus::kShed instead of occupying
  /// classifier time it can no longer repay. Derive it from the real-time
  /// budget the labels feed — for QEC decoding that is the cycle-time
  /// analysis in bench/sec7b_qec_cycle_time (a label past the cycle
  /// deadline is as useless as a wrong one). 0 disables shedding; shots
  /// then wait as long as backpressure allows.
  std::size_t shot_deadline_us = 0;
  /// Circuit breaker: a shard that fails this many consecutive shots is
  /// quarantined and its traffic reroutes (next healthy shard, else
  /// `fallback`, else — last resort — the quarantined shard itself, so no
  /// ticket is ever stranded). 0 disables the breaker entirely: every
  /// shard always serves its own traffic and failures stay per-shot.
  std::size_t quarantine_after = 0;
  /// Half-open probe back-off: a quarantined shard receives no traffic
  /// until this much time has passed since it was quarantined (or since
  /// its last failed probe); then up to probe_shots live shots route back
  /// to it as probes. The first probe success re-admits the shard.
  std::size_t probe_backoff_us = 10000;
  /// Maximum concurrently in-flight probe shots per quarantined shard.
  std::size_t probe_shots = 1;
  /// Optional last-resort backend serving traffic whose shard is
  /// quarantined when no healthy shard remains (e.g. a conservative
  /// boxcar/LDA discriminator that never needs recalibration). Must agree
  /// on the qubit count when valid(); ignored while invalid.
  EngineBackend fallback;
  /// Per-shard drift monitors (off by default; see DriftConfig).
  DriftConfig drift;
  /// Worker budget / scratch policy for the classification fan-out, shared
  /// with ReadoutEngine semantics (threads == 0 means MLQR_THREADS).
  EngineConfig engine;
};

/// Terminal status of one ticket, as reported by wait_result()/wait_for().
enum class ShotStatus : std::uint8_t {
  kDone,      ///< Labels valid and copied out.
  kFailed,    ///< The backend threw classifying this shot; labels invalid.
  kShed,      ///< Admission control dropped the shot before classification.
  kTimedOut,  ///< wait_for() deadline passed; the ticket is still pending
              ///< and remains consumable by a later wait.
};

/// One consistent snapshot of every engine counter, taken under a single
/// lock acquisition. The breaker's and drift monitor's totals are its
/// bases (BreakerCounts: rerouted, quarantines, probes, recoveries;
/// DriftCounts: reference_shots, scored_shots).
struct StreamingStats : BreakerCounts, DriftCounts {
  std::uint64_t submitted = 0;  ///< Tickets issued.
  std::uint64_t completed = 0;  ///< Resolved tickets: done + failed + shed.
  std::uint64_t failed = 0;     ///< Tickets whose backend threw.
  std::uint64_t shed = 0;       ///< Tickets dropped by admission control.
  std::uint64_t batches = 0;    ///< Micro-batches classified (non-empty).
  std::uint64_t swaps = 0;      ///< swap_shard calls completed.
  std::size_t shards_quarantined = 0;  ///< Currently quarantined shards.
  std::size_t shards_drifted = 0;  ///< Shards currently flagging drift.
};

/// Admission options for StreamingEngine::submit_for.
struct SubmitOptions {
  /// Channel key: the shot classifies on shard key % shards. Unset routes
  /// round-robin by ticket.
  std::optional<std::uint64_t> key{};
  /// Non-empty marks a reference shot: its known ground-truth labels (size
  /// num_qubits()) for the fidelity monitor (see submit_reference).
  std::span<const int> expected{};
  /// How long to wait for a ring slot before rejecting; zero (or less)
  /// rejects at once when the ring is full.
  std::chrono::microseconds timeout{0};
};

/// Asynchronous sharded engine: submit/wait/drain over a bounded MPSC
/// ring, micro-batched dispatch through EngineCore, deadline-aware
/// shedding and per-shard circuit breakers. Producer-side calls
/// (submit/submit_reference/submit_for) are safe from multiple threads;
/// wait*/drain/stats are safe from any thread. One dispatcher thread per
/// engine.
class StreamingEngine {
 public:
  /// Monotonic per-engine shot id; ticket t is the t-th submitted frame.
  using Ticket = std::uint64_t;

  /// Heterogeneous shards: one backend per feedline/chip. There must be at
  /// least one, all valid and reporting the same qubit count (as must
  /// cfg.fallback when set).
  explicit StreamingEngine(std::vector<EngineBackend> shards,
                           StreamingConfig cfg = {});

  /// Homogeneous convenience: n_shards (>= 1) copies of one backend.
  StreamingEngine(const EngineBackend& backend, std::size_t n_shards,
                  StreamingConfig cfg = {});

  /// Drains outstanding work and stops the dispatcher. No other thread may
  /// still be calling submit/wait when destruction starts. Unconsumed
  /// tickets — including failed and shed ones — are released with their
  /// stored state; nothing leaks and nothing blocks.
  ~StreamingEngine();

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  std::size_t num_shards() const { return shards_count_; }
  std::size_t num_qubits() const { return n_qubits_; }
  const StreamingConfig& config() const { return cfg_; }

  /// Enqueues a copy of `frame` (slot buffers reuse their capacity), routed
  /// round-robin across shards. Blocks while the ring is full.
  Ticket submit(const IqTrace& frame) MLQR_EXCLUDES(mutex_);

  /// Keyed routing: the shot classifies on shard `channel_key % shards`.
  Ticket submit(const IqTrace& frame, std::uint64_t channel_key)
      MLQR_EXCLUDES(mutex_);

  /// Reference-shot admission: like keyed submit, but tags the shot with
  /// its known ground-truth labels (`expected`, size num_qubits()) so the
  /// drift monitors can track live serving fidelity. Classification and
  /// ticket semantics are unchanged — the expected labels feed monitoring
  /// only, and wait() returns the backend's labels as usual. Interleave
  /// these sparsely (e.g. calibration shots with known prepared states)
  /// among regular traffic.
  Ticket submit_reference(const IqTrace& frame, std::uint64_t channel_key,
                          std::span<const int> expected) MLQR_EXCLUDES(mutex_);

  /// Bounded admission with the options above (key, reference labels):
  /// waits up to opts.timeout for a ring slot, then rejects (nullopt). A
  /// zero timeout never blocks — the caller owns the overload policy
  /// (drop, retry, or spill). microseconds::max() waits indefinitely.
  std::optional<Ticket> submit_for(const IqTrace& frame, SubmitOptions opts)
      MLQR_EXCLUDES(mutex_);

  /// Blocks until ticket `t` resolves, copies its labels into `out` (size
  /// num_qubits()) and releases the ring slot. Each ticket can be waited
  /// exactly once; waiting a released ticket throws Error. Tickets are
  /// issued sequentially from 0, so a pipelined consumer may wait a ticket
  /// its producer has not submitted yet — the call blocks until it is.
  /// A ticket at least ring-capacity ahead of the next unissued one
  /// (t >= stats().submitted + queue_capacity) cannot resolve before this
  /// caller itself would deadlock waiting, so wait() throws Error for it
  /// instead of blocking forever (the classic never-submitted-ticket
  /// foot-gun); wait_for() is the non-throwing escape for genuinely
  /// speculative waits.
  ///
  /// If the backend threw while classifying this ticket, the slot is
  /// released (ticket consumed) and the stored exception is rethrown
  /// instead of copying labels. If admission control shed the ticket, the
  /// slot is released and Error is thrown — wait() has no status channel;
  /// consumers that expect shedding use wait_result() instead.
  void wait(Ticket t, std::span<int> out) MLQR_EXCLUDES(mutex_);

  /// Status-reporting wait: blocks until ticket `t` resolves and consumes
  /// it, returning kDone (labels copied into `out`), kFailed (backend
  /// threw; the stored exception is discarded) or kShed. Never returns
  /// kTimedOut. Throws Error only for contract violations (double wait,
  /// wrong span size, unsatisfiable ticket — same rules as wait()).
  ShotStatus wait_result(Ticket t, std::span<int> out) MLQR_EXCLUDES(mutex_);

  /// Timed wait_result: additionally returns kTimedOut once `timeout` has
  /// elapsed without the ticket resolving — the ticket is NOT consumed and
  /// stays waitable (including tickets never submitted yet, which is why
  /// this variant skips the unsatisfiable-ticket throw).
  /// microseconds::max() waits indefinitely.
  ShotStatus wait_for(Ticket t, std::span<int> out,
                      std::chrono::microseconds timeout) MLQR_EXCLUDES(mutex_);

  /// Blocks until every ticket issued so far has resolved (results stay
  /// retrievable via wait afterwards). If any completed-but-unwaited
  /// ticket failed, rethrows the earliest such shot's exception (without
  /// consuming the tickets — each failed ticket still rethrows from its
  /// own wait()); once every failed ticket has been waited, drain()
  /// returns normally again. Shed tickets never make drain() throw — they
  /// are a reported outcome, not an engine failure.
  void drain() MLQR_EXCLUDES(mutex_);

  /// Atomically replaces one shard's backend between micro-batches: blocks
  /// until the dispatcher is not classifying (the dispatcher yields the
  /// next batch to a pending swap, so this is bounded by one micro-batch
  /// even under saturation), then installs the new backend under the
  /// engine lock. Queued and future tickets routed to `shard` classify on
  /// the new backend; no ticket is dropped or rerouted. A quarantined
  /// shard is reset to healthy — fresh calibration means fresh health, so
  /// a recalibration loop re-admits a drifted shard by swapping it. The
  /// backend must be valid and agree on the qubit count (throws Error
  /// otherwise). Pass an owning backend (e.g. BackendSnapshot::backend())
  /// or keep the wrapped discriminator alive for the engine's lifetime.
  /// Safe to call concurrently with submit/wait/drain from any thread, but
  /// not while the engine is being destroyed.
  void swap_shard(std::size_t shard, EngineBackend backend)
      MLQR_EXCLUDES(mutex_);

  /// Current circuit-breaker state of one shard (kHealthy always when the
  /// breaker is disabled).
  ShardHealth shard_health(std::size_t shard) const MLQR_EXCLUDES(mutex_);

  /// Snapshot of one shard's drift monitor (all-zero / never ready while
  /// cfg.drift.enabled is false). swap_shard resets the shard's monitor —
  /// fresh calibration means fresh baselines.
  DriftReport drift(std::size_t shard) const MLQR_EXCLUDES(mutex_);

  /// Every counter in one consistent snapshot (single lock acquisition).
  StreamingStats stats() const MLQR_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  enum class SlotState : std::uint8_t {
    kFree,      ///< Reusable; ticket field holds the last consumed ticket.
    kReserved,  ///< A producer is copying its frame in (outside the lock).
    kQueued,    ///< Ready for the dispatcher.
    kInFlight,  ///< Claimed by the dispatcher; classification running.
    kDone,      ///< Outcome valid; waiting for a wait to consume.
  };

  /// How a kDone slot resolved (mirrors the consumable ShotStatus values).
  enum class SlotOutcome : std::uint8_t { kOk, kFailed, kShed };

  /// Slot.ticket value before any shot has occupied the slot (a real
  /// ticket can never reach it).
  static constexpr Ticket kNoTicket = ~Ticket{0};

  /// One ring entry. The state/ticket/shard/outcome/error fields
  /// transition only under the engine mutex; frame, labels and arrival
  /// follow the custody protocol instead (Clang TSA cannot express
  /// ownership hand-off, so these accesses are deliberately outside the
  /// capability model):
  ///   * kReserved: the submitting producer exclusively fills frame and
  ///     arrival outside the lock; its kQueued transition (under the
  ///     lock) publishes the writes to the dispatcher.
  ///   * kInFlight: the dispatcher exclusively reads frame and writes
  ///     labels outside the lock; its kDone transition publishes them to
  ///     the waiter.
  ///   * kDone -> kFree: wait() copies labels out under the lock.
  struct Slot {
    IqTrace frame;
    std::vector<int> labels;
    Ticket ticket = kNoTicket;
    /// Target shard chosen at submit time (round-robin or channel key).
    std::size_t shard = 0;
    /// Where the breaker routed the shot at claim time (it may divert
    /// quarantined traffic): a shard, or ShardBreaker::kFallback.
    ShardBreaker::Route route{0, false};
    /// Reference-shot tagging: when is_reference, `expected` holds the
    /// caller's ground-truth labels for the fidelity monitor. Both follow
    /// the kReserved custody protocol (filled by the producer outside the
    /// lock, like frame); `expected` may hold stale data whenever
    /// is_reference is false.
    bool is_reference = false;
    std::vector<int> expected;
    SlotState state = SlotState::kFree;
    SlotOutcome outcome = SlotOutcome::kOk;
    TimePoint arrival{};
    /// Set when the backend threw classifying this shot (outcome kFailed);
    /// the labels are invalid and wait() rethrows instead of copying.
    std::exception_ptr error;
  };

  /// Shared admission machinery for every submit flavour. `reference`
  /// marks a reference shot (opts.expected must then hold n_qubits_
  /// labels). deadline == nullptr blocks until a slot frees.
  std::optional<Ticket> submit_routed(const IqTrace& frame,
                                      const SubmitOptions& opts,
                                      bool reference,
                                      const TimePoint* deadline)
      MLQR_EXCLUDES(mutex_);
  /// Shared wait machinery. deadline == nullptr blocks indefinitely (and
  /// throws for provably unsatisfiable tickets); otherwise returns
  /// kTimedOut once the deadline passes. On kFailed the stored exception
  /// moves into *error when non-null (discarded otherwise).
  ShotStatus wait_impl(Ticket t, std::span<int> out, const TimePoint* deadline,
                       std::exception_ptr* error) MLQR_EXCLUDES(mutex_);
  void dispatch_loop();
  /// Dispatchable micro-batch size: the contiguous queued run from head_
  /// capped at batch_max. O(1) — queued_run_ is maintained incrementally.
  std::size_t ready_run() const MLQR_REQUIRES(mutex_);
  /// Extends queued_run_ past newly queued slots (amortized O(1)/shot).
  void extend_queued_run() MLQR_REQUIRES(mutex_);
  Slot& slot_of(Ticket t) MLQR_REQUIRES(mutex_) {
    return ring_[t % ring_.size()];
  }

  StreamingConfig cfg_;
  std::size_t n_qubits_ = 0;      ///< Immutable after construction.
  std::size_t shards_count_ = 0;  ///< Immutable after construction.
  /// Immutable after construction; shots route here when their shard is
  /// quarantined and no healthy shard remains. Invalid when unset.
  EngineBackend fallback_;
  EngineCore core_;  ///< Dispatcher-thread only (scratch pool inside).

  mutable Mutex mutex_;
  CondVar space_cv_;  ///< Producers waiting for a free slot.
  CondVar work_cv_;   ///< Dispatcher waiting for shots/stop/swap gate.
  CondVar done_cv_;   ///< wait()/drain()/swappers waiting on the dispatcher.
  /// Never resized after construction; elements follow Slot's custody
  /// protocol once handed off (pointers snapshotted under the lock).
  std::vector<Slot> ring_ MLQR_GUARDED_BY(mutex_);
  /// Stable while dispatching_ is true: swap_shard waits for the gap
  /// between micro-batches before mutating an element.
  std::vector<EngineBackend> shards_ MLQR_GUARDED_BY(mutex_);
  /// Routing and health policy (claim-time route, completion-time record).
  ShardBreaker breaker_ MLQR_GUARDED_BY(mutex_);
  /// Drift observer, fed every OK shard-served shot at completion time.
  DriftMonitor drift_ MLQR_GUARDED_BY(mutex_);
  /// The engine's own counters: completed, failed, shed, batches and
  /// swaps. stats() fills the rest (submitted, the breaker's and the
  /// drift monitor's counts, the shard tallies) from their owners.
  StreamingStats counts_ MLQR_GUARDED_BY(mutex_);
  /// Tickets of the micro-batch being classified (shed slots excluded);
  /// dispatcher-only, reused across batches, read outside the lock via a
  /// pointer snapshotted under it (same custody as ring_).
  std::vector<Ticket> batch_tickets_ MLQR_GUARDED_BY(mutex_);
  /// Per-shot failure capture for the batch in flight, index-parallel to
  /// batch_tickets_. Workers write disjoint slots outside the lock (same
  /// custody as Slot::labels); the dispatcher reads them back under it.
  std::vector<std::exception_ptr> batch_errors_ MLQR_GUARDED_BY(mutex_);
  Ticket next_ticket_ MLQR_GUARDED_BY(mutex_) = 0;  ///< Next ticket to issue.
  /// Oldest ticket not yet claimed for dispatch.
  Ticket head_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Tickets below this skip the deadline wait.
  Ticket flush_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Contiguous kQueued slots from head_.
  std::size_t queued_run_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Dispatcher-thread only (like core_), touched outside the lock while
  /// the batch's slots are in dispatcher custody: confidence-scoring
  /// scratch + label sink, the per-batch confidence samples
  /// (index-parallel to batch_tickets_, -1 = not sampled), and the
  /// per-shard sampling phase counters (deliberately not reset by
  /// swap_shard — they only control sampling cadence).
  InferenceScratch drift_scratch_;
  std::vector<int> drift_labels_;
  std::vector<float> batch_conf_;
  std::vector<std::uint64_t> score_counter_;
  /// kDone-with-error tickets not yet consumed by a wait, and the earliest
  /// such shot's exception (what drain() rethrows while any remain).
  std::size_t failed_unconsumed_ MLQR_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ MLQR_GUARDED_BY(mutex_);
  /// True while the dispatcher runs core_.classify outside the lock (it
  /// reads shards_ there, so swap_shard must not mutate them meanwhile).
  bool dispatching_ MLQR_GUARDED_BY(mutex_) = false;
  /// Swappers waiting for a batch gap; the dispatcher yields to them
  /// before claiming the next micro-batch so swaps cannot starve under
  /// sustained load.
  std::size_t swaps_pending_ MLQR_GUARDED_BY(mutex_) = 0;
  bool stop_ MLQR_GUARDED_BY(mutex_) = false;

  std::jthread dispatcher_;  ///< Last member: joins before state dies.
};

}  // namespace mlqr
