#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobility/gps.hpp"
#include "serve/call_pool.hpp"
#include "sim/reservation.hpp"
#include "sim/shard.hpp"

namespace facs::sim {

namespace {

using cellular::AdmissionContext;
using cellular::CallId;
using cellular::CallRequest;
using cellular::CellId;
using cellular::HexNetwork;
using cellular::ServiceClass;
using mobility::MotionState;

/// Where randomness streams live in the (seed, stream) split space. Every
/// call owns stream kCallStreamBase + id, so its draws (spawn, GPS noise,
/// holding time, mobility) never depend on how calls interleave — the
/// foundation of shard-count-independent results, and of the lazy window
/// materialization below: WHEN a call is built cannot change WHAT it
/// draws.
constexpr std::uint64_t kArrivalStream = 0;
constexpr std::uint64_t kCallStreamBase = 16;

/// Lifecycle of one simulated call.
enum class CallPhase : std::uint8_t {
  Pending,  ///< Tracked, waiting for its admission instant.
  Active,   ///< Admitted and holding bandwidth.
  Done,     ///< Completed, blocked, dropped, or left coverage.
};

/// Everything one call owns, living in a pool slot for exactly the call's
/// lifetime. Prepare builds it on any worker; from then on only the group
/// that owns the call's current cell writes it — that group's local phase
/// and lane, or its reservation drain at the barrier. Other groups only
/// read its group tag, to discard stale event copies.
struct CallState {
  CallRequest request;  ///< target_cell kept current across handoffs.
  MotionState state;    ///< Ground truth.
  mobility::SpeedDependentTurn model;
  Rng rng;              ///< Per-call stream; all of this call's draws.
  double end_time_s = -1.0;  ///< Valid while Active.
  CallPhase phase = CallPhase::Pending;
  /// Ownership generation: bumped when the call changes cell (handoff) so
  /// event copies left in the old group's queue are recognisably stale.
  /// Also bumped when a cross-group reservation is posted, so no event can
  /// execute while the claim is in flight to the barrier.
  std::uint32_t epoch = 0;
  /// The pool slot this call occupies — stamped at acquire so commits can
  /// schedule follow-up events carrying it (events are validated against
  /// the slot's occupant, the cross-lifetime staleness check).
  std::uint32_t slot = serve::kNoSlot;
  /// The group whose queue holds the call's live events, set only outside
  /// the group dispatch. A call that changed group leaves stale copies in
  /// the old group's queue, which may read only this tag of the call while
  /// the new group's lane writes the rest.
  int group = 0;
  /// The mover sweep's safe-step horizon: mover visits left that provably
  /// stay in the home cell, so they only count and advance the clock. Set
  /// after each home step; 0 until then, which a recycled slot gets for
  /// free because acquire() constructs a fresh CallState.
  std::uint32_t safe = 0;
  /// Steps those visits skipped, in order: replayed on the call's own
  /// stream before its next real step, and never computed if the call
  /// ends or is dropped first (nothing but a crossing reads its motion).
  std::uint32_t owed = 0;
  /// Snapshot-only policy work precomputed off the serialized commit path:
  /// set by the parallel prepare phase for the initial decision, re-run by
  /// the local phase whenever a mobility step produces the new snapshot a
  /// handoff decision will use (so it is always current when its decision
  /// commits). Invalid when the policy has no precompute — it then infers
  /// inline, with bit-identical results.
  cellular::PredictedCv predicted{};

  explicit CallState(const mobility::SpeedDependentTurnParams& turn)
      : model{turn} {}
};

// Every live call holds one pool slot. With a 2504-byte Mersenne Twister as
// its stream a slot took over 2.5 KB; the 32-byte Rng keeps it a tenth of
// that or less, the >10x per-call memory cut serve mode relies on.
static_assert(sizeof(CallState) <= 256, "CallState regrew past 256 bytes");

/// Static spawn weights for the weighted partition: each cell weighs its
/// arrival_scale (default 1) times the mean bandwidth demand of the mix its
/// spawns draw from — the expected BU/arrival load the cell feeds its lane.
/// A pure function of the config, so the initial weighted partition is
/// identical at every shard count.
[[nodiscard]] std::vector<double> spawnWeightsOf(const SimulationConfig& cfg,
                                                 const HexNetwork& network) {
  const double base_demand = cfg.scenario.mix.meanDemandBu();
  std::vector<double> w(network.cellCount(), base_demand);
  for (const CellOverride& o : cfg.cell_overrides) {
    const double scale = o.arrival_scale.value_or(1.0);
    const double demand = o.mix ? o.mix->meanDemandBu() : base_demand;
    w[static_cast<std::size_t>(o.cell)] = scale * demand;
  }
  return w;
}

/// The run's initial cell-to-lane mapping: one group unless the policy
/// is cell-local (AdmissionController::cellLocal()).
[[nodiscard]] cellular::CellGroupPartition makePartition(
    const SimulationConfig& cfg, const HexNetwork& network,
    const cellular::AdmissionController* controller) {
  const int groups =
      controller && controller->cellLocal() ? cfg.commit_groups : 1;
  if (cfg.partition == PartitionStrategy::Weighted) {
    return cellular::CellGroupPartition{network, groups,
                                        spawnWeightsOf(cfg, network)};
  }
  return cellular::CellGroupPartition{network, groups};
}

/// Arrival-instant source. The batch engine drew every instant up front;
/// serve mode cannot (an always-on run has no "all arrivals"), so the
/// source draws lazily from the same kArrivalStream in the same order —
/// the consumed RNG sequence is identical, which keeps lazy materialized
/// runs bit-identical to the historical upfront path.
class ArrivalSource {
 public:
  void init(const SimulationConfig& cfg, double serve_duration_s) {
    rng_ = makeRng(cfg.seed, kArrivalStream);
    mode_ = cfg.arrivals;
    if (mode_ == ArrivalProcess::UniformBurst) {
      times_.reserve(static_cast<std::size_t>(cfg.total_requests));
      for (int i = 0; i < cfg.total_requests; ++i) {
        times_.push_back(
            sampleUniform(rng_, 0.0, cfg.arrival_window_s));
      }
      std::sort(times_.begin(), times_.end());
      return;
    }
    base_rate_ =
        static_cast<double>(cfg.total_requests) / cfg.arrival_window_s;
    duration_s_ = serve_duration_s;
    remaining_ = serve_duration_s > 0.0
                     ? std::numeric_limits<long long>::max()
                     : static_cast<long long>(cfg.total_requests);
    drawNext();
  }

  /// Next arrival instant, if any.
  [[nodiscard]] std::optional<double> peek() const noexcept {
    if (mode_ == ArrivalProcess::UniformBurst) {
      if (index_ < times_.size()) return times_[index_];
      return std::nullopt;
    }
    if (have_pending_) return pending_;
    return std::nullopt;
  }

  void pop() {
    if (mode_ == ArrivalProcess::UniformBurst) {
      ++index_;
      return;
    }
    drawNext();
  }

  /// Global rate ramp at a barrier: scale the rate of every draw from
  /// \p at_s on, and rescale the residual of the already-drawn pending
  /// arrival memorylessly (exponential residuals are themselves
  /// exponential, so stretching the part past the barrier by the rate
  /// ratio preserves the process without losing or reordering a draw).
  void rescale(double new_scale, double at_s) {
    if (mode_ != ArrivalProcess::Poisson) return;  // validated upstream
    if (have_pending_ && pending_ > at_s) {
      pending_ = at_s + (pending_ - at_s) * (scale_ / new_scale);
      last_ = pending_;
    }
    scale_ = new_scale;
  }

 private:
  void drawNext() {
    if (remaining_ <= 0) {
      have_pending_ = false;
      return;
    }
    const double mean = 1.0 / (base_rate_ * scale_);
    const double t = last_ + sampleExponential(rng_, mean);
    if (duration_s_ > 0.0 && t >= duration_s_) {
      // Service window over: drain from here on.
      have_pending_ = false;
      remaining_ = 0;
      return;
    }
    pending_ = t;
    last_ = t;
    have_pending_ = true;
    --remaining_;
  }

  ArrivalProcess mode_ = ArrivalProcess::UniformBurst;
  Rng rng_;
  // UniformBurst: all instants drawn and sorted up front (the paper's
  // burst has no steady state to stream).
  std::vector<double> times_;
  std::size_t index_ = 0;
  // Poisson: one draw ahead.
  double base_rate_ = 0.0;
  double scale_ = 1.0;
  double pending_ = 0.0;
  double last_ = 0.0;
  bool have_pending_ = false;
  long long remaining_ = 0;
  double duration_s_ = 0.0;
};

class Engine {
 public:
  Engine(const SimulationConfig& cfg, const ControllerFactory& make_controller,
         const ServiceHooks& hooks)
      : cfg_{cfg},
        hooks_{hooks},
        network_{cfg.rings, cfg.cell_radius_km, cfg.capacity_bu,
                 capacityOverrides(cfg)},
        controller_{make_controller(network_)},
        partition_{makePartition(cfg, network_, controller_.get())},
        shard_count_{std::max(1, std::min(cfg.shards, kMaxShards))},
        pool_{shard_count_},
        queues_(static_cast<std::size_t>(partition_.groups())),
        lanes_(static_cast<std::size_t>(partition_.groups())) {
    if (!controller_) {
      throw std::invalid_argument("controller factory returned nullptr");
    }
    prepareCellOverrides();
    const std::string warning =
        controller_->auditWorkload(cellular::WorkloadEnvelope{
            cfg_.scenario.speed_max_kmh, cfg_.cell_radius_km});
    if (!warning.empty()) {
      // Once per run, on stderr so diffable stdout never moves; counted so
      // JSON consumers see the degradation too.
      std::cerr << "sim: warning: " << warning << "\n";
      ++metrics_.policy_warnings;
    }
    if (cfg_.repartition_every_s > 0.0 && partition_.groups() > 1) {
      // Observed-load epochs: per-cell committed-event counts feed the
      // epoch re-partitions. Only maintained when they can matter (a
      // single lane never re-partitions).
      cell_events_.assign(network_.cellCount(), 0);
      next_epoch_s_ = cfg_.repartition_every_s;
    }
    mutation_order_ = serve::mutationSchedule(cfg_.mutations);
    for (const serve::ScenarioMutation& m : cfg_.mutations) {
      if (m.op == serve::MutationOp::Outage ||
          m.op == serve::MutationOp::Restore) {
        down_.assign(network_.cellCount(), 0);
        break;
      }
    }
    if (cfg_.scenario.tracking_window_s > 0.0) {
      // Per-shard scratch estimators: call preparation reuses them instead
      // of constructing one per call, so the steady-state prepare path
      // never touches the allocator.
      const int fix_count = gpsFixCount(cfg_.scenario);
      scratch_est_.reserve(static_cast<std::size_t>(shard_count_));
      for (int s = 0; s < shard_count_; ++s) {
        scratch_est_.emplace_back(
            static_cast<std::size_t>(std::max(2, fix_count)));
      }
    }
  }

  Metrics execute() {
    // Phase wall clocks: commit_phase_s / total is the measured serial
    // fraction (what caps sharded speedup). Timing is observational only —
    // never an input to any simulation outcome.
    const auto stamp = [] { return std::chrono::steady_clock::now(); };
    const auto since = [](std::chrono::steady_clock::time_point a,
                          std::chrono::steady_clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };

    auto t0 = stamp();
    arrivals_.init(cfg_, hooks_.serve_duration_s);
    auto t1 = stamp();
    metrics_.prepare_phase_s = since(t0, t1);
    metrics_.commit_groups = partition_.groups();

    // Tick windows: with handoffs the barrier period is the mobility update
    // (the minimum latency at which one cell's state can matter to
    // another); without cross-cell traffic one unbounded window suffices —
    // unless a streaming consumer wants periodic snapshots, in which case
    // the run is windowed at the emission period instead. Windowing a
    // no-handoff run is outcome-neutral: with no cross-cell traffic there
    // is nothing a barrier could reorder, the canonical replay is merely
    // partitioned. Mutations additionally clamp any window so a barrier
    // lands exactly at each mutation instant.
    const double window_s =
        cfg_.enable_handoffs
            ? cfg_.mobility_update_s
            : (hooks_.on_window && hooks_.metrics_every_s > 0.0
                   ? hooks_.metrics_every_s
                   : std::numeric_limits<double>::infinity());
    const bool grouped = partition_.groups() > 1;
    next_emit_s_ = hooks_.metrics_every_s;

    while (true) {
      auto next = nextEventTime();
      // Mutations and partition epochs due before the next event: the
      // window ending at their instant is empty, so apply them right here
      // (an empty window's barrier); a mutation due at the same instant as
      // an epoch applies first. Rate ramps can move the next arrival, so
      // re-peek.
      while (next &&
             (nextMutationTime() <= *next || nextEpochTime() <= *next)) {
        if (nextMutationTime() <= nextEpochTime()) {
          applyNextMutation();
        } else {
          repartitionEpoch(nextEpochTime());
        }
        next = nextEventTime();
      }
      if (!next) break;

      double window_end = std::numeric_limits<double>::infinity();
      if (std::isfinite(window_s)) {
        double k = std::floor(*next / window_s);
        window_end = (k + 1.0) * window_s;
        // Step times are running sums of the period; with an inexact period
        // (0.7 s) a sum can land on or just past the product (k + 1) * window
        // while the quotient still floors to k. That window would hold no
        // event (the lane pops strictly before window_end) and the run would
        // spin on it forever.
        while (!(window_end > *next)) {
          k += 1.0;
          window_end = (k + 1.0) * window_s;
        }
      }
      // Clamp so a barrier lands exactly at the next mutation instant and
      // at the next partition epoch. Progress is guaranteed: the pre-step
      // above left both strictly past *next.
      window_end = std::min(window_end, nextMutationTime());
      window_end = std::min(window_end, nextEpochTime());

      t0 = stamp();
      materializeWindow(window_end);
      t1 = stamp();
      metrics_.prepare_phase_s += since(t0, t1);

      // One dispatch runs each group's local phase and then its lane, then
      // the barrier drains cross-group reservations. The dispatch's local
      // share is its slowest local phase; the rest is lane time, which at
      // one lane IS the serialized commit (the pre-grouped accounting).
      runGroups(window_end);
      const auto t2 = stamp();
      drainBarrier(window_end);
      releaseFreed();
      double local_s = 0.0;
      for (const GroupLane& lane : lanes_) {
        local_s = std::max(local_s, lane.local_s);
      }
      metrics_.local_phase_s += local_s;
      (grouped ? metrics_.commit_lane_s : metrics_.commit_phase_s) +=
          since(t1, t2) - local_s;
      metrics_.commit_phase_s += since(t2, stamp());

      // Mutations due exactly at this barrier apply now, after every
      // commit of the window (events at the mutation instant itself
      // belong to the NEXT window — the lane pops strictly before
      // window_end). The explicit cursor check matters: at an unbounded
      // window both sides are +inf.
      while (next_mutation_ < mutation_order_.size() &&
             nextMutationTime() <= window_end) {
        applyNextMutation();
      }
      // A partition epoch landing exactly on this barrier re-draws the
      // group boundaries now — after every commit, mutation and drained
      // reservation of the window (the mapping is constant within any
      // window, and no claim is ever in flight across a re-partition).
      // The explicit enablement check matters: at an unbounded window
      // both sides of the comparison are +inf.
      while (!cell_events_.empty() && nextEpochTime() <= window_end) {
        repartitionEpoch(nextEpochTime());
      }
      maybeEmit(window_end);
    }

    double last_change_s = 0.0;
    for (const GroupLane& lane : lanes_) {
      last_change_s = std::max(last_change_s, lane.last_change_s);
    }
    // Trailing events can all be stale (dead calls' queued moves), in
    // which case the last metric change precedes the last emitted barrier
    // — clamp so the final window never runs backwards.
    if (hooks_.on_window) {
      emitWindow(std::max(last_change_s, last_emit_t_), /*final_window=*/true);
    }
    return snapshotMetrics();
  }

 private:
  /// One group's pending work. End and Decision events, and the crossings
  /// the mover sweep hands over, wait on one heap in canonical commit order,
  /// which the group's lane pops directly. Mobility steps — one per active
  /// call per period, the bulk of all events — wait in a flat list instead:
  /// the mover sweep visits it once per window, which costs no heap push
  /// and pop per step.
  struct GroupQueue {
    std::priority_queue<CommitEntry, std::vector<CommitEntry>, CommitLater>
        events;
    /// Time of the last event the lane popped: the heap's clock.
    double now_s = 0.0;
    /// Pending mobility steps, at most one live per call; unordered.
    std::vector<CommitEntry> movers;
    /// Minimum time over `movers`, stale entries included (+inf if empty).
    double next_mover_s = std::numeric_limits<double>::infinity();
    /// Latest step time the mover sweep has reached: the mover list's clock.
    double movers_now_s = 0.0;
  };

  /// One commit lane: everything one cell group's replay accumulates
  /// privately — reservation claims out and in, slots its commits finished
  /// (recycled at the barrier: lanes run concurrently and must not touch
  /// the shared freelist), its group's slice of the occupancy integral and
  /// of the counters. Lanes never touch each other's state; the barrier
  /// folds them in group order.
  struct GroupLane {
    std::vector<Reservation> outgoing;  ///< Posted on foreign cells.
    std::vector<Reservation> inbox;     ///< Delivered by the barrier.
    /// Claims the drain dropped: their source-cell release touches a
    /// foreign group, so the barrier replays it serially.
    std::vector<Reservation> releases;
    /// Pool slots of calls this lane finished this window; released by the
    /// single-threaded barrier in lane order (deterministic freelist).
    std::vector<std::uint32_t> freed;
    /// Group-local occupancy integral: occupied BU over this group's
    /// cells, integrated at each committed change exactly like the
    /// pre-grouped engine integrated the network total.
    double last_change_s = 0.0;
    double busy_bu_seconds = 0.0;
    cellular::BandwidthUnits occupied_bu = 0;
    /// Counter slice (only the counters lanes touch are merged).
    Metrics partial;
    std::uint64_t events = 0;
    /// Reservations this lane resolved at barriers (admitted or dropped) —
    /// barrier work attributed to the lane for Metrics::lane_events, kept
    /// apart from `events` because reservation commits were never part of
    /// engine_events and must not become part of it.
    std::uint64_t barrier_events = 0;
    /// Home-cell mobility steps this group's local phase ran: part of
    /// engine_events, never of lane_events.
    std::uint64_t local_events = 0;
    /// Wall clock this lane spent running: its canonical replay plus its
    /// share of the parallel reservation drain (Metrics::lane_commit_s).
    /// Observational only — never an input to any outcome.
    double wall_s = 0.0;
    /// Wall clock of this group's local phase in the latest window.
    double local_s = 0.0;
  };

  [[nodiscard]] static std::vector<cellular::CellCapacityOverride>
  capacityOverrides(const SimulationConfig& cfg) {
    std::vector<cellular::CellCapacityOverride> out;
    for (const CellOverride& o : cfg.cell_overrides) {
      if (o.capacity_bu) out.emplace_back(o.cell, *o.capacity_bu);
    }
    return out;
  }

  /// Digests cell_overrides into the spawn-weight CDF and per-cell mix
  /// table. Both stay empty when no override needs them, keeping the
  /// unscaled run on the exact legacy draw sequence (bit-identical).
  void prepareCellOverrides() {
    bool weighted = false;
    bool mixed = false;
    for (const CellOverride& o : cfg_.cell_overrides) {
      if (o.arrival_scale && *o.arrival_scale != 1.0) weighted = true;
      if (o.mix) mixed = true;
    }
    if (weighted) {
      ensureSpawnWeights();
      rebuildSpawnCdf();
    }
    if (mixed) {
      cell_mix_.resize(network_.cellCount());
      for (const CellOverride& o : cfg_.cell_overrides) {
        if (o.mix) cell_mix_[static_cast<std::size_t>(o.cell)] = o.mix;
      }
    }
  }

  /// Lazily switches the spawn draw to weighted mode: unit weights seeded
  /// with whatever arrival_scale overrides the config carries. A per-cell
  /// ArrivalScale mutation on an unweighted config lands here — calls
  /// materialized after it draw their spawn cell from the CDF.
  void ensureSpawnWeights() {
    if (!spawn_weight_.empty()) return;
    spawn_weight_.assign(network_.cellCount(), 1.0);
    for (const CellOverride& o : cfg_.cell_overrides) {
      if (o.arrival_scale) {
        spawn_weight_[static_cast<std::size_t>(o.cell)] = *o.arrival_scale;
      }
    }
  }

  void rebuildSpawnCdf() {
    spawn_cdf_.resize(spawn_weight_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < spawn_weight_.size(); ++i) {
      total += spawn_weight_[i];
      spawn_cdf_[i] = total;
    }
  }

  [[nodiscard]] int laneOf(CellId cell) const {
    return partition_.groupOf(cell);
  }

  /// Schedules \p ev into \p cell's group: a mobility step onto its mover
  /// list, anything else onto its event heap. Only that group's lane or
  /// reservation drain ever calls this for its own cells, so each group has
  /// one writer per phase. A heap push is checked against the lane's clock
  /// alone: within a window the mover sweep runs ahead of the lane, so an
  /// End a commit pushes may fall before the sweep's clock.
  /// \throws std::invalid_argument if \p time_s precedes the clock of the
  ///         structure it joins.
  void schedule(double time_s, CellId cell, const ShardEvent& ev) {
    GroupQueue& q = queues_[static_cast<std::size_t>(laneOf(cell))];
    const bool move = ev.kind == ShardEventKind::Move;
    if (!(time_s >= (move ? q.movers_now_s : q.now_s))) {
      throw std::invalid_argument(
          "event scheduled in the past (time must be >= current clock)");
    }
    if (!move) {
      q.events.push(CommitEntry{time_s, ev});
      return;
    }
    q.movers.push_back(CommitEntry{time_s, ev});
    q.next_mover_s = std::min(q.next_mover_s, time_s);
  }

  /// Runs \p fn(g) for every commit group: inline at one group, else over
  /// the shard pool with group g on worker g mod shards.
  template <typename Fn>
  void forEachGroup(const Fn& fn) {
    const int groups = partition_.groups();
    if (groups == 1) {
      fn(0);
      return;
    }
    pool_.run([&](int shard) {
      for (int g = shard; g < groups; g += shard_count_) fn(g);
    });
  }

  [[nodiscard]] bool isDown(CellId cell) const noexcept {
    return !down_.empty() && down_[static_cast<std::size_t>(cell)] != 0;
  }

  /// Resolves an event to its call iff the event is still live: the slot
  /// still carries the call it was scheduled for (pool slots recycle), a
  /// Decision finds the call pending, and an End or Move finds it active
  /// under the epoch it was scheduled with. Every other copy is stale.
  [[nodiscard]] CallState* liveCall(const ShardEvent& ev) {
    if (call_pool_.occupantOf(ev.slot) != ev.call) return nullptr;
    CallState& c = call_pool_.at(ev.slot);
    const bool live = ev.kind == ShardEventKind::Decision
                          ? c.phase == CallPhase::Pending
                          : c.phase == CallPhase::Active && ev.epoch == c.epoch;
    return live ? &c : nullptr;
  }

  /// Earliest queued instant of any group — stale movers included, so a
  /// window still opens when a dead call's step comes due.
  [[nodiscard]] std::optional<double> nextEventTime() const {
    std::optional<double> best;
    for (const GroupQueue& q : queues_) {
      if (!q.events.empty() && (!best || q.events.top().time_s < *best)) {
        best = q.events.top().time_s;
      }
      if (!q.movers.empty() && (!best || q.next_mover_s < *best)) {
        best = q.next_mover_s;
      }
    }
    if (const auto t = arrivals_.peek()) {
      // An unmaterialized arrival's first event is its admission decision.
      const double d = *t + cfg_.scenario.tracking_window_s;
      if (!best || d < *best) best = d;
    }
    return best;
  }

  [[nodiscard]] double nextMutationTime() const noexcept {
    if (next_mutation_ >= mutation_order_.size()) {
      return std::numeric_limits<double>::infinity();
    }
    return cfg_.mutations[mutation_order_[next_mutation_]].at_s;
  }

  void applyNextMutation() {
    applyMutation(cfg_.mutations[mutation_order_[next_mutation_++]]);
    ++metrics_.mutations_applied;
  }

  /// Next weighted-partition epoch boundary (+inf when re-partitioning is
  /// off or the run degraded to one lane).
  [[nodiscard]] double nextEpochTime() const noexcept {
    return next_epoch_s_;
  }

  /// Re-draws the group boundaries from the load observed since the last
  /// epoch: per-cell committed-event counts (+1, so silent cells keep a
  /// non-zero weight and all-silent epochs degrade to uniform) feed the
  /// weighted partition. Deterministic — the counts are pure functions of
  /// (config, seed), never wall time. Runs only in barrier context (lanes
  /// quiesced, inboxes drained), so remapping a cell can never strand an
  /// in-flight claim; the per-group occupancy integrals are closed at
  /// \p at_s and re-based from the live ledgers under the new mapping, and
  /// the event heaps and mover lists are re-homed to the new groups.
  void repartitionEpoch(double at_s) {
    next_epoch_s_ += cfg_.repartition_every_s;
    epoch_weights_.resize(cell_events_.size());
    for (std::size_t i = 0; i < cell_events_.size(); ++i) {
      epoch_weights_[i] = static_cast<double>(cell_events_[i] + 1);
      cell_events_[i] = 0;  // each epoch rebalances on ITS observed load
    }
    cellular::CellGroupPartition next{network_, partition_.groups(),
                                      epoch_weights_};
    bool changed = false;
    for (const cellular::Cell& cell : network_.cells()) {
      if (next.groupOf(cell.id) != partition_.groupOf(cell.id)) {
        changed = true;
        break;
      }
    }
    if (!changed) return;

    // Boundary hysteresis: a re-draw that barely improves the projected
    // max/mean imbalance is flapping, not balancing — moving cells costs
    // a re-home of the queues and a re-base of the occupancy integrals,
    // for noise-level gain on a near-balanced disk. Skip unless
    // the new mapping beats the old by the adoption threshold (on THIS
    // epoch's observed weights; deterministic either way).
    if (weightImbalance(partition_) - weightImbalance(next) <
        kRepartitionHysteresis) {
      ++metrics_.repartitions_skipped;
      return;
    }

    for (GroupLane& lane : lanes_) noteOccupancy(lane, at_s);
    partition_ = std::move(next);
    for (GroupLane& lane : lanes_) lane.occupied_bu = 0;
    for (const cellular::Cell& cell : network_.cells()) {
      lanes_[static_cast<std::size_t>(laneOf(cell.id))].occupied_bu +=
          network_.station(cell.id).occupiedBu();
    }
    rehomeQueues();
    ++metrics_.repartitions;
  }

  /// Moves every live queued event and mover into its call's group under
  /// the current mapping, re-tagging the call, and drops stale copies (the
  /// lane and the mover sweep would discard them anyway). Every live call
  /// has a live event: its Decision while pending, its End while active.
  /// The queues are fresh, because schedule() refuses a push earlier than a
  /// group's clock.
  void rehomeQueues() {
    std::vector<GroupQueue> old(queues_.size());
    old.swap(queues_);
    const auto rehome = [&](double time_s, const ShardEvent& ev) {
      if (CallState* c = liveCall(ev)) {
        c->group = laneOf(c->request.target_cell);
        schedule(time_s, c->request.target_cell, ev);
      }
    };
    for (GroupQueue& q : old) {
      for (; !q.events.empty(); q.events.pop()) {
        rehome(q.events.top().time_s, q.events.top().event);
      }
      for (const CommitEntry& m : q.movers) rehome(m.time_s, m.event);
    }
  }

  /// Minimum projected imbalance gain (max/mean group weight, a pure ratio)
  /// an epoch re-draw must deliver to be adopted.
  static constexpr double kRepartitionHysteresis = 0.02;

  /// Max/mean per-group weight of this epoch's observed load
  /// (epoch_weights_) under \p partition — the projected lane imbalance
  /// the re-draw is trying to shrink.
  [[nodiscard]] double weightImbalance(
      const cellular::CellGroupPartition& partition) {
    group_weight_.assign(static_cast<std::size_t>(partition.groups()), 0.0);
    for (std::size_t i = 0; i < epoch_weights_.size(); ++i) {
      group_weight_[static_cast<std::size_t>(
          partition.groupOf(static_cast<CellId>(i)))] += epoch_weights_[i];
    }
    double total = 0.0;
    double peak = 0.0;
    for (const double w : group_weight_) {
      total += w;
      peak = std::max(peak, w);
    }
    if (total <= 0.0) return 1.0;
    return peak * static_cast<double>(group_weight_.size()) / total;
  }

  /// Integrates a group's occupied-BU time up to \p now (call before any
  /// change to that group's ledgers). Touched only by the lane that owns
  /// the group or by the single-threaded barrier drain.
  void noteOccupancy(GroupLane& lane, double now) {
    const double from = std::max(lane.last_change_s, cfg_.warmup_s);
    if (now > from) {
      lane.busy_bu_seconds +=
          static_cast<double>(lane.occupied_bu) * (now - from);
    }
    lane.last_change_s = now;
  }

  [[nodiscard]] bool counted(double now) const noexcept {
    return now >= cfg_.warmup_s;
  }

  /// Attributes one committed event to its cell for the epoch load counts.
  /// Concurrency: a cell belongs to exactly one lane (and one barrier
  /// drain), so concurrent writers always hit disjoint elements.
  void noteCellLoad(CellId cell) noexcept {
    if (!cell_events_.empty()) {
      ++cell_events_[static_cast<std::size_t>(cell)];
    }
  }

  /// Counts rationales cut at ReasonText's inline capacity, so explain-mode
  /// runs can surface the loss (the CLI warns once per run) instead of
  /// silently dropping tails. Respects the warmup gate like every other
  /// counter — only measured decisions are reported. Deterministic:
  /// decisions do not depend on it.
  static void noteRationale(Metrics& into,
                            const cellular::AdmissionDecision& decision,
                            bool count) noexcept {
    if (count && decision.rationale.truncated()) {
      ++into.truncated_rationales;
    }
  }

  /// Folds one lane's private slice into \p out — every counter a lane may
  /// touch, in group order so the double accumulation is reproducible.
  static void mergeLaneInto(Metrics& out, const GroupLane& lane) {
    const Metrics& p = lane.partial;
    out.new_requests += p.new_requests;
    out.new_accepted += p.new_accepted;
    out.new_blocked += p.new_blocked;
    out.handoff_requests += p.handoff_requests;
    out.handoff_accepted += p.handoff_accepted;
    out.handoff_dropped += p.handoff_dropped;
    out.completed += p.completed;
    for (std::size_t i = 0; i < p.class_requests.size(); ++i) {
      out.class_requests[i] += p.class_requests[i];
      out.class_accepted[i] += p.class_accepted[i];
    }
    out.truncated_rationales += p.truncated_rationales;
    out.reservations_posted += p.reservations_posted;
    out.reservations_admitted += p.reservations_admitted;
    out.reservations_dropped += p.reservations_dropped;
    out.busy_bu_seconds += lane.busy_bu_seconds;
    out.engine_events += lane.events + lane.local_events;
  }

  /// The run's full Metrics at this instant, folded exactly like the final
  /// batch fold (same order, same operations) — so the last streaming
  /// window's cumulative is bit-identical to the batch return value, and
  /// this IS the batch return value at end of run. Non-destructive: lanes
  /// keep accumulating afterwards.
  [[nodiscard]] Metrics snapshotMetrics() const {
    Metrics out = metrics_;
    out.lane_events.reserve(lanes_.size());
    out.lane_commit_s.reserve(lanes_.size());
    double last_change_s = 0.0;
    for (const GroupLane& lane : lanes_) {
      mergeLaneInto(out, lane);
      out.lane_events.push_back(lane.events + lane.barrier_events);
      out.lane_commit_s.push_back(lane.wall_s);
      last_change_s = std::max(last_change_s, lane.last_change_s);
    }
    out.observed_span_s = std::max(0.0, last_change_s - cfg_.warmup_s);
    out.total_capacity_bu = network_.totalCapacityBu();
    out.peak_concurrent_calls = call_pool_.stats().high_water;
    return out;
  }

  [[nodiscard]] EngineWindowStats windowStats() const {
    const auto ps = call_pool_.stats();
    EngineWindowStats s;
    s.pool_capacity = ps.capacity;
    s.pool_live = ps.live;
    s.pool_high_water = ps.high_water;
    s.pool_acquired = ps.acquired;
    s.pool_released = ps.released;
    s.pool_grow_events = ps.grow_events;
    s.mutations_applied = metrics_.mutations_applied;
    return s;
  }

  // ------------------------------------------------------------- emission

  void maybeEmit(double t1) {
    if (!hooks_.on_window || !std::isfinite(t1)) return;
    const double every = hooks_.metrics_every_s;
    if (every > 0.0 && t1 < next_emit_s_) return;
    emitWindow(t1, /*final_window=*/false);
    if (every > 0.0) {
      next_emit_s_ = (std::floor(t1 / every) + 1.0) * every;
    }
  }

  void emitWindow(double t1, bool final_window) {
    WindowSnapshot w;
    w.index = emit_index_++;
    w.t0 = last_emit_t_;
    w.t1 = t1;
    w.final_window = final_window;
    w.cumulative = snapshotMetrics();
    w.stats = windowStats();
    last_emit_t_ = t1;
    hooks_.on_window(w);
  }

  // ---------------------------------------------------------------- prepare

  /// Materializes every arrival whose admission decision falls inside the
  /// window: acquire a pool slot, build the call — spawn cell, GPS
  /// tracking through the observation window, the admission-time
  /// snapshot — in parallel over the shard pool (each call only touches
  /// its own slot and RNG stream), then schedule the decision events
  /// serially in call order, each into its target cell's group queue.
  /// Lazy-by-window is bit-identical to the old
  /// everything-up-front preparation: the arrival stream is consumed in
  /// the same order, and every other draw comes from the call's own
  /// stream, which does not care when it runs. Decision instants are
  /// >= every previously drained barrier, so the queue pushes are always
  /// monotone-safe.
  void materializeWindow(double window_end) {
    const double track = cfg_.scenario.tracking_window_s;
    batch_slots_.clear();
    batch_times_.clear();
    while (const auto t = arrivals_.peek()) {
      if (!(*t + track < window_end)) break;
      arrivals_.pop();
      const CallId id = ++next_call_id_;
      const std::uint32_t slot = call_pool_.acquire(id, cfg_.scenario.turn);
      call_pool_.at(slot).slot = slot;
      batch_slots_.push_back(slot);
      batch_times_.push_back(*t);
    }
    if (batch_slots_.empty()) return;

    pool_.run([&](int shard) {
      for (std::size_t i = static_cast<std::size_t>(shard);
           i < batch_slots_.size();
           i += static_cast<std::size_t>(shard_count_)) {
        prepareCall(shard, batch_slots_[i], batch_times_[i]);
      }
    });

    for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
      const std::uint32_t slot = batch_slots_[i];
      CallState& c = call_pool_.at(slot);
      c.group = laneOf(c.request.target_cell);
      schedule(batch_times_[i] + track, c.request.target_cell,
               ShardEvent{ShardEventKind::Decision, c.request.call, 0, slot});
    }
  }

  /// Where a fresh request spawns: the legacy uniform pick, or — as soon
  /// as any cell carries an arrival_scale (override or mutation) — a
  /// weighted draw over the per-cell CDF (hotspot modelling). The two
  /// paths consume the call's RNG differently, so the weighted draw only
  /// engages when a scale actually differs from 1 — unscaled configs keep
  /// their exact historical draw sequence.
  [[nodiscard]] CellId drawSpawnCell(Rng& rng) {
    if (spawn_cdf_.empty()) {
      return static_cast<CellId>(sampleIndex(
          rng, static_cast<std::uint32_t>(network_.cellCount())));
    }
    const double u = sampleUniform(rng, 0.0, spawn_cdf_.back());
    const auto it = std::upper_bound(spawn_cdf_.begin(), spawn_cdf_.end(), u);
    const std::size_t i = std::min(
        static_cast<std::size_t>(it - spawn_cdf_.begin()),
        spawn_cdf_.size() - 1);
    return static_cast<CellId>(i);
  }

  /// Builds one call in its slot: spawn draw, tracking walk, snapshot.
  /// Uses only the call's own stream plus \p shard's scratch estimator —
  /// safe to run for many calls concurrently, and allocation-free in
  /// steady state.
  void prepareCall(int shard, std::uint32_t slot, double arrival_s) {
    CallState& c = call_pool_.at(slot);
    const CallId id = call_pool_.occupantOf(slot);
    c.rng =
        makeRng(cfg_.seed, kCallStreamBase + static_cast<std::uint64_t>(id));

    const CellId spawn_cell = drawSpawnCell(c.rng);
    const bool mixed = !cell_mix_.empty() &&
                       cell_mix_[static_cast<std::size_t>(spawn_cell)];
    RequestPlan plan;
    if (mixed) {
      // Hotspot cells skew their own service mix; everything else about
      // the population stays the scenario's.
      ScenarioParams local = cfg_.scenario;
      local.mix = *cell_mix_[static_cast<std::size_t>(spawn_cell)];
      plan = drawRequest(local, network_.cell(spawn_cell).center, spawn_cell,
                         c.rng);
    } else {
      plan = drawRequest(cfg_.scenario, network_.cell(spawn_cell).center,
                         spawn_cell, c.rng);
    }
    c.state = plan.initial;

    const double window = cfg_.scenario.tracking_window_s;
    cellular::UserSnapshot snapshot;
    CellId target = plan.target_cell;
    if (window > 0.0) {
      // Collect fixes while the user moves; the estimator reconstructs
      // (S, A, D) exactly as a GPS-fed controller would.
      const mobility::GpsSampler sampler{
          cfg_.scenario.gps_error_m.value_or(0.0)};
      const double period = cfg_.scenario.gps_fix_period_s;
      const int fix_count = gpsFixCount(cfg_.scenario);
      mobility::GpsEstimator& estimator =
          scratch_est_[static_cast<std::size_t>(shard)];
      estimator.reset();
      estimator.addFix(sampler.sample(arrival_s, c.state.position_km, c.rng));
      for (int i = 1; i < fix_count; ++i) {
        c.model.step(c.state, period, c.rng);
        estimator.addFix(
            sampler.sample(arrival_s + i * period, c.state.position_km, c.rng));
      }
      // The user may have wandered into a neighbouring cell while tracked.
      target = network_.cellAt(c.state.position_km).value_or(target);
      snapshot = estimator.snapshot(network_.cell(target).center);
      snapshot.position = c.state.position_km;  // ledger-grade position
    } else {
      snapshot =
          mobility::snapshotFromTruth(c.state, network_.cell(target).center);
    }

    CallRequest req;
    req.call = id;
    req.user = id;
    req.service = plan.service;
    req.demand_bu = cellular::profileFor(plan.service).demand_bu;
    req.snapshot = snapshot;
    req.target_cell = target;
    req.is_handoff = false;
    c.request = req;

    // Snapshot-only policy work (FACS: the whole FLC1 inference) runs here,
    // in parallel, instead of inside the serialized commit phase. The
    // snapshot cannot change between now and the decision instant (pending
    // calls do not move), so the value stays coherent until consumed.
    // Called from shard workers: the controller contract requires
    // precompute() to be thread-safe and state-free.
    c.predicted = controller_->precompute(req.snapshot);
  }

  // ------------------------------------------------------------ group phase

  /// The window's one group dispatch. Each group's task runs its local
  /// phase — one sweep of its mover list (mobility steps are call-local:
  /// per-call RNG and state), which pushes detected crossings onto the
  /// group's heap — then its lane. No barrier is needed between the halves:
  /// a local phase writes only its own calls (of a foreign call it reads the
  /// group tag alone), a lane touches only its own calls, ledgers and heap
  /// (a policy that reads other cells runs on one group), and precompute()
  /// is const and state-free. The order the sweep visits its movers in
  /// cannot matter: the lane pops the heap in canonical order.
  void runGroups(double window_end) {
    forEachGroup([&](int g) {
      GroupQueue& q = queues_[static_cast<std::size_t>(g)];
      GroupLane& lane = lanes_[static_cast<std::size_t>(g)];
      const auto t0 = std::chrono::steady_clock::now();
      sweepMovers(g, q, lane, window_end);
      lane.local_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      runLane(g, window_end);
    });
  }

  /// liveCall() for an event in group \p g's heap or mover list. A copy
  /// whose call now belongs to another group is stale, and is dropped on
  /// the group tag alone: that group's lane may be writing the call's other
  /// fields.
  [[nodiscard]] CallState* ownedCall(const ShardEvent& ev, int g) {
    if (call_pool_.occupantOf(ev.slot) != ev.call ||
        call_pool_.at(ev.slot).group != g) {
      return nullptr;
    }
    CallState* c = liveCall(ev);
    if (c && laneOf(c->request.target_cell) != g) {
      // A call tagged with this group but living outside it means a
      // re-home was missed: this group's lane must never touch that call.
      throw std::logic_error("live event queued outside its call's group");
    }
    return c;
  }

  /// Runs every mover step due before \p window_end, compacting the list
  /// in place.
  void sweepMovers(int g, GroupQueue& q, GroupLane& lane, double window_end) {
    double next = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (CommitEntry m : q.movers) {
      if (runDueSteps(g, q, lane, m, window_end)) {
        q.movers[kept++] = m;
        next = std::min(next, m.time_s);
      }
    }
    q.movers.resize(kept);
    q.next_mover_s = next;
  }

  /// Runs mover \p m's steps due before \p window_end. A step that stays
  /// home advances the entry one period, and the next step runs too if it
  /// still falls inside the window. Returns false once the entry leaves the
  /// list: stale when due, or pushed onto the group's heap by a crossing.
  ///
  /// Steps inside the call's safe-step horizon are owed, not run: a home
  /// step at distance d from the cell centre leaves room for
  /// HexNetwork::movesInside() more steps of the model's constant length
  /// inside the inscribed circle, so cellAt() must answer home for each.
  /// Deferring them keeps every bit: the call draws only from its own
  /// stream, in the same order; until it crosses, nothing reads its motion
  /// state or stream (policies read the request's snapshot; ends, outages
  /// and re-homes read only the target cell); its holding time was drawn
  /// before the first step; and each visit still counts one local event in
  /// the same window.
  bool runDueSteps(int g, GroupQueue& q, GroupLane& lane, CommitEntry& m,
                   double window_end) {
    const double period = cfg_.mobility_update_s;
    while (m.time_s < window_end) {
      q.movers_now_s = std::max(q.movers_now_s, m.time_s);
      CallState* cp = ownedCall(m.event, g);
      if (!cp) return false;
      CallState& c = *cp;
      if (c.safe > 0) {
        --c.safe;
        ++c.owed;
        ++lane.local_events;
        m.time_s += period;
        continue;
      }
      for (; c.owed > 0; --c.owed) c.model.step(c.state, period, c.rng);
      c.model.step(c.state, period, c.rng);
      const auto now_cell = network_.cellAt(c.state.position_km);
      if (now_cell && *now_cell == c.request.target_cell) {
        // Still home: the step stays entirely group-local. Only these
        // count here — crossings count when their commit executes.
        ++lane.local_events;
        c.safe = network_.movesInside(
            *now_cell, c.state.position_km,
            mobility::SpeedDependentTurn::stepKm(c.state, period));
        m.time_s += period;
        continue;
      }
      // Crossed a border or left coverage: cross-cell, so the lane
      // decides (handoff admission / departure). The step changed the
      // snapshot the handoff decision will see, so the prepared CV is
      // stale — re-run the prediction here, in parallel, against the same
      // snapshot commitCrossing() will reconstruct (a pure function of the
      // unchanged motion state and cell centre, so the bits match).
      if (now_cell) {
        c.predicted = controller_->precompute(mobility::snapshotFromTruth(
            c.state, network_.cell(*now_cell).center));
      }
      q.events.push(m);
      return false;
    }
    return true;
  }

  // ----------------------------------------------------------- commit phase

  /// Pops group \p g's heap up to \p window_end — follow-up events its
  /// commits push inside the window included — in canonical (time, kind,
  /// call) order, mutating only this group's ledgers and the lane's private
  /// slice. All of a call's events of one window sit in one group (pending
  /// calls do not move, and active calls change cells only when that same
  /// lane — or the barrier — commits the crossing), so lanes touch disjoint
  /// call and ledger state.
  void runLane(int g, double window_end) {
    GroupQueue& q = queues_[static_cast<std::size_t>(g)];
    GroupLane& lane = lanes_[static_cast<std::size_t>(g)];
    const auto lane_t0 = std::chrono::steady_clock::now();
    while (!q.events.empty() && q.events.top().time_s < window_end) {
      const CommitEntry e = q.events.top();
      q.events.pop();
      const double now = e.time_s;
      q.now_s = now;
      CallState* cp = ownedCall(e.event, g);
      // Only events that execute count toward engine_events; stale entries
      // superseded by an in-window handoff or drop are bookkeeping noise.
      if (!cp) continue;
      CallState& c = *cp;
      ++lane.events;
      noteCellLoad(c.request.target_cell);
      switch (e.event.kind) {
        case ShardEventKind::Decision:
          commitDecision(lane, c, now);
          break;
        case ShardEventKind::End:
          commitEnd(lane, c, now);
          break;
        case ShardEventKind::Move:
          commitCrossing(g, lane, c, now);
          break;
      }
    }
    lane.wall_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - lane_t0)
                       .count();
  }

  /// First mobility step after \p now: the next multiple of the update
  /// period strictly ahead of it (always >= window_end, i.e. next window).
  void scheduleFirstMove(const CallState& c, CallId id, double now) {
    if (!cfg_.enable_handoffs) return;
    const double period = cfg_.mobility_update_s;
    const double next = (std::floor(now / period) + 1.0) * period;
    schedule(next, c.request.target_cell,
             ShardEvent{ShardEventKind::Move, id, c.epoch, c.slot});
  }

  /// Marks a call finished in lane or drain context: the slot joins the
  /// lane's freed list and recycles at the barrier.
  void finishInLane(GroupLane& lane, CallState& c) {
    c.phase = CallPhase::Done;
    lane.freed.push_back(c.slot);
  }

  void commitDecision(GroupLane& lane, CallState& c, double now) {
    const CallRequest& req = c.request;
    cellular::BaseStation& station = network_.station(req.target_cell);
    // The prepare phase already ran the snapshot-only stage; decide() now
    // executes only the ledger-dependent stage (FACS: FLC2).
    const AdmissionContext ctx{station, now, cfg_.explain, c.predicted};

    const bool count = counted(now);
    if (count) {
      ++lane.partial.new_requests;
      ++lane.partial.class_requests[static_cast<std::size_t>(req.service)];
    }

    // A cell under an outage mutation admits nothing; the policy is not
    // even consulted (there is no station to decide for).
    bool admit = false;
    if (!isDown(req.target_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      // Defence in depth: an accept that does not fit would corrupt the
      // ledger, so the simulator re-checks the invariant the policy
      // promised.
      admit = decision.accept && station.canFit(req.demand_bu);
    }

    if (!admit) {
      if (count) ++lane.partial.new_blocked;
      controller_->onRejected(req, ctx);
      finishInLane(lane, c);
      return;
    }

    noteOccupancy(lane, now);
    station.allocate(req.call, req.demand_bu,
                     cellular::profileFor(req.service).real_time);
    lane.occupied_bu += req.demand_bu;
    if (count) {
      ++lane.partial.new_accepted;
      ++lane.partial.class_accepted[static_cast<std::size_t>(req.service)];
    }
    controller_->onAdmitted(req, ctx);

    c.phase = CallPhase::Active;
    c.end_time_s = now + sampleExponential(
                             c.rng,
                             cellular::profileFor(req.service).mean_holding_s);
    schedule(c.end_time_s, req.target_cell,
             ShardEvent{ShardEventKind::End, req.call, c.epoch, c.slot});
    scheduleFirstMove(c, req.call, now);
  }

  void commitEnd(GroupLane& lane, CallState& c, double now) {
    cellular::BaseStation& station = network_.station(c.request.target_cell);
    noteOccupancy(lane, now);
    station.release(c.request.call);
    lane.occupied_bu -= c.request.demand_bu;
    if (counted(now)) ++lane.partial.completed;
    controller_->onReleased(c.request, AdmissionContext{station, now});
    finishInLane(lane, c);
  }

  /// A mobility step detected the call outside its cell: hand it over
  /// in-lane when the new cell shares this group, account a coverage
  /// departure, or — across a group border — release the source half and
  /// post a Reservation for the barrier to validate (the inter-BS
  /// message).
  void commitCrossing(int g, GroupLane& lane, CallState& c, double now) {
    const auto new_cell = network_.cellAt(c.state.position_km);
    if (!new_cell) {
      // Left coverage entirely: account as a completed departure.
      commitEnd(lane, c, now);
      return;
    }

    if (laneOf(*new_cell) != g) {
      // Cross-group handoff. The source half — the call leaving this
      // group's cell — commits here, at the crossing instant; the claim on
      // the target cell travels to its group's inbox. Bumping the epoch
      // supersedes every queued event copy while the claim is in flight,
      // so nothing can touch the call before the barrier resolves it.
      cellular::BaseStation& old_station =
          network_.station(c.request.target_cell);
      noteOccupancy(lane, now);
      old_station.release(c.request.call);
      lane.occupied_bu -= c.request.demand_bu;
      ++c.epoch;
      lane.outgoing.push_back(Reservation{now, c.request.call,
                                          c.request.target_cell, *new_cell,
                                          c.request.demand_bu, counted(now),
                                          c.slot});
      return;
    }

    cellular::BaseStation& old_station =
        network_.station(c.request.target_cell);
    cellular::BaseStation& new_station = network_.station(*new_cell);

    CallRequest req = c.request;
    req.is_handoff = true;
    req.target_cell = *new_cell;
    req.snapshot =
        mobility::snapshotFromTruth(c.state, network_.cell(*new_cell).center);

    const bool count = counted(now);
    if (count) ++lane.partial.handoff_requests;
    // c.predicted was refreshed by the local phase when this crossing was
    // detected, from the identical snapshot req now carries.
    const AdmissionContext ctx{new_station, now, cfg_.explain, c.predicted};
    bool admit = false;
    if (!isDown(*new_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      admit = decision.accept && new_station.canFit(req.demand_bu);
    }

    noteOccupancy(lane, now);
    old_station.release(req.call);
    lane.occupied_bu -= req.demand_bu;
    if (admit) {
      new_station.allocate(req.call, req.demand_bu,
                           cellular::profileFor(req.service).real_time);
      lane.occupied_bu += req.demand_bu;
      if (count) ++lane.partial.handoff_accepted;
      controller_->onAdmitted(req, ctx);  // refreshes SCC kinematics too
      c.request = req;
      // The call changed owner: supersede every event copy still queued
      // under the old epoch, then reschedule its departure and next step
      // with the new one.
      ++c.epoch;
      schedule(c.end_time_s, *new_cell,
               ShardEvent{ShardEventKind::End, req.call, c.epoch, c.slot});
      schedule(now + cfg_.mobility_update_s, *new_cell,
               ShardEvent{ShardEventKind::Move, req.call, c.epoch, c.slot});
    } else {
      if (count) ++lane.partial.handoff_dropped;
      controller_->onRejected(req, ctx);
      controller_->onReleased(c.request, AdmissionContext{old_station, now});
      finishInLane(lane, c);  // pending End/Move copies die when due
    }
  }

  // --------------------------------------------------------------- barrier

  /// The tick-window barrier, after every lane has quiesced: cross-group
  /// reservations are delivered to their target groups' inboxes and
  /// drained PER TARGET GROUP, concurrently — each drain validates its
  /// claims in canonical (time, call) order against ledgers, call state and
  /// the event heap only its own group owns. The one cross-group touch
  /// (the drop path's source-cell controller release) is deferred into
  /// per-lane runs that the barrier sorts once and replays serially; pool
  /// recycling rides the lanes' freed lists.
  void drainBarrier(double window_end) {
    bool any = false;
    for (GroupLane& lane : lanes_) {
      for (const Reservation& r : lane.outgoing) {
        lanes_[static_cast<std::size_t>(laneOf(r.to_cell))].inbox.push_back(r);
        any = true;
      }
      lane.outgoing.clear();
    }
    if (any) drainInboxes(window_end);
  }

  /// Fans the reservation drain out over the groups (ledger-disjoint by
  /// construction), each in canonical order whatever order its claims
  /// arrived in, then replays the deferred drop-path releases.
  void drainInboxes(double window_end) {
    forEachGroup([&](int g) {
      GroupLane& lane = lanes_[static_cast<std::size_t>(g)];
      if (lane.inbox.empty()) return;
      const auto t0 = std::chrono::steady_clock::now();
      std::sort(lane.inbox.begin(), lane.inbox.end(), ReservationEarlier{});
      for (const Reservation& r : lane.inbox) {
        commitReservation(lane, r, window_end);
      }
      lane.inbox.clear();
      lane.wall_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    });
    runDeferredReleases();
  }

  /// Concatenates the lanes' dropped claims in group order, sorts them once
  /// by the total (time, call) key — a call crosses at most one border per
  /// window — and releases each source half serially: the only stage
  /// allowed to touch foreign groups' controller state. A dropped call
  /// still holds its pre-handoff request; releaseFreed() recycles it later.
  void runDeferredReleases() {
    std::vector<Reservation>& all = lanes_[0].releases;
    for (std::size_t g = 1; g < lanes_.size(); ++g) {
      std::vector<Reservation>& run = lanes_[g].releases;
      all.insert(all.end(), run.begin(), run.end());
      run.clear();
    }
    std::sort(all.begin(), all.end(), ReservationEarlier{});
    for (const Reservation& r : all) {
      controller_->onReleased(
          call_pool_.at(r.slot).request,
          AdmissionContext{network_.station(r.from_cell), r.time_s});
    }
    all.clear();
  }

  /// Recycles the slots of every call the lanes finished this window.
  /// Single-threaded and in lane order, so the freelist (and therefore
  /// slot reuse) is deterministic at any shard count.
  void releaseFreed() {
    for (GroupLane& lane : lanes_) {
      for (const std::uint32_t slot : lane.freed) {
        call_pool_.release(slot);
      }
      lane.freed.clear();
    }
  }

  /// Resolves one inter-group bandwidth claim at the barrier. The grant is
  /// decided by the policy plus the hard ledger, exactly like an in-lane
  /// handoff — but against the target group's end-of-window state, which
  /// is the documented visibility difference of commit_groups > 1: the
  /// target lane's own events of this window committed first, and the
  /// granted bandwidth occupies the new cell from the barrier instant.
  ///
  /// Runs concurrently, one drain per target group: everything it touches
  /// is owned by \p lane's group (the target station and ledger slice, the
  /// call — a call crosses at most one border per window, so exactly one
  /// drain sees it, and its epoch bump keeps every other event copy
  /// stale), its group's event heap, or a lane-private buffer (counters
  /// in lane.partial, slot recycling in lane.freed, the drop path's
  /// foreign-station release in lane.releases).
  void commitReservation(GroupLane& lane, const Reservation& r,
                         double window_end) {
    CallState& c = call_pool_.at(r.slot);
    cellular::BaseStation& new_station = network_.station(r.to_cell);

    // The reservation is the authoritative inter-BS message: the handoff
    // request presented to the policy is rebuilt from its fields (the
    // demand claimed, the border crossed) plus the call's motion truth.
    CallRequest req = c.request;
    req.is_handoff = true;
    req.target_cell = r.to_cell;
    req.demand_bu = r.demand_bu;
    req.snapshot =
        mobility::snapshotFromTruth(c.state, network_.cell(r.to_cell).center);

    const bool count = r.counted;
    ++lane.barrier_events;
    noteCellLoad(r.to_cell);
    if (count) {
      ++lane.partial.handoff_requests;
      ++lane.partial.reservations_posted;
    }
    // c.predicted was refreshed when the crossing was detected, from this
    // same snapshot.
    const AdmissionContext ctx{new_station, r.time_s, cfg_.explain,
                               c.predicted};
    bool admit = false;
    if (!isDown(r.to_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      admit = decision.accept && new_station.canFit(req.demand_bu);
    }

    if (!admit) {
      if (count) {
        ++lane.partial.handoff_dropped;
        ++lane.partial.reservations_dropped;
      }
      controller_->onRejected(req, ctx);
      // The source-cell release is the drop path's one foreign-group
      // touch: deferred for the barrier to replay serially.
      lane.releases.push_back(r);
      finishInLane(lane, c);
      return;
    }

    noteOccupancy(lane, window_end);
    new_station.allocate(req.call, req.demand_bu,
                         cellular::profileFor(req.service).real_time);
    lane.occupied_bu += req.demand_bu;
    if (count) {
      ++lane.partial.handoff_accepted;
      ++lane.partial.reservations_admitted;
    }
    controller_->onAdmitted(req, ctx);
    c.request = req;  // epoch was already bumped when the claim was posted
    c.group = laneOf(r.to_cell);

    if (c.end_time_s < window_end) {
      // The departure instant passed while the claim was in flight: settle
      // it here (the call held no bandwidth in the new cell for measurable
      // time — the claim existed only to decide dropped vs handed over).
      noteOccupancy(lane, window_end);
      new_station.release(req.call);
      lane.occupied_bu -= req.demand_bu;
      if (counted(c.end_time_s)) ++lane.partial.completed;
      controller_->onReleased(c.request,
                              AdmissionContext{new_station, window_end});
      finishInLane(lane, c);
      return;
    }
    schedule(c.end_time_s, r.to_cell,
             ShardEvent{ShardEventKind::End, r.call, c.epoch, r.slot});
    schedule(r.time_s + cfg_.mobility_update_s, r.to_cell,
             ShardEvent{ShardEventKind::Move, r.call, c.epoch, r.slot});
  }

  // ------------------------------------------------------------- mutations

  /// Applies one scheduled workload change. Runs between windows (the
  /// barrier context: every lane quiesced, no claim in flight), so it may
  /// touch any group's ledger and the pool directly.
  void applyMutation(const serve::ScenarioMutation& m) {
    switch (m.op) {
      case serve::MutationOp::ArrivalScale:
        if (m.cell) {
          ensureSpawnWeights();
          spawn_weight_[static_cast<std::size_t>(*m.cell)] = m.scale;
          rebuildSpawnCdf();
        } else {
          arrivals_.rescale(m.scale, m.at_s);
        }
        break;
      case serve::MutationOp::Outage:
        down_[static_cast<std::size_t>(*m.cell)] = 1;
        forceDropCell(*m.cell, m.at_s);
        break;
      case serve::MutationOp::Restore:
        down_[static_cast<std::size_t>(*m.cell)] = 0;
        break;
      case serve::MutationOp::Mix:
        if (m.cell) {
          if (cell_mix_.empty()) cell_mix_.resize(network_.cellCount());
          cell_mix_[static_cast<std::size_t>(*m.cell)] = *m.mix;
        } else {
          cfg_.scenario.mix = *m.mix;
        }
        break;
    }
  }

  /// Cell outage: every call the cell carries is force-dropped at the
  /// outage instant, in call-id order (deterministic at any shard count —
  /// pool slot order is a freelist artifact, call ids are not). Pending
  /// calls targeting the cell stay pending; their decisions will be denied
  /// while the cell is down.
  void forceDropCell(CellId cell, double at_s) {
    victims_.clear();
    call_pool_.forEachLive(
        [&](std::uint32_t slot, CallId /*id*/, CallState& c) {
          if (c.phase == CallPhase::Active && c.request.target_cell == cell) {
            victims_.push_back(slot);
          }
        });
    if (victims_.empty()) return;
    std::sort(victims_.begin(), victims_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return call_pool_.occupantOf(a) < call_pool_.occupantOf(b);
              });
    GroupLane& lane = lanes_[static_cast<std::size_t>(laneOf(cell))];
    cellular::BaseStation& station = network_.station(cell);
    for (const std::uint32_t slot : victims_) {
      CallState& c = call_pool_.at(slot);
      noteOccupancy(lane, at_s);
      station.release(c.request.call);
      lane.occupied_bu -= c.request.demand_bu;
      if (counted(at_s)) ++metrics_.outage_forced_drops;
      controller_->onReleased(c.request, AdmissionContext{station, at_s});
      c.phase = CallPhase::Done;
      call_pool_.release(slot);
    }
  }

  SimulationConfig cfg_;
  ServiceHooks hooks_;
  HexNetwork network_;
  std::unique_ptr<cellular::AdmissionController> controller_;
  cellular::CellGroupPartition partition_;
  int shard_count_;
  ShardPool pool_;

  std::vector<GroupQueue> queues_;  ///< One per group.
  std::vector<GroupLane> lanes_;    ///< One per group.

  /// Call storage proportional to CONCURRENT calls: slots recycle the
  /// moment a call finishes (the batch engine kept every call for the
  /// whole run — unbounded growth serve mode cannot live with).
  serve::CallPool<CallState> call_pool_;
  ArrivalSource arrivals_;
  CallId next_call_id_ = 0;

  /// Window-materialization scratch (reused every window — no steady-state
  /// allocation once grown to the largest batch).
  std::vector<std::uint32_t> batch_slots_;
  std::vector<double> batch_times_;
  std::vector<std::uint32_t> victims_;
  /// Per-shard scratch GPS estimators (empty when tracking is off).
  std::vector<mobility::GpsEstimator> scratch_est_;

  /// Cells currently under an outage mutation (empty when the run has no
  /// outage/restore mutations at all — the common case pays nothing).
  std::vector<std::uint8_t> down_;

  /// Spawn-cell weighting (empty = legacy uniform draw) and per-cell mix
  /// overrides (empty = scenario mix everywhere), digested from
  /// cell_overrides and updated by mutations.
  std::vector<double> spawn_weight_;
  std::vector<double> spawn_cdf_;
  std::vector<std::optional<cellular::TrafficMix>> cell_mix_;

  /// Mutation application order (indices into cfg_.mutations) and cursor.
  std::vector<std::size_t> mutation_order_;
  std::size_t next_mutation_ = 0;

  /// Epoch re-partitioning state (weighted partition only; empty/+inf when
  /// off): per-cell committed-event counts since the last epoch — the
  /// deterministic load proxy — the next epoch boundary, and a reusable
  /// weight buffer.
  std::vector<std::uint64_t> cell_events_;
  double next_epoch_s_ = std::numeric_limits<double>::infinity();
  std::vector<double> epoch_weights_;
  std::vector<double> group_weight_;  ///< weightImbalance() scratch.

  // Streaming emission state.
  double next_emit_s_ = 0.0;
  double last_emit_t_ = 0.0;
  std::uint64_t emit_index_ = 0;

  Metrics metrics_;
};

}  // namespace

void validateConfig(const SimulationConfig& cfg) {
  // NaN and infinity slip past every ordered comparison below.
  const ScenarioParams& s = cfg.scenario;
  const std::pair<double, const char*> numbers[] = {
      {cfg.cell_radius_km, "cell radius"},
      {cfg.arrival_window_s, "arrival window"},
      {cfg.warmup_s, "warmup"},
      {cfg.mobility_update_s, "mobility update period"},
      {cfg.repartition_every_s, "repartition period"},
      {s.speed_min_kmh, "speed"},      {s.speed_max_kmh, "speed"},
      {s.angle_mean_deg, "angle"},     {s.angle_sigma_deg, "angle sigma"},
      {s.distance_min_km, "distance"}, {s.distance_max_km, "distance"},
      {s.tracking_window_s, "tracking window"},
      {s.gps_fix_period_s, "GPS fix period"},
      {s.gps_error_m.value_or(0.0), "GPS error"},
      {s.turn.sigma_max_deg, "turn sigma"}, {s.turn.v_ref_kmh, "turn v_ref"},
  };
  for (const auto& [value, what] : numbers) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument(std::string{what} + " must be finite");
    }
  }
  // Geometry first (mirrors HexNetwork's own checks, so a bad scenario —
  // in code or from a file — fails at validate time with config
  // vocabulary, not mid-construction).
  if (cfg.rings < 0 || cfg.rings > kMaxRings) {
    throw std::invalid_argument("rings must be in [0, " +
                                std::to_string(kMaxRings) + "]");
  }
  if (!(cfg.cell_radius_km > 0.0)) {
    throw std::invalid_argument("cell radius must be positive");
  }
  if (cfg.capacity_bu <= 0) {
    throw std::invalid_argument("capacity must be positive");
  }
  if (cfg.total_requests < 0) {
    throw std::invalid_argument("total_requests must be >= 0");
  }
  if (!(cfg.arrival_window_s > 0.0)) {
    throw std::invalid_argument("arrival window must be positive");
  }
  if (cfg.warmup_s < 0.0) {
    throw std::invalid_argument("warmup must be >= 0");
  }
  if (cfg.enable_handoffs && !(cfg.mobility_update_s > 0.0)) {
    throw std::invalid_argument("mobility update period must be positive");
  }
  if (cfg.shards < 1 || cfg.shards > kMaxShards) {
    throw std::invalid_argument("shards must be in [1, " +
                                std::to_string(kMaxShards) + "]");
  }
  if (cfg.commit_groups < 1 || cfg.commit_groups > kMaxShards) {
    throw std::invalid_argument("commit groups must be in [1, " +
                                std::to_string(kMaxShards) + "]");
  }
  if (cfg.repartition_every_s < 0.0) {
    throw std::invalid_argument("repartition period must be >= 0");
  }
  if (cfg.repartition_every_s > 0.0 &&
      cfg.partition != PartitionStrategy::Weighted) {
    throw std::invalid_argument(
        "repartition_every_s requires the weighted partition (contiguous "
        "boundaries never move)");
  }
  {
    // Mirror HexNetwork's override checks so a bad scenario fails at
    // validate time with config vocabulary, not mid-construction.
    const auto cells =
        static_cast<std::size_t>(cellular::hexDiskCellCount(cfg.rings));
    std::vector<bool> seen(cells, false);
    for (const CellOverride& o : cfg.cell_overrides) {
      if (static_cast<std::size_t>(o.cell) >= cells) {
        throw std::invalid_argument(
            "cell override for cell " + std::to_string(o.cell) +
            " outside the " + std::to_string(cells) + "-cell disk");
      }
      if (seen[o.cell]) {
        throw std::invalid_argument("duplicate cell override for cell " +
                                    std::to_string(o.cell));
      }
      if (o.emptyOverride()) {
        throw std::invalid_argument("cell override for cell " +
                                    std::to_string(o.cell) +
                                    " sets no field");
      }
      if (o.capacity_bu && *o.capacity_bu <= 0) {
        throw std::invalid_argument("cell capacity override for cell " +
                                    std::to_string(o.cell) +
                                    " must be positive");
      }
      if (o.arrival_scale &&
          (!std::isfinite(*o.arrival_scale) || !(*o.arrival_scale > 0.0))) {
        throw std::invalid_argument("arrival scale for cell " +
                                    std::to_string(o.cell) +
                                    " must be positive and finite");
      }
      seen[o.cell] = true;
    }
    for (std::size_t i = 0; i < cfg.mutations.size(); ++i) {
      serve::validateMutation(cfg.mutations[i], i, cells,
                              cfg.arrivals == ArrivalProcess::Poisson);
    }
  }
  if (s.tracking_window_s < 0.0) {
    throw std::invalid_argument("tracking window must be >= 0");
  }
  if (s.tracking_window_s > 0.0 &&
      (!(s.gps_fix_period_s > 0.0) ||
       s.gps_fix_period_s > s.tracking_window_s)) {
    throw std::invalid_argument(
        "GPS fix period must be in (0, tracking_window]");
  }
  if (s.tracking_window_s > 0.0) (void)gpsFixCount(s);
}

Metrics runSimulation(const SimulationConfig& config,
                      const ControllerFactory& make_controller) {
  return runSimulation(config, make_controller, ServiceHooks{});
}

Metrics runSimulation(const SimulationConfig& config,
                      const ControllerFactory& make_controller,
                      const ServiceHooks& hooks) {
  validateConfig(config);
  if (!(hooks.metrics_every_s >= 0.0) ||
      !std::isfinite(hooks.metrics_every_s)) {
    throw std::invalid_argument("metrics period must be finite and >= 0");
  }
  if (!(hooks.serve_duration_s >= 0.0) ||
      !std::isfinite(hooks.serve_duration_s)) {
    throw std::invalid_argument("serve duration must be finite and >= 0");
  }
  if (hooks.serve_duration_s > 0.0) {
    if (config.arrivals != ArrivalProcess::Poisson) {
      throw std::invalid_argument(
          "serve duration requires Poisson arrivals (a uniform burst has "
          "no steady state to extend)");
    }
    if (config.total_requests <= 0) {
      throw std::invalid_argument(
          "serve duration requires total_requests > 0 (the arrival-rate "
          "numerator)");
    }
  }
  Engine engine{config, make_controller, hooks};
  return engine.execute();
}

}  // namespace facs::sim
