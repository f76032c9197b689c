#pragma once
/// \file shard.hpp
/// Worker substrate for the simulator: a persistent pool of worker threads
/// that advance in lock-stepped phases (also the pool runSweep fans its
/// runs over), and the event types each commit group's heap carries.
///
/// Determinism contract: a worker only ever touches state owned by the
/// commit groups it runs (their event heaps, lanes, ledgers, and the
/// motion state and RNG streams of the calls they carry) or, in the
/// prepare phase, the calls it was handed. Every lane replays its events in
/// a canonical (time, kind, call) order, and cross-group work waits for the
/// serial tick barrier, so the worker count cannot change any simulation
/// outcome — only how much work runs concurrently. The one policy call
/// outside a lane is AdmissionController::precompute(), which is const and
/// state-free by contract (it computes a pure function of a call-owned
/// snapshot), so it is concurrency-safe and outcome-neutral by
/// construction, even beside another group's lane.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cellular/call.hpp"

namespace facs::sim {

/// What an event asks its group's lane to do. Values double as the
/// canonical tie-break rank for events at equal timestamps (ends release
/// capacity before decisions consume it; boundary crossings commit last).
enum class ShardEventKind : std::uint8_t {
  End = 0,       ///< An admitted call's holding time expired.
  Decision = 1,  ///< A tracked request reached its admission instant.
  Move = 2,      ///< A mobility step detected a cell crossing / coverage exit.
};

/// One event of a group's heap or mover list.
struct ShardEvent {
  ShardEventKind kind = ShardEventKind::Move;
  cellular::CallId call = 0;
  /// Ownership generation of the call when the event was scheduled. A call
  /// that changes cell (handoff) bumps its epoch; stale copies left in the
  /// old group's heap fail the epoch check and are dropped.
  std::uint32_t epoch = 0;
  /// Call-pool slot the call occupied when the event was scheduled. The
  /// pool recycles slots of finished calls, so an event is only live when
  /// the slot's occupant still equals `call` — the cross-lifetime
  /// staleness check (epoch covers staleness within one call's lifetime).
  std::uint32_t slot = 0;
};

/// Canonical commit order: time, then kind rank, then call id, then epoch —
/// the only order a group's heap keeps its events in, and the order its
/// lane pops them. Independent of the worker count and of insertion order,
/// which is what makes multi-worker runs bit-identical to serial ones. The
/// epoch makes the order total: after an in-group handoff the heap holds
/// two End entries of one call that differ only in epoch.
struct CommitEntry {
  double time_s = 0.0;
  ShardEvent event;
};

struct CommitLater {
  bool operator()(const CommitEntry& a, const CommitEntry& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    if (a.event.kind != b.event.kind) return a.event.kind > b.event.kind;
    if (a.event.call != b.event.call) return a.event.call > b.event.call;
    return a.event.epoch > b.event.epoch;
  }
};

/// A fixed-size pool of shard workers with a generation barrier: run(fn)
/// executes fn(shard) once per shard concurrently and returns when every
/// shard finished (rethrowing the first exception). Workers persist across
/// run() calls, so a run() costs two condvar hops instead of thread
/// spawns; a tick window makes at most three (prepare, the group dispatch,
/// the reservation drain). runSweep also runs on one: its shards pull
/// whole simulations off a shared counter. Shard 0 always runs on the
/// calling thread — a pool of size 1 is the serial engine (or a serial
/// sweep) with zero thread traffic.
class ShardPool {
 public:
  explicit ShardPool(int shards) : shards_{shards} {
    for (int s = 1; s < shards_; ++s) {
      workers_.emplace_back([this, s] { workerLoop(s); });
    }
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  ~ShardPool() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stopping_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  [[nodiscard]] int shards() const noexcept { return shards_; }

  /// Runs \p fn(shard) for every shard in [0, shards) and blocks until all
  /// complete. The first exception thrown by any shard is rethrown here
  /// after the barrier (never mid-phase, so shard-owned state stays sane).
  void run(const std::function<void(int)>& fn) {
    if (shards_ == 1) {
      fn(0);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      job_ = &fn;
      pending_ = shards_ - 1;
      first_error_ = nullptr;
      ++generation_;
    }
    start_cv_.notify_all();
    runOne(0, fn);
    std::unique_lock<std::mutex> lock{mutex_};
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  void runOne(int shard, const std::function<void(int)>& fn) {
    try {
      fn(shard);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (!first_error_) first_error_ = std::current_exception();
    }
  }

  void workerLoop(int shard) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock{mutex_};
        start_cv_.wait(lock,
                       [&] { return generation_ != seen; });
        seen = generation_;
        if (stopping_) return;
        job = job_;
      }
      runOne(shard, *job);
      {
        const std::lock_guard<std::mutex> lock{mutex_};
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  int shards_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace facs::sim
