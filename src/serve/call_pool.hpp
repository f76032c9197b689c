#pragma once
/// \file call_pool.hpp
/// Slab/freelist pool for per-call state. The batch engine used to keep
/// one CallState per call for the whole run — cumulative-call memory, the
/// bug serve mode cannot live with (an always-on engine would grow without
/// bound). The pool makes call storage proportional to CONCURRENT calls:
/// a slot is acquired when a call materializes, released the moment the
/// call completes/blocks/drops, and recycled for a later call. Slots hold
/// the value in-place (std::optional), so acquire/release construct and
/// destroy without touching the allocator once the slab has grown to the
/// workload's high-water mark — after warmup, growEvents() stays flat,
/// which is exactly what the serve-mode CI smoke asserts.
///
/// Lazy slots: a slab is raw storage. A slot is constructed the first time
/// it is handed out (a bump index over the slabs); the freelist holds only
/// released slots, and acquire() takes from it first (LIFO) before bumping.
/// That is the order an eagerly threaded slab hands out, so slot indices
/// are unchanged, but a run with a handful of calls no longer zeroes a
/// whole slab (~270 KB of CallStates) before it simulates anything.
///
/// Staleness: events in flight name (slot, call id). A recycled slot
/// carries a different occupant id, so occupantOf(slot) != event.call
/// identifies stale events cheaply — the generation check that replaces
/// "look the call up in a map that never shrinks".
///
/// Concurrency contract: acquire() and release() are called only from
/// single-threaded engine sections (window-start materialization and the
/// tick barrier). Shard workers and commit lanes only read occupantOf()
/// and mutate their own live slots, which is race-free because slabs
/// never move (slots are stored in fixed-size chunks, not one vector).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "cellular/call.hpp"

namespace facs::serve {

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

template <typename T>
class CallPool {
 public:
  /// Everything the per-window stats report about the pool.
  struct Stats {
    std::uint64_t capacity = 0;    ///< Slots allocated (slab total).
    std::uint64_t live = 0;        ///< Slots currently occupied.
    std::uint64_t high_water = 0;  ///< Max simultaneous live slots ever.
    std::uint64_t acquired = 0;    ///< Lifetime acquisitions.
    std::uint64_t released = 0;    ///< Lifetime releases.
    std::uint64_t grow_events = 0; ///< Slab allocations (flat after warmup).
  };

  CallPool() = default;
  CallPool(const CallPool&) = delete;
  CallPool& operator=(const CallPool&) = delete;
  ~CallPool() {
    for (std::uint32_t i = 0; i < constructed_; ++i) slot(i).~Slot();
  }

  /// Takes the most recently released slot (LIFO recycle order —
  /// deterministic given a deterministic release order), else constructs
  /// the next never-used one, growing by one fixed-size slab when none is
  /// left; then constructs the value in place.
  template <typename... Args>
  [[nodiscard]] std::uint32_t acquire(cellular::CallId occupant,
                                      Args&&... args) {
    std::uint32_t index = free_head_;
    if (index != kNoSlot) {
      free_head_ = slot(index).next_free;
    } else {
      if (constructed_ == slabs_.size() * kSlabSize) grow();
      index = constructed_++;
      ::new (static_cast<void*>(&storage(index))) Slot{};
    }
    Slot& s = slot(index);
    s.value.emplace(std::forward<Args>(args)...);
    s.occupant = occupant;
    ++live_;
    ++acquired_;
    if (live_ > high_water_) high_water_ = live_;
    return index;
  }

  /// Destroys the value and recycles the slot. The occupant id is cleared,
  /// so any event still naming this (slot, call) pair reads as stale.
  void release(std::uint32_t index) {
    Slot& s = slot(index);
    s.value.reset();
    s.occupant = 0;
    s.next_free = free_head_;
    free_head_ = index;
    --live_;
    ++released_;
  }

  [[nodiscard]] T& at(std::uint32_t index) { return *slot(index).value; }
  [[nodiscard]] const T& at(std::uint32_t index) const {
    return *slot(index).value;
  }

  /// 0 when the slot is free — compare against an event's call id to
  /// detect recycled slots.
  [[nodiscard]] cellular::CallId occupantOf(std::uint32_t index) const {
    return slot(index).occupant;
  }

  [[nodiscard]] std::uint64_t live() const noexcept { return live_; }

  /// Slots constructed so far: every slot ever handed out. The rest of
  /// capacity is raw storage that nothing has written.
  [[nodiscard]] std::uint64_t constructed() const noexcept {
    return constructed_;
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    s.capacity = static_cast<std::uint64_t>(slabs_.size()) * kSlabSize;
    s.live = live_;
    s.high_water = high_water_;
    s.acquired = acquired_;
    s.released = released_;
    s.grow_events = grow_events_;
    return s;
  }

  /// Visits every occupied slot in slot-index order (deterministic).
  /// \p fn receives (slot index, occupant id, T&).
  template <typename Fn>
  void forEachLive(Fn&& fn) {
    for (std::uint32_t i = 0; i < constructed_; ++i) {
      Slot& s = slot(i);
      if (s.occupant != 0) fn(i, s.occupant, *s.value);
    }
  }

 private:
  /// Slab granularity: big enough that growth is rare, small enough that
  /// an idle engine stays lean. Fixed-size heap arrays keep every slot at
  /// a stable address for the pool's lifetime (shard workers hold
  /// references across phases), unlike one growing vector.
  static constexpr std::size_t kSlabSize = 1024;

  struct Slot {
    std::optional<T> value;
    cellular::CallId occupant = 0;
    std::uint32_t next_free = kNoSlot;  ///< Freelist link while released.
  };
  /// Uninitialised room for one Slot; acquire() constructs it in place.
  struct alignas(Slot) SlotStorage {
    std::byte bytes[sizeof(Slot)];
  };

  [[nodiscard]] SlotStorage& storage(std::uint32_t index) const {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }
  /// Only for index < constructed_.
  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return *std::launder(reinterpret_cast<Slot*>(&storage(index)));
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return *std::launder(reinterpret_cast<const Slot*>(&storage(index)));
  }

  /// Adds one slab of raw storage; nothing in it is written.
  void grow() {
    slabs_.push_back(std::make_unique_for_overwrite<SlotStorage[]>(kSlabSize));
    ++grow_events_;
  }

  std::vector<std::unique_ptr<SlotStorage[]>> slabs_;
  std::uint32_t constructed_ = 0;  ///< Slots [0, constructed_) are Slots.
  std::uint32_t free_head_ = kNoSlot;  ///< Released slots only.
  std::uint64_t live_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t grow_events_ = 0;
};

}  // namespace facs::serve
