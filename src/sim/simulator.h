// Discrete-event simulation engine.
//
// The whole edge-cloud system (§6.1's "dual space") runs on one virtual
// clock. Components schedule callbacks at absolute virtual times; the engine
// pops events in (time, sequence) order so simultaneous events retain
// insertion order and the simulation stays deterministic.
//
// The engine is built for zero steady-state heap allocations, counted by
// alloc_events():
//   - events live in a pooled slot array that is recycled through a
//     freelist, so ScheduleAt reuses storage once the pool has grown to the
//     high-water mark of simultaneously pending events;
//   - callbacks are stored in a small-buffer-optimized `Callback` (inline up
//     to kInlineBytes; larger callables fall back to the heap and are
//     counted);
//   - cancellation is O(log n) via an indexed binary heap — the event is
//     removed immediately, so no tombstones accumulate and pending_events()
//     is exact;
//   - the heap is cache-resident: each entry carries its (when, seq) key
//     inline next to its pool slot, and the slot -> heap-position
//     back-index is a dense int32 array, so a sift reads two small
//     contiguous arrays and never touches the pooled callbacks;
//   - periodic events are first class: one live pool entry is re-armed in
//     place every tick instead of re-scheduling a fresh event per firing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace tango::sim {

/// Handle used to cancel a scheduled (one-shot or periodic) event. Handles
/// carry a slot generation, so a stale handle — already fired, already
/// cancelled, or whose pool slot was since reused — never matches a live
/// event and Cancel on it is a safe no-op. Handles are simulator-local
/// (shard-local in the sharded engine): they index this simulator's pool
/// and must never be passed to, or cancelled through, another shard — a
/// cross-shard cancel is a cross-shard effect and has to travel through
/// the shard mailbox API like any other message.
using EventHandle = std::uint64_t;
constexpr EventHandle kInvalidEvent = 0;

/// Move-only `void()` callable with small-buffer optimization. Callables up
/// to kInlineBytes are stored inline in the event pool (no allocation);
/// larger ones are heap-allocated and reported via on_heap() so the
/// simulator can count them as allocation events.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 88;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      heap_ = new Fn(std::forward<F>(f));  // tango-lint: allow(raw-new)
    }
    vt_ = VtableFor<Fn>();
  }

  Callback(Callback&& other) noexcept { MoveFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  void operator()() { vt_->invoke(obj()); }
  explicit operator bool() const { return vt_ != nullptr; }
  /// True when the callable did not fit the inline buffer.
  bool on_heap() const { return heap_ != nullptr; }

  void Reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(obj(), heap_ != nullptr);
    heap_ = nullptr;
    vt_ = nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void* obj);
    /// Move-construct the inline callable from `src` into `dst`, then
    /// destroy `src` (heap callables move by pointer swap instead).
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* obj, bool heap);
  };

  template <typename Fn>
  static const VTable* VtableFor() {
    static const VTable vt = {
        [](void* o) { (*static_cast<Fn*>(o))(); },
        [](void* src, void* dst) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* o, bool heap) {
          if (heap) {
            delete static_cast<Fn*>(o);  // tango-lint: allow(raw-new)
          } else {
            static_cast<Fn*>(o)->~Fn();
          }
        },
    };
    return &vt;
  }

  void* obj() { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  void MoveFrom(Callback& other) noexcept {
    vt_ = other.vt_;
    heap_ = other.heap_;
    if (vt_ != nullptr && heap_ == nullptr) {
      vt_->relocate(other.buf_, buf_);
    }
    other.heap_ = nullptr;
    other.vt_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* heap_ = nullptr;
  const VTable* vt_ = nullptr;
};

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  /// Schedule `cb` to run at absolute virtual time `when` (>= Now()).
  EventHandle ScheduleAt(SimTime when, Callback cb);

  /// Schedule `cb` to run `delay` after the current time.
  EventHandle ScheduleAfter(SimDuration delay, Callback cb) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// First-class periodic event: `cb` runs at `first`, then every `period`,
  /// re-arming the same pool entry in place (zero allocations per tick).
  /// Stop it with Cancel on the returned handle — safe from inside the
  /// callback itself.
  EventHandle StartPeriodic(SimTime first, SimDuration period, Callback cb);

  /// Cancel a previously scheduled event (one-shot or periodic). The event
  /// is removed from the queue immediately (O(log n), no tombstones). Safe
  /// to call on already-fired, already-cancelled, or reused handles (no-op).
  void Cancel(EventHandle handle);

  /// No pending event (NextEventTime sentinel).
  static constexpr SimTime kNoEvent = INT64_MAX;

  /// Run until the event queue is empty or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed, and the clock is
  /// left at `until` even when the queue drains early — so an epoch-bounded
  /// caller (the sharded engine drives one RunUntil per epoch) observes
  /// every shard clock at the same barrier time. Returns the number of
  /// events executed by this call, letting the caller aggregate events/sec
  /// across shards without re-reading executed_events().
  std::uint64_t RunUntil(SimTime until);

  /// Run until the event queue drains completely.
  void RunAll();

  /// Execute a single event; returns false if the queue is empty.
  bool Step();

  /// Pre-grow the event pool (not counted as allocation events) for
  /// warm-up-free benchmarks.
  void ReserveEvents(std::size_t n);

  /// Exact number of events currently scheduled (cancelled events are
  /// removed immediately and never counted).
  std::size_t pending_events() const { return heap_.size(); }
  /// Virtual time of the earliest pending event, or kNoEvent when the
  /// queue is empty. The sharded engine uses this to fast-forward over
  /// epochs in which no shard has anything to run.
  SimTime NextEventTime() const {
    return heap_.empty() ? kNoEvent : heap_.front().when;
  }
  std::uint64_t executed_events() const { return executed_; }

  /// Heap-allocation events since construction: event-pool growth plus
  /// callbacks that overflowed the inline buffer. Flat across steady-state
  /// scheduling once the pool reached its high-water mark.
  std::int64_t alloc_events() const { return alloc_events_; }

  /// Audit the event engine: heap-index/slot coherence (pos_[heap_[i].slot]
  /// points back at i), the (when, seq) heap order, no queued event in the
  /// past, freelist slots detached from the heap, and every pool slot
  /// accounted for as exactly one of queued / free / firing. Mutation sites
  /// run it through a deterministic 1-in-64 throttle in audit builds (the
  /// sweep is O(pool), so auditing every event would make large
  /// simulations quadratic; corruption is still caught within 64
  /// mutations); compiles to nothing otherwise. Calling it directly is
  /// always a full, unthrottled sweep.
  void AuditHeap() const;

#if defined(TANGO_AUDIT)
  /// Seeded-bug hook for the audit death tests: swap two heap entries
  /// without fixing their back-indices so AuditHeap provably fires.
  void CorruptHeapForTest() {
    if (heap_.size() >= 2) std::swap(heap_[0], heap_[1]);
  }
#endif

 private:
  struct Node {
    SimDuration period = 0;  // 0 = one-shot
    std::uint32_t generation = 0;
    bool firing = false;     // periodic currently executing its tick
    bool cancelled = false;  // cancelled while firing: do not re-arm
    Callback cb;
  };
  /// One queued event. The ordering key lives here rather than in the pool
  /// Node so heap comparisons stay inside heap_.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;  // tie-break so equal-time events run FIFO
    std::uint32_t slot = 0;
  };

  static EventHandle MakeHandle(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventHandle>(gen) << 32) |
           (static_cast<EventHandle>(slot) + 1);
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);
  static bool Before(const HeapEntry& a, const HeapEntry& b);
  void HeapPush(std::uint32_t slot, SimTime when);
  void HeapRemoveAt(std::size_t index);
  /// Sift `e` from the hole at `index` toward the root / the leaves.
  void SiftUp(std::size_t index, HeapEntry e);
  void SiftDown(std::size_t index, HeapEntry e);
  void Place(std::size_t index, const HeapEntry& e) {
    heap_[index] = e;
    pos_[e.slot] = static_cast<std::int32_t>(index);
  }
  bool PopAndRun();
  /// The throttled sweep mutation sites call (see AuditHeap).
  void AuditHeapThrottled() const;

  SimTime now_ = 0;
  mutable std::uint64_t audit_tick_ = 0;  // mutations since the last sweep
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::int64_t alloc_events_ = 0;
  std::vector<Node> pool_;
  std::vector<std::uint32_t> free_;  // recycled pool slots
  std::vector<HeapEntry> heap_;      // min-(when, seq) heap
  /// pos_[slot] = slot's index in heap_, -1 when not queued (free or firing).
  std::vector<std::int32_t> pos_;
};

}  // namespace tango::sim
