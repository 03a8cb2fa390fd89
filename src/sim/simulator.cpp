#include "sim/simulator.h"

#include <utility>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/vet.h"

namespace tango::sim {

std::uint32_t Simulator::AllocSlot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (pool_.size() == pool_.capacity()) ++alloc_events_;
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  pool_.emplace_back();
  // heap_/free_/pos_ can never hold more entries than the pool has slots, so
  // growing their capacity in lockstep keeps their push_backs allocation-free.
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  if (heap_.capacity() < pool_.capacity()) heap_.reserve(pool_.capacity());
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  if (free_.capacity() < pool_.capacity()) free_.reserve(pool_.capacity());
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  if (pos_.capacity() < pool_.capacity()) pos_.reserve(pool_.capacity());
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  pos_.push_back(-1);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Node& n = pool_[slot];
  ++n.generation;  // invalidate every outstanding handle to this slot
  pos_[slot] = -1;
  n.firing = false;
  n.cancelled = false;
  n.period = 0;
  n.cb.Reset();
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  free_.push_back(slot);
}

bool Simulator::Before(const HeapEntry& a, const HeapEntry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

void Simulator::SiftUp(std::size_t index, HeapEntry e) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!Before(e, heap_[parent])) break;
    Place(index, heap_[parent]);
    index = parent;
  }
  Place(index, e);
}

void Simulator::SiftDown(std::size_t index, HeapEntry e) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * index + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], e)) break;
    Place(index, heap_[child]);
    index = child;
  }
  Place(index, e);
}

void Simulator::HeapPush(std::uint32_t slot, SimTime when) {
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapEntry{when, next_seq_++, slot});
}

void Simulator::HeapRemoveAt(std::size_t index) {
  pos_[heap_[index].slot] = -1;
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;
  // The last entry refills the hole; it belongs either above or below it.
  if (index > 0 && Before(moved, heap_[(index - 1) / 2])) {
    SiftUp(index, moved);
  } else {
    SiftDown(index, moved);
  }
}

EventHandle Simulator::ScheduleAt(SimTime when, Callback cb) {
  TANGO_CHECK(when >= now_, "scheduling into the past: %lld < %lld",
              static_cast<long long>(when), static_cast<long long>(now_));
  if (cb.on_heap()) ++alloc_events_;
  const std::uint32_t slot = AllocSlot();
  Node& n = pool_[slot];
  n.period = 0;
  n.cb = std::move(cb);
  HeapPush(slot, when);
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return MakeHandle(slot, n.generation);
}

EventHandle Simulator::StartPeriodic(SimTime first, SimDuration period,
                                     Callback cb) {
  TANGO_CHECK(period > 0, "periodic event needs a positive period");
  TANGO_CHECK(first >= now_, "periodic start in the past: %lld < %lld",
              static_cast<long long>(first), static_cast<long long>(now_));
  if (cb.on_heap()) ++alloc_events_;
  const std::uint32_t slot = AllocSlot();
  Node& n = pool_[slot];
  n.period = period;
  n.cb = std::move(cb);
  HeapPush(slot, first);
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return MakeHandle(slot, n.generation);
}

void Simulator::Cancel(EventHandle handle) {
  if (handle == kInvalidEvent) return;
  const std::uint64_t low = handle & 0xffffffffULL;
  if (low == 0) return;
  const std::size_t slot = static_cast<std::size_t>(low - 1);
  if (slot >= pool_.size()) return;
  Node& n = pool_[slot];
  if (n.generation != static_cast<std::uint32_t>(handle >> 32)) return;
  if (n.firing) {
    // A periodic cancelling itself (or being cancelled) mid-tick: the fire
    // loop frees the slot instead of re-arming.
    n.cancelled = true;
    return;
  }
  if (pos_[slot] < 0) return;
  HeapRemoveAt(static_cast<std::size_t>(pos_[slot]));
  FreeSlot(static_cast<std::uint32_t>(slot));
  if constexpr (audit::kEnabled) AuditHeapThrottled();
}

bool Simulator::PopAndRun() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_.front().slot;
  now_ = heap_.front().when;
  HeapRemoveAt(0);
  Node& n = pool_[slot];
  ++executed_;
  if (n.period > 0) {
    // Periodic: run the tick from a local (the pool may grow while the
    // callback schedules other events), then re-arm the same slot in place.
    n.firing = true;
    Callback cb = std::move(n.cb);
    cb();
    Node& after = pool_[slot];  // re-fetch: pool_ may have reallocated
    after.firing = false;
    if (after.cancelled) {
      FreeSlot(slot);
    } else {
      after.cb = std::move(cb);
      HeapPush(slot, now_ + after.period);
    }
  } else {
    // One-shot: release the slot before invoking so a callback scheduling
    // new work can reuse it, and so Cancel on the fired handle is stale.
    Callback cb = std::move(n.cb);
    FreeSlot(slot);
    cb();
  }
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return true;
}

bool Simulator::Step() { return PopAndRun(); }

void Simulator::AuditHeapThrottled() const {
  // Full sweep every 64th mutation: O(pool) per sweep, so per-event
  // auditing would turn large simulations quadratic. Deterministic, so
  // audit runs stay reproducible.
  if ((++audit_tick_ & 63) == 0) AuditHeap();
}

void Simulator::AuditHeap() const {
  std::size_t firing = 0;
  for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].firing) ++firing;
    if (pos_[slot] < 0) continue;
    const auto index = static_cast<std::size_t>(pos_[slot]);
    AUDIT_CHECK(index < heap_.size() && heap_[index].slot == slot,
                .subsystem = "sim", .invariant = "sim.heap_index_coherence",
                .sim_time = now_,
                .detail = audit::Detail(
                    "slot %zu claims heap index %zu (heap size %zu, entry "
                    "%u)",
                    slot, index, heap_.size(),
                    index < heap_.size() ? heap_[index].slot : 0));
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& e = heap_[i];
    AUDIT_CHECK(e.slot < pool_.size() &&
                    pos_[e.slot] == static_cast<std::int32_t>(i),
                .subsystem = "sim", .invariant = "sim.heap_back_index",
                .sim_time = now_,
                .detail = audit::Detail("heap[%zu] = slot %u whose back "
                                        "index is %d",
                                        i, e.slot,
                                        e.slot < pool_.size() ? pos_[e.slot]
                                                              : -2));
    AUDIT_CHECK(e.when >= now_, .subsystem = "sim",
                .invariant = "sim.no_past_event", .sim_time = now_,
                .detail = audit::Detail("heap[%zu] scheduled at %lld, now "
                                        "%lld",
                                        i, static_cast<long long>(e.when),
                                        static_cast<long long>(now_)));
    if (i > 0) {
      const HeapEntry& parent = heap_[(i - 1) / 2];
      AUDIT_CHECK(!Before(e, parent), .subsystem = "sim",
                  .invariant = "sim.heap_order", .sim_time = now_,
                  .detail = audit::Detail(
                      "heap[%zu] (when %lld seq %llu) precedes its parent "
                      "(when %lld seq %llu)",
                      i, static_cast<long long>(e.when),
                      static_cast<unsigned long long>(e.seq),
                      static_cast<long long>(parent.when),
                      static_cast<unsigned long long>(parent.seq)));
    }
  }
  for (const std::uint32_t slot : free_) {
    AUDIT_CHECK(slot < pool_.size() && pos_[slot] == -1 &&
                    !pool_[slot].firing,
                .subsystem = "sim", .invariant = "sim.freelist_detached",
                .sim_time = now_,
                .detail = audit::Detail("free slot %u still queued or "
                                        "firing",
                                        slot));
  }
  // Every slot is exactly one of queued, free, or firing; pending_events()
  // stays exact because cancelled events leave the heap immediately.
  AUDIT_CHECK(heap_.size() + free_.size() + firing == pool_.size(),
              .subsystem = "sim", .invariant = "sim.slot_accounting",
              .sim_time = now_,
              .detail = audit::Detail("%zu queued + %zu free + %zu firing "
                                      "!= %zu pool slots",
                                      heap_.size(), free_.size(), firing,
                                      pool_.size()));
}

TANGO_HOT std::uint64_t Simulator::RunUntil(SimTime until) {
  const std::uint64_t before = executed_;
  while (!heap_.empty() && heap_.front().when <= until) {
    if (!PopAndRun()) break;
  }
  if (now_ < until) now_ = until;
  return executed_ - before;
}

void Simulator::RunAll() {
  while (PopAndRun()) {
  }
}

void Simulator::ReserveEvents(std::size_t n) {
  pool_.reserve(n);
  heap_.reserve(n);
  free_.reserve(n);
  pos_.reserve(n);
}

}  // namespace tango::sim
