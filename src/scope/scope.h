// TangoScope: low-overhead span tracing for the edge-cloud simulation.
//
// The dynamic half of the observability plane — TangoAudit (src/audit)
// proves invariants hold, TangoScope shows where time and resources
// actually go. Spans cover the LC request lifecycle (arrival → DSS-LC
// round → dispatch → transfer → execution → completion) and control-plane
// actions (D-VPA ordered writes, QoS re-assurance nudges, BE eviction,
// fault events). Each span carries sim-time, optional wall-clock,
// node/service/request ids, and a parent handle so a request's causal
// chain reconstructs from an exported trace (scope/export.h writes Chrome
// trace_event JSON loadable in Perfetto / chrome://tracing).
//
// Cost model, in the style of src/audit:
//   - compiled with TANGO_SCOPE=OFF (the default), kCompiled is false and
//     the BeginSpan/EndSpan front-end below constant-folds to nothing —
//     bench/perf_sim and bench/perf_sched assert zero steady-state
//     allocations and unchanged throughput in this mode;
//   - compiled ON, emission is runtime-gated on Tracer::enabled() and
//     costs one mutex-protected ring-slot write. Span storage is a
//     fixed-capacity ring allocated once at Enable() — the pooled-slot +
//     generation-checked-handle pattern of sim::Simulator's event slab —
//     so the steady state never allocates; when the ring wraps, the
//     oldest records are overwritten (open ones are counted as dropped)
//     and a handle to a recycled slot goes stale, making End() on it a
//     safe no-op.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.h"

namespace tango::scope {

#if defined(TANGO_SCOPE)
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

/// Handle to an emitted span. Encodes (slot generation, slot index); a
/// handle whose slot has since been recycled by the ring never matches, so
/// ending it is a safe no-op. 0 is never a valid handle.
using SpanId = std::uint64_t;
constexpr SpanId kInvalidSpan = 0;

/// Optional identity attached to a span; designated-initializer tail like
/// audit::Report. -1 means "not applicable". `value` is a free slot for a
/// span-specific magnitude (queue length, new quota, bytes, ...).
struct SpanIds {
  std::int64_t node = -1;
  std::int64_t service = -1;
  std::int64_t request = -1;
  std::int64_t value = 0;
};

/// One record in the span ring. `name` and `category` must point at
/// strings with static storage duration (string literals at every call
/// site) — records outlive the emitting scope.
struct SpanRecord {
  const char* name = nullptr;  // nullptr = slot never used
  const char* category = "";
  SimTime sim_begin = 0;
  SimTime sim_end = -1;            // -1 = still open
  std::int64_t wall_begin_ns = 0;  // 0 unless Config::wall_clock
  std::int64_t wall_end_ns = 0;
  SpanId self = kInvalidSpan;
  SpanId parent = kInvalidSpan;
  SpanIds ids;
  bool instant = false;

  bool used() const { return name != nullptr; }
  bool open() const { return used() && !instant && sim_end < 0; }
};

/// Fixed-capacity, thread-safe span recorder. All emission goes through
/// one mutex — contention is acceptable because only the parallel DSS-LC
/// phase emits from worker threads, and there only a handful of spans per
/// round. Construction allocates nothing; Enable() allocates the ring
/// once (the prewarm, like Simulator::ReserveEvents).
class Tracer {
 public:
  struct Config {
    std::size_t capacity = std::size_t{1} << 15;  // ring slots
    bool wall_clock = false;  // also stamp steady_clock ns on begin/end
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocate (or re-allocate) the ring and start recording. Resets the
  /// cursor and counters; prior records are discarded.
  void Enable(const Config& cfg);
  void Enable() { Enable(Config{}); }
  /// Stop recording. The ring is kept so an exporter can still read it.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Emit an open span beginning at sim time `at`. Returns kInvalidSpan
  /// when disabled. The returned handle stays valid until the ring wraps
  /// back over its slot.
  SpanId Begin(const char* name, const char* category, SimTime at,
               const SpanIds& ids = {}, SpanId parent = kInvalidSpan);
  /// Close a span. Safe no-op on kInvalidSpan, on recycled (stale)
  /// handles, and on already-closed spans.
  void End(SpanId span, SimTime at);
  /// Emit a zero-duration event.
  SpanId Instant(const char* name, const char* category, SimTime at,
                 const SpanIds& ids = {}, SpanId parent = kInvalidSpan);

  std::size_t capacity() const;
  /// Total spans + instants emitted since Enable (including overwritten).
  std::int64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// Still-open spans lost to ring wrap-around.
  std::int64_t dropped_open() const {
    return dropped_open_.load(std::memory_order_relaxed);
  }
  /// End() calls that arrived after their slot was recycled.
  std::int64_t stale_ends() const {
    return stale_ends_.load(std::memory_order_relaxed);
  }

  /// Copy of the live ring contents in emission order (oldest first).
  /// Allocates — for exporters and tests, not the hot path.
  std::vector<SpanRecord> Snapshot() const;

 private:
  struct Slot {
    SpanRecord rec;
    std::uint32_t gen = 0;
  };

  static SpanId MakeHandle(std::uint64_t slot, std::uint32_t gen) {
    return (static_cast<SpanId>(gen) << 32) | (slot + 1);
  }

  SpanId Emit(const char* name, const char* category, SimTime at,
              const SpanIds& ids, SpanId parent, bool instant);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  bool wall_clock_ = false;
  std::uint64_t cursor_ = 0;  // total emissions; ring slot = cursor_ % size
  std::vector<Slot> ring_;
  std::atomic<std::int64_t> emitted_{0};
  std::atomic<std::int64_t> dropped_open_{0};
  std::atomic<std::int64_t> stale_ends_{0};
};

/// The process-global tracer every instrumentation site emits to. Enable
/// it (examples/chaos_demo does) and export with scope/export.h.
Tracer& DefaultTracer();

/// True only when the subsystem is compiled in (TANGO_SCOPE=ON) and the
/// default tracer is enabled. Constant false when compiled out, so the
/// front-end below folds away entirely.
inline bool TracingActive() {
  if constexpr (!kCompiled) {
    return false;
  } else {
    return DefaultTracer().enabled();
  }
}

/// Front-end used at instrumentation sites: compiles to nothing when
/// TANGO_SCOPE=OFF, one enabled() load when ON but disabled.
inline SpanId BeginSpan(const char* name, const char* category, SimTime at,
                        const SpanIds& ids = {},
                        SpanId parent = kInvalidSpan) {
  if (!TracingActive()) return kInvalidSpan;
  return DefaultTracer().Begin(name, category, at, ids, parent);
}

inline void EndSpan(SpanId span, SimTime at) {
  if (!TracingActive()) return;
  DefaultTracer().End(span, at);
}

inline void InstantEvent(const char* name, const char* category, SimTime at,
                         const SpanIds& ids = {},
                         SpanId parent = kInvalidSpan) {
  if (!TracingActive()) return;
  DefaultTracer().Instant(name, category, at, ids, parent);
}

}  // namespace tango::scope

/// Statement form of InstantEvent taking a SpanIds designated-initializer
/// tail, mirroring AUDIT_CHECK's discarded-if-constexpr idiom:
///   TANGO_SCOPE_INSTANT("be.evict", "be", now,
///                       .node = id.value, .service = svc.value);
/// With TANGO_SCOPE=OFF the branch is discarded (still type-checked) and
/// the statement compiles to nothing.
#define TANGO_SCOPE_INSTANT(name, category, at, ...)                  \
  do {                                                                \
    if constexpr (::tango::scope::kCompiled) {                        \
      ::tango::scope::Tracer& t_scope_ = ::tango::scope::DefaultTracer(); \
      if (t_scope_.enabled()) {                                       \
        t_scope_.Instant((name), (category), (at),                    \
                         ::tango::scope::SpanIds{__VA_ARGS__});       \
      }                                                               \
    }                                                                 \
  } while (0)
