// TangoScope metrics registry: named counters, gauges, and log-bucketed
// histograms behind one queryable surface.
//
// Replaces the ad-hoc counter structs that used to accumulate around the
// codebase (stats-struct members bumped inline): a component registers
// each metric once at construction (mutex-protected name lookup), keeps
// the returned pointer, and samples it O(1) on the hot path — a relaxed
// atomic add, no allocation, no lock. tools/lint.py bans new `*Stats`
// structs outside src/scope so future metrics come through here.
//
// Naming convention (see DESIGN.md §12): dot-separated lowercase
// `<subsystem>.<noun>[_<unit>]`, e.g. "sync.pushes", "lc.latency_us",
// "sched.phase.mcmf_solve_us". Names must point at static storage
// (string literals); a name identifies one metric of one kind.
//
// Unlike span tracing, the registry is NOT compile-time gated: it also
// backs always-on bookkeeping (EdgeCloudSystem's "sync.*" and "fault.*"
// counters live only here), and a relaxed fetch_add costs the same as the
// plain `++member` it replaced.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tango::scope {

/// Monotonic event count. Add/value are wait-free relaxed atomics.
class Counter {
 public:
  void Add(std::int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-written level (queue depth, utilization, ...).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram of non-negative integer samples (latencies in
/// µs, sizes, counts). Each power-of-two octave is split into
/// 2^kSubBits sub-buckets, so the relative width of a bucket is 2^-kSubBits
/// and a mid-bucket percentile estimate is within ~2^-(kSubBits+1) ≈ 6%
/// of the true value; samples below 2^kSubBits are stored exactly.
/// Observe is a single relaxed atomic add — O(1), allocation-free,
/// thread-safe. ~4 KiB per histogram; register once, not per event.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;
  // Buckets 0..kSubBuckets-1 hold exact small values; octave e (the
  // values with bit_width e, e in [kSubBits+1, 63]) maps to buckets
  // [(e - kSubBits) << kSubBits, ...+kSubBuckets).
  static constexpr int kBuckets = ((63 - kSubBits) << kSubBits) + kSubBuckets;

  void Observe(std::int64_t v);
  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Nearest-rank percentile (q in [0,1]) over a relaxed snapshot of the
  /// buckets; returns the bucket's representative value (exact below
  /// kSubBuckets, mid-bucket above). 0 when empty.
  double Percentile(double q) const;

  static int BucketOf(std::int64_t v);
  /// Representative value reported for bucket `b`.
  static double BucketValue(int b);

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// One row of MetricRegistry::Snapshot(), ready for CSV/JSON export.
struct MetricRow {
  std::string name;
  const char* kind = "";  // "counter" | "gauge" | "histogram"
  std::int64_t count = 0;  // counter value, or histogram sample count
  double value = 0.0;      // gauge level, or histogram mean
  double p50 = 0.0;        // histograms only
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Register-once, sample-forever metric store. Registration (GetX) takes a
/// mutex and may allocate — do it at construction and keep the pointer;
/// the returned objects live as long as the registry and are themselves
/// lock-free to update. Re-registering a name returns the same object.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// All metrics, sorted by name, with histogram percentiles extracted.
  std::vector<MetricRow> Snapshot() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  // std::map keeps Snapshot() ordered; lookups happen only at
  // registration time, never on the hot path.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tango::scope
