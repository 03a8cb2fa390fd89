// Negative controls for [stats-struct]: grandfathered name + allow escape.
namespace fx {
struct PeriodStats {
  long deltas = 0;
};
struct RetryStats {  // tango-lint: allow(stats-struct)
  long retries = 0;
};
}  // namespace fx
