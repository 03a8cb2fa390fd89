#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.h"

namespace tango::workload {

namespace {

/// Inhomogeneous Poisson arrivals by thinning: `rate(t)` in requests/µs.
template <class RateFn>
std::vector<SimTime> PoissonArrivals(SimDuration duration, double peak_rate,
                                     Rng& rng, RateFn rate) {
  std::vector<SimTime> out;
  if (peak_rate <= 0.0) return out;
  double t = 0.0;
  const double dmax = static_cast<double>(duration);
  while (true) {
    t += rng.Exponential(peak_rate);
    if (t >= dmax) break;
    const auto st = static_cast<SimTime>(t);
    if (rng.NextDouble() < rate(st) / peak_rate) out.push_back(st);
  }
  return out;
}

/// Sinusoidal rate: mean * (1 + amplitude * sin(2π t / period)).
struct PeriodicRate {
  double mean_per_us;
  double amplitude;
  SimDuration period;
  double operator()(SimTime t) const {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) /
                         static_cast<double>(period);
    return std::max(0.0, mean_per_us * (1.0 + amplitude * std::sin(phase)));
  }
};

/// Piecewise-constant random-walk rate resampled every `step`.
class RandomWalkRate {
 public:
  RandomWalkRate(double mean_per_us, double volatility, SimDuration duration,
                 SimDuration step, Rng& rng)
      : step_(step) {
    double level = 1.0;
    const int n = static_cast<int>(duration / step) + 2;
    levels_.reserve(static_cast<std::size_t>(n));
    // Mean-reverting (OU in log space) so the rate fluctuates rather than
    // drifting, then normalized so the realized average equals the
    // configured mean — the fluctuation *shape* is what the experiments
    // exercise; the load level must stay comparable across patterns.
    constexpr double kReversion = 0.8;
    double log_level = 0.0;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      level = std::clamp(std::exp(log_level), 0.15, 4.0);
      levels_.push_back(level);
      sum += level;
      log_level = kReversion * log_level + rng.Normal(0.0, volatility);
    }
    const double scale = mean_per_us * static_cast<double>(n) / sum;
    for (auto& l : levels_) l *= scale;
  }
  double operator()(SimTime t) const {
    const auto idx = static_cast<std::size_t>(t / step_);
    return levels_[std::min(idx, levels_.size() - 1)];
  }
  double peak() const {
    double p = 0.0;
    for (double l : levels_) p = std::max(p, l);
    return p;
  }

 private:
  SimDuration step_;
  std::vector<double> levels_;
};

/// Pick an origin cluster with hotspot skew.
ClusterId PickOrigin(const TraceConfig& cfg, Rng& rng) {
  if (cfg.num_clusters <= 1) return ClusterId{0};
  const int hotspots = std::clamp(cfg.num_hotspots, 1, cfg.num_clusters);
  if (rng.NextDouble() < cfg.hotspot_fraction) {
    return ClusterId{static_cast<std::int32_t>(rng.UniformInt(0, hotspots - 1))};
  }
  return ClusterId{
      static_cast<std::int32_t>(rng.UniformInt(0, cfg.num_clusters - 1))};
}

double SampleWorkScale(Rng& rng) {
  // Bounded Pareto-ish: most requests near 1x, occasional 2-3x.
  return std::clamp(rng.Pareto(0.7, 3.0), 0.6, 3.0);
}

ServiceId PickService(const std::vector<ServiceId>& pool, Rng& rng) {
  return pool[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

void AppendClass(Trace& trace, const TraceConfig& cfg,
                 const std::vector<ServiceId>& pool,
                 const std::vector<SimTime>& arrivals, Rng& rng) {
  for (SimTime t : arrivals) {
    Request r;
    r.service = PickService(pool, rng);
    r.origin = PickOrigin(cfg, rng);
    r.arrival = t;
    r.work_scale = SampleWorkScale(rng);
    trace.push_back(r);
  }
}

void FinalizeTrace(Trace& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = RequestId{static_cast<std::int32_t>(i)};
  }
}

}  // namespace

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kP1:
      return "P1(periodic-LC,random-BE)";
    case Pattern::kP2:
      return "P2(periodic-BE,random-LC)";
    case Pattern::kP3:
      return "P3(random,random)";
  }
  return "?";
}

Trace GeneratePattern(Pattern pattern, const TraceConfig& cfg) {
  TANGO_CHECK(cfg.catalog != nullptr, "trace config needs a catalog");
  Rng rng(cfg.seed);
  const auto lc_pool = cfg.catalog->LcServices();
  const auto be_pool = cfg.catalog->BeServices();
  const double clusters = static_cast<double>(std::max(1, cfg.num_clusters));
  const double lc_mean = cfg.lc_rps * clusters / 1e6;  // requests per µs
  const double be_mean = cfg.be_rps * clusters / 1e6;

  Trace trace;
  const bool lc_periodic = pattern == Pattern::kP1;
  const bool be_periodic = pattern == Pattern::kP2;

  if (lc_periodic) {
    PeriodicRate rate{lc_mean, cfg.periodic_amplitude, cfg.period};
    const double peak = lc_mean * (1.0 + cfg.periodic_amplitude);
    AppendClass(trace, cfg, lc_pool,
                PoissonArrivals(cfg.duration, peak, rng, rate), rng);
  } else {
    RandomWalkRate rate(lc_mean, cfg.random_volatility, cfg.duration,
                        kSecond, rng);
    AppendClass(trace, cfg, lc_pool,
                PoissonArrivals(cfg.duration, rate.peak(), rng, rate), rng);
  }

  if (be_periodic) {
    PeriodicRate rate{be_mean, cfg.periodic_amplitude, cfg.period};
    const double peak = be_mean * (1.0 + cfg.periodic_amplitude);
    AppendClass(trace, cfg, be_pool,
                PoissonArrivals(cfg.duration, peak, rng, rate), rng);
  } else {
    RandomWalkRate rate(be_mean, cfg.random_volatility, cfg.duration,
                        kSecond, rng);
    AppendClass(trace, cfg, be_pool,
                PoissonArrivals(cfg.duration, rate.peak(), rng, rate), rng);
  }

  FinalizeTrace(trace);
  return trace;
}

Trace GenerateDiurnal(const TraceConfig& cfg, double hours) {
  TANGO_CHECK(cfg.catalog != nullptr, "trace config needs a catalog");
  Rng rng(cfg.seed);
  const auto lc_pool = cfg.catalog->LcServices();
  const auto be_pool = cfg.catalog->BeServices();
  const double clusters = static_cast<double>(std::max(1, cfg.num_clusters));
  const double lc_mean = cfg.lc_rps * clusters / 1e6;
  const double be_mean = cfg.be_rps * clusters / 1e6;

  // Two-peak diurnal curve (afternoon ~14h, evening ~20h) over `hours`
  // mapped onto cfg.duration.
  auto diurnal = [&](SimTime t) {
    const double h = static_cast<double>(t) /
                     static_cast<double>(cfg.duration) * hours;
    const double afternoon = std::exp(-0.5 * std::pow((h - 14.0) / 2.5, 2.0));
    const double evening = std::exp(-0.5 * std::pow((h - 20.0) / 2.0, 2.0));
    return 0.35 + 0.9 * afternoon + 1.1 * evening;
  };

  Trace trace;
  auto lc_rate = [&](SimTime t) { return lc_mean * diurnal(t); };
  auto be_rate = [&](SimTime t) { return be_mean * diurnal(t); };
  AppendClass(trace, cfg, lc_pool,
              PoissonArrivals(cfg.duration, lc_mean * 2.5, rng, lc_rate), rng);
  AppendClass(trace, cfg, be_pool,
              PoissonArrivals(cfg.duration, be_mean * 2.5, rng, be_rate), rng);
  FinalizeTrace(trace);
  return trace;
}

Trace GenerateGoogleStyle(const TraceConfig& cfg) {
  TANGO_CHECK(cfg.catalog != nullptr, "trace config needs a catalog");
  Rng rng(cfg.seed);
  const auto& specs = cfg.catalog->all();
  const double clusters = static_cast<double>(std::max(1, cfg.num_clusters));
  // Collections (jobs) arrive as a Poisson process; each spawns a burst of
  // requests of a single category — LC categories produce frequent small
  // bursts, BE categories rarer but larger ones.
  const double collection_rate =
      (cfg.lc_rps + cfg.be_rps) * clusters / 1e6 / 6.0;  // ~6 req per burst
  // Each category's services in catalog order, built once: a vector built
  // per burst was half of a paper-scale set-up's allocations.
  std::vector<ServiceId> pools[2];
  for (const auto& s : specs) pools[s.is_lc() ? 1 : 0].push_back(s.id);
  Trace trace;
  double t = 0.0;
  const double dmax = static_cast<double>(cfg.duration);
  while (true) {
    t += rng.Exponential(collection_rate);
    if (t >= dmax) break;
    // LatencySensitivity: tiers 2-3 (LC) are ~lc_rps/(lc+be) of requests.
    const double lc_share = cfg.lc_rps / std::max(1e-9, cfg.lc_rps + cfg.be_rps);
    const bool lc = rng.NextDouble() < lc_share;
    const ServiceId service = PickService(pools[lc ? 1 : 0], rng);
    const int burst =
        static_cast<int>(lc ? rng.UniformInt(3, 9) : rng.UniformInt(2, 6));
    const ClusterId origin = PickOrigin(cfg, rng);
    double offset = 0.0;
    for (int i = 0; i < burst; ++i) {
      offset += rng.Exponential(1.0 / (20.0 * 1000.0));  // ~20 ms spacing
      const double at = t + offset;
      if (at >= dmax) break;
      Request r;
      r.service = service;
      r.origin = origin;
      r.arrival = static_cast<SimTime>(at);
      r.work_scale = SampleWorkScale(rng);
      trace.push_back(r);
    }
  }
  FinalizeTrace(trace);
  return trace;
}

Trace MergeTraces(std::vector<Trace> traces) {
  Trace merged;
  for (auto& t : traces) {
    merged.insert(merged.end(), t.begin(), t.end());
  }
  FinalizeTrace(merged);
  return merged;
}

TraceStats CountByClass(const Trace& trace, const ServiceCatalog& catalog) {
  TraceStats st;
  for (const auto& r : trace) {
    if (catalog.Get(r.service).is_lc()) {
      ++st.lc;
    } else {
      ++st.be;
    }
  }
  return st;
}

}  // namespace tango::workload
