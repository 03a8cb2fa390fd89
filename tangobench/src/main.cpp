// tangobench — end-to-end and per-layer benchmark of the Tango reproduction.
//
//   tangobench --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR]
//
// Untraced (--trace 0): repeats fresh passes of workload W with inputs
// generated from seed N until the passes have run for about S host seconds
// (at least kMinPasses), samples set-up kSetupsPerPass more times after
// each pass, checks every correctness gate, and prints the end-to-end
// metrics of the median pass and the median set-up.
// Traced (--trace 1): alternates untraced and traced passes for about S s,
// checks that both simulate the same thing, and prints the per-layer
// metrics of the median traced pass; its spans go to DIR as Chrome trace
// JSON. The last stdout line is always the JSON result; a failed gate
// makes it "correct": false and the exit code 1.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "layers.h"
#include "workloads.h"

namespace {

using namespace tangobench;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 40;
constexpr int kSetupsPerPass = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out = ".bench_build/traces";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "tangobench: %s\nusage: tangobench --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\nworkloads:",
               why);
  for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Index of the pass with the median run time (lower middle when even).
std::size_t MedianPass(const std::vector<PassResult>& passes) {
  std::vector<std::size_t> idx(passes.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return passes[a].run_s < passes[b].run_s;
  });
  return idx[(idx.size() - 1) / 2];
}

void PrintOutcomes(const SimResult& s) {
  const Outcomes& o = s.outcomes;
  std::printf(
      "  LC arrived %lld: completed %lld (QoS met %lld), abandoned %lld, "
      "dropped %lld, in flight %lld\n"
      "  BE arrived %lld: completed %lld, dropped %lld, in flight %lld\n",
      static_cast<long long>(o.lc_arrived),
      static_cast<long long>(o.lc_completed),
      static_cast<long long>(o.lc_qos_met),
      static_cast<long long>(o.lc_abandoned),
      static_cast<long long>(o.lc_dropped),
      static_cast<long long>(o.lc_inflight),
      static_cast<long long>(o.be_arrived),
      static_cast<long long>(o.be_completed),
      static_cast<long long>(o.be_dropped),
      static_cast<long long>(o.be_inflight));
  const Latency& l = s.latency;
  const char* how = l.exact ? "exact, nearest rank"
                            : "interpolated in power-of-two buckets";
  for (const auto& [name, q, v] :
       {std::tuple{"lc_p50_ms", 0.50, l.p50_ms},
        std::tuple{"lc_p95_ms", 0.95, l.p95_ms},
        std::tuple{"lc_p99_ms", 0.99, l.p99_ms}}) {
    std::printf("  %s %.3f ms over %lld completed LC (%s; %lld beyond)\n",
                name, v, static_cast<long long>(l.count), how,
                static_cast<long long>(std::floor(
                    (1.0 - q) * static_cast<double>(l.count))));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) return Usage("unknown workload");

  Gates gates;
  std::vector<PassResult> untraced, traced;
  std::vector<double> setups;
  double measured = 0.0;
  std::int64_t attempted = 0;  // simulated requests of every pass
  std::int64_t failed = 0;     // of those, abandoned or dropped
  // Peak RSS as of the end of the first pass: later passes reuse freed
  // memory, and how many of them run depends on host speed.
  double peak_rss_mb = 0.0;
  const auto record = [&](PassResult p, bool is_traced) {
    measured += p.run_s;
    attempted += p.requests;
    const Outcomes& o = p.sim.outcomes;
    failed += o.lc_abandoned + o.lc_dropped + o.be_dropped;
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
    std::printf("  pass %zu%s: setup %.4f s, run %.4f s, %lld requests\n",
                untraced.size() + traced.size() + 1,
                is_traced ? " (traced)" : "", p.setup_s, p.run_s,
                static_cast<long long>(p.requests));
    std::fflush(stdout);
    if (!is_traced) setups.push_back(p.setup_s);
    const std::vector<PassResult>& first =
        untraced.empty() ? traced : untraced;
    if (!first.empty()) {
      GateSameSim(first.front().sim, p.sim,
                  is_traced ? "traced pass vs untraced"
                            : "pass vs first pass of the seed",
                  &gates);
    }
    (is_traced ? traced : untraced).push_back(std::move(p));
  };

  std::printf("tangobench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // One more pass while it is expected to end nearer to --seconds than
  // stopping now, so the measured time lands within half a pass of it.
  const auto want_more = [&](std::size_t done) {
    if (done >= kMaxPasses) return false;
    if (done < kMinPasses) return true;
    return measured * (1.0 + 0.5 / static_cast<double>(done)) < args.seconds;
  };
  if (!args.trace) {
    while (want_more(untraced.size())) {
      record(wl->RunPass(args.seed, false, &gates), false);
      // Extra set-up samples after every pass: host speed changes within
      // seconds, so samples spread over the run give a steadier median.
      for (int i = 0; i < kSetupsPerPass; ++i) {
        setups.push_back(wl->SetupOnly(args.seed));
      }
    }
  } else {
    while (want_more(untraced.size() + traced.size()) || traced.empty()) {
      const bool t = untraced.size() > traced.size();
      record(wl->RunPass(args.seed, t, &gates), t);
    }
  }

  const PassResult& med = untraced[MedianPass(untraced)];
  LayerValues values;
  if (!args.trace) {
    const SimResult& s = med.sim;
    values = {
        {"setup_s", Median(setups)},
        {"req_per_s", static_cast<double>(med.requests) / med.run_s},
        {"peak_rss_mb", peak_rss_mb},
        {"lc_qos_sat", LcQosSat(s.outcomes)},
        {"lc_p50_ms", s.latency.p50_ms},
        {"lc_p95_ms", s.latency.p95_ms},
        {"lc_p99_ms", s.latency.p99_ms},
        {"lc_mean_ms", s.latency.mean_ms},
        {"be_done", BeDone(s.outcomes)},
        {"util_mean", s.util_mean},
    };
    PrintOutcomes(s);
    std::printf("  failed_frac %.6f (terminal failures over arrivals)\n"
                "  inflight_frac %.6f (still in flight at the end; not a "
                "failure)\n",
                FailedFrac(s.outcomes), InflightFrac(s.outcomes));
  } else {
    const PassResult& tmed = traced[MedianPass(traced)];
    values = tmed.layers;
    values["trace.overhead"] = tmed.run_s / med.run_s;
    wl->TracedExtras(args.seed, tmed, &values, &gates);
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const std::string path = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (wl->WriteSpans(path)) std::printf("  spans written to %s\n", path.c_str());
  }

  // Every declared metric, in declaration order; a layer the workload does
  // not run reads 0 in a traced run.
  std::string metrics;
  for (const MetricDef& m : args.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values.find(m.name);
    gates.Check(args.trace || it != values.end(),
                std::string(m.name) + " was not measured");
    const double v = it != values.end() ? it->second : 0.0;
    gates.Check(std::isfinite(v), std::string(m.name) + " is not finite");
    std::printf("  %-32s %s %s\n", m.name, Num(v).c_str(), m.unit);
    metrics += std::string(metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + Num(std::isfinite(v) ? v : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
    values.erase(m.name);
  }
  // Measured but not declared, e.g. a DSS-LC phase added after the
  // benchmark was defined: shown, not part of the result.
  for (const auto& [name, v] : values) {
    std::printf("  (unlisted) %-21s %s\n", name.c_str(), Num(v).c_str());
  }
  for (const auto& f : gates.failures()) std::printf("  GATE FAILED: %s\n", f.c_str());
  if (gates.ok()) std::printf("  gates: all passed\n");
  std::string json = "{\"correct\": ";
  json += gates.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) +
          ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return gates.ok() ? 0 : 1;
}
