#include "scope/export.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <utility>

namespace tango::scope {

namespace {

// pid/tid layout: 1 = control plane / no id; nodes and services shift by
// 2 so id 0 stays distinguishable from the control-plane lane.
std::int64_t PidOf(const SpanRecord& s) {
  return s.ids.node >= 0 ? s.ids.node + 2 : 1;
}
std::int64_t TidOf(const SpanRecord& s) {
  return s.ids.service >= 0 ? s.ids.service + 2 : 1;
}

void WriteEscaped(std::ostream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
}

void WriteEventCommon(std::ostream& out, const SpanRecord& s) {
  out << "\"ts\": " << s.sim_begin << ", \"pid\": " << PidOf(s)
      << ", \"tid\": " << TidOf(s) << ", \"name\": \"";
  WriteEscaped(out, s.name);
  out << "\", \"cat\": \"";
  WriteEscaped(out, s.category[0] == '\0' ? "tango" : s.category);
  out << "\", \"args\": {\"node\": " << s.ids.node
      << ", \"service\": " << s.ids.service
      << ", \"request\": " << s.ids.request << ", \"value\": " << s.ids.value
      << ", \"span\": " << s.self << ", \"parent\": " << s.parent;
  if (s.wall_begin_ns != 0) {
    out << ", \"wall_begin_ns\": " << s.wall_begin_ns;
    if (s.wall_end_ns != 0) out << ", \"wall_end_ns\": " << s.wall_end_ns;
  }
  out << "}";
}

}  // namespace

std::size_t WriteChromeTrace(std::ostream& out,
                             const std::vector<SpanRecord>& spans) {
  out << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };
  // Name the process lanes so Perfetto shows "node N" instead of bare
  // pids. Control plane is pid 1.
  std::set<std::int64_t> pids;
  for (const SpanRecord& s : spans) {
    if (s.used()) pids.insert(PidOf(s));
  }
  pids.insert(1);
  for (std::int64_t pid : pids) {
    sep();
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": 1, \"args\": {\"name\": \"";
    if (pid == 1) {
      out << "control-plane";
    } else {
      out << "node " << pid - 2;
    }
    out << "\"}}";
  }
  std::size_t events = 0;
  for (const SpanRecord& s : spans) {
    if (!s.used() || s.open()) continue;
    sep();
    if (s.instant) {
      out << "{\"ph\": \"i\", \"s\": \"g\", ";
    } else {
      out << "{\"ph\": \"X\", \"dur\": " << s.sim_end - s.sim_begin << ", ";
    }
    WriteEventCommon(out, s);
    out << "}";
    ++events;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return events;
}

std::size_t WriteChromeTrace(std::ostream& out, const Tracer& tracer) {
  return WriteChromeTrace(out, tracer.Snapshot());
}

std::vector<SpanRecord> MergeSnapshots(
    const std::vector<const Tracer*>& tracers) {
  std::vector<SpanRecord> merged;
  for (std::size_t ring = 0; ring < tracers.size(); ++ring) {
    if (tracers[ring] == nullptr) continue;
    const std::uint64_t tag = (static_cast<std::uint64_t>(ring) + 1) << 48;
    for (SpanRecord rec : tracers[ring]->Snapshot()) {
      if (rec.self != kInvalidSpan) rec.self |= tag;
      if (rec.parent != kInvalidSpan) rec.parent |= tag;
      merged.push_back(rec);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.sim_begin < b.sim_begin;
                   });
  return merged;
}

std::size_t WriteChromeTrace(std::ostream& out,
                             const std::vector<const Tracer*>& tracers) {
  return WriteChromeTrace(out, MergeSnapshots(tracers));
}

bool WriteChromeTraceFile(const std::string& path,
                          const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(out, tracers);
  return static_cast<bool>(out);
}

bool WriteChromeTraceFile(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(out, tracer);
  return static_cast<bool>(out);
}

}  // namespace tango::scope
