// TangoScope exporters.
//
// Chrome trace_event JSON (the "JSON Array Format" object flavor): load
// the file in https://ui.perfetto.dev or chrome://tracing. Mapping:
//   - ts/dur are sim-time microseconds verbatim (SimTime is already µs);
//   - pid groups by node (pid = node + 2; control-plane spans with no
//     node land on pid 1, named via process_name metadata);
//   - tid groups by service within a node (tid = service + 2, else 1);
//   - complete spans use ph:"X", instants ph:"i" (global scope);
//   - node/service/request/value/parent ride in "args", so a request's
//     causal chain reconstructs by its request id plus parent handles.
// Spans still open at export time are skipped (their end is unknown).
// Metric snapshots export through eval/export.h's labeled CSV.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "scope/scope.h"

namespace tango::scope {

/// Write `spans` as a Chrome trace_event JSON object. Returns the number
/// of trace events written (metadata records not counted).
std::size_t WriteChromeTrace(std::ostream& out,
                             const std::vector<SpanRecord>& spans);
/// Snapshot `tracer` and write it; usable whether or not the tracer is
/// still enabled (an untouched tracer exports an empty-but-valid trace).
std::size_t WriteChromeTrace(std::ostream& out, const Tracer& tracer);
bool WriteChromeTraceFile(const std::string& path, const Tracer& tracer);

/// Merge the span rings of several tracers (one per shard in the sharded
/// engine — each shard records into its own ring so emission never
/// contends across shards) into one stream ordered by sim_begin, stable
/// within a ring so per-shard causal order survives. Span/parent handles
/// are ring-local; the merge re-tags each record's self/parent with the
/// ring index (bits 48+, untouched by MakeHandle) so handles from
/// different rings can never collide in the merged trace, while parent
/// chains — always intra-shard — keep matching their re-tagged spans.
std::vector<SpanRecord> MergeSnapshots(
    const std::vector<const Tracer*>& tracers);
std::size_t WriteChromeTrace(std::ostream& out,
                             const std::vector<const Tracer*>& tracers);
bool WriteChromeTraceFile(const std::string& path,
                          const std::vector<const Tracer*>& tracers);

}  // namespace tango::scope
