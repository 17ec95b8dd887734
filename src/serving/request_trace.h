#pragma once
// Replayable request traces (JSONL, one request per line).
//
// A production serving study should run on production arrivals, not just
// synthetic streams.  This module round-trips the full `Request` record —
// arrivals, lengths, priority/tenant/prefix assignment, SLO deadlines —
// through a flat JSONL file so traces captured from a real fleet (or
// exported from generate_requests) drop straight into run_serving.  The
// format is deliberately line-oriented and flat: greppable, streamable,
// and diffable in CI.
//
// One line per request, objects with these keys — Request::fields(), in
// order (missing keys take the Request defaults; unknown keys are
// rejected loudly):
//
//   {"id": 0, "arrival_s": 0.125, "prompt": 512, "output": 128,
//    "priority": 0, "tenant": 0, "prefix_id": -1, "prefix_len": 0,
//    "ttft_deadline_s": 2.1, "tpot_deadline_s": 0.105}
//
// Doubles are printed with %.17g, so save -> load reproduces every field
// bit for bit and a replayed trace yields bit-identical ServingMetrics.

#include <string>
#include <vector>

#include "serving/request_gen.h"

namespace cimtpu::serving {

/// Serializes `requests` to the JSONL trace format (one line per request,
/// trailing newline after the last line).
std::string request_trace_jsonl(const std::vector<Request>& requests);

/// Parses a JSONL trace.  Throws ConfigError on malformed lines, unknown
/// keys, or arrivals out of order (run_serving requires a sorted trace).
/// Blank lines are ignored.
std::vector<Request> parse_request_trace_jsonl(const std::string& text);

/// Writes `requests` to `path` in the JSONL trace format.  Throws
/// ConfigError if the file cannot be written.
void save_request_trace(const std::string& path,
                        const std::vector<Request>& requests);

/// Reads a JSONL trace from `path`.  Throws ConfigError if the file cannot
/// be read or fails to parse.
std::vector<Request> load_request_trace(const std::string& path);

}  // namespace cimtpu::serving
