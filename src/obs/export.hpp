#pragma once

/// \file export.hpp
/// Serializers for obs::Capture (DESIGN.md §4.9).
///
/// Two forms:
///  - Chrome trace-event JSON ("traceEvents" array of complete "X" spans),
///    which loads directly in Perfetto (https://ui.perfetto.dev) or
///    chrome://tracing — one track per image plus a network track;
///  - a compact deterministic text form used by tests to assert that two
///    runs (e.g. two repeats) recorded byte-identical captures with plain
///    string equality.

#include <string>

#include "obs/obs.hpp"

namespace caf2::obs {

/// Render \p capture as a complete Chrome trace-event JSON document.
/// \p pid is the trace "process" id; Perfetto groups the image/network
/// tracks (threads) under it.
std::string to_chrome_trace(const Capture& capture, int pid = 0,
                            const std::string& process_name = "caf2");

/// Render only the trace-event array *elements* (no enclosing document) so
/// callers can merge several captures — e.g. bench variants — into one trace
/// as distinct pids. Returns "" for an empty capture; elements are
/// comma-separated with no trailing comma.
std::string chrome_trace_events(const Capture& capture, int pid,
                                const std::string& process_name);

/// Deterministic fixed-precision text dump of every track, metric, and drop
/// counter. Byte-identical across repeats of the same run.
std::string to_text(const Capture& capture);

/// Write \p content to \p path; returns false (after printing to stderr) on
/// failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace caf2::obs
