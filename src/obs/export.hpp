#pragma once

/// \file export.hpp
/// Serializers for obs::Capture (DESIGN.md §4.9).
///
/// Two forms:
///  - Chrome trace-event JSON ("traceEvents" array of complete "X" spans),
///    streamed by ChromeTraceWriter — one track per image plus a network
///    track;
///  - a compact deterministic text form used by tests to assert that two
///    runs (e.g. two repeats) recorded byte-identical captures with plain
///    string equality.

#include <cstdio>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace caf2::obs {

/// The Chrome trace-event writer. It renders into a buffered sink: a file
/// it writes in 64 KiB chunks, so a paper-scale trace is never held whole
/// in memory, or a string. to_chrome_trace() is this writer into a string;
/// callers that merge several captures into one trace (bench variants as
/// distinct pids) frame the document themselves with raw().
class ChromeTraceWriter {
 public:
  /// Stream into the file at \p path, created or truncated. If it cannot
  /// be opened, says so on stderr and drops every write; close() then
  /// returns false.
  explicit ChromeTraceWriter(const std::string& path);
  /// Append to \p out.
  explicit ChromeTraceWriter(std::string& out);
  ~ChromeTraceWriter() { close(); }

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Write \p text verbatim (document framing, separators).
  void raw(std::string_view text);

  /// Write \p capture's trace-event array *elements*, comma-separated with
  /// no trailing comma: process and thread names, then every image track's
  /// spans and the network track's. \p pid is the trace "process" id;
  /// Perfetto groups the image/network tracks (threads) under it.
  void events(const Capture& capture, int pid,
              const std::string& process_name);

  /// Flush and close the file; false (after saying so on stderr) if it
  /// could not be opened or a write failed. A string sink always succeeds.
  bool close();

 private:
  void separator();  ///< before each element but the first of events()
  void span(const Span& span, int pid, int tid);
  void metadata(int pid, int tid, const char* what, std::string_view name);
  /// Write the buffer to the file once it holds a chunk.
  void spill();
  void flush_buffer();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;  ///< file sinks only
  std::string* out_;    ///< &buffer_, or the string sink
  bool first_ = true;
  bool ok_ = true;
};

/// Render \p capture as a complete Chrome trace-event JSON document, which
/// loads directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
std::string to_chrome_trace(const Capture& capture, int pid = 0,
                            const std::string& process_name = "caf2");

/// Deterministic fixed-precision text dump of every track, metric, and drop
/// counter. Byte-identical across repeats of the same run.
std::string to_text(const Capture& capture);

/// Write \p content to \p path; returns false (after printing to stderr) on
/// failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace caf2::obs
