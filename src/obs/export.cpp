#include "obs/export.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "support/bench_io.hpp"

namespace caf2::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, static_cast<std::size_t>(
                        n < static_cast<int>(sizeof buf)
                            ? n
                            : static_cast<int>(sizeof buf) - 1));
  }
}

/// Display name of one trace-event span.
std::string span_name(const Span& span) {
  std::string name = to_string(span.kind);
  if (const char* label = span.label(); label != nullptr) {
    name += ":";
    name += label;
  }
  return name;
}

void append_trace_span(std::string& out, const Span& span, int pid, int tid,
                       bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  appendf(out, "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, ",
          json_escape(span_name(span)).c_str(), pid, tid);
  appendf(out, "\"ts\": %.6f, \"dur\": %.6f, \"args\": {\"id\": %" PRIu64
               ", \"parent\": %" PRIu64,
          span.begin, span.end - span.begin, span.id, span.parent());
  if (span.kind == SpanKind::kBlocked) {
    appendf(out, ", \"blame\": \"%s\"", to_string(span.blame));
  }
  if (span.a() != 0) {
    appendf(out, ", \"a\": %" PRIu64, span.a());
  }
  if (span.b != 0) {
    appendf(out, ", \"b\": %" PRIu32, span.b);
  }
  if (span.peer >= 0) {
    appendf(out, ", \"peer\": %d", span.peer);
  }
  out += "}}";
}

void append_metadata(std::string& out, int pid, int tid, const char* what,
                     const std::string& name, bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  appendf(out, "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, ", what, pid);
  if (tid >= 0) {
    appendf(out, "\"tid\": %d, ", tid);
  }
  appendf(out, "\"args\": {\"name\": \"%s\"}}", json_escape(name).c_str());
}

}  // namespace

std::string chrome_trace_events(const Capture& capture, int pid,
                                const std::string& process_name) {
  std::string out;
  bool first = true;
  append_metadata(out, pid, -1, "process_name", process_name, first);
  for (int image = 0; image < capture.images; ++image) {
    char label[64];
    std::snprintf(label, sizeof label, "image %d", image);
    append_metadata(out, pid, image, "thread_name", label, first);
  }
  append_metadata(out, pid, capture.images, "thread_name", "network", first);
  for (int image = 0; image < capture.images; ++image) {
    for (const Span& span : capture.image_track(image).spans) {
      append_trace_span(out, span, pid, image, first);
    }
  }
  for (const Span& span : capture.net_track().spans) {
    append_trace_span(out, span, pid, capture.images, first);
  }
  return out;
}

std::string to_chrome_trace(const Capture& capture, int pid,
                            const std::string& process_name) {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  out += chrome_trace_events(capture, pid, process_name);
  out += "\n]}\n";
  return out;
}

std::string to_text(const Capture& capture) {
  std::string out;
  appendf(out, "obs capture images=%d end=%.6f\n", capture.images,
          capture.end_us);
  for (std::size_t t = 0; t < capture.tracks.size(); ++t) {
    const Track& track = capture.tracks[t];
    if (t + 1 == capture.tracks.size()) {
      appendf(out, "track net spans=%zu dropped=%" PRIu64 "\n",
              track.spans.size(), track.dropped);
    } else {
      appendf(out, "track %zu spans=%zu dropped=%" PRIu64 "\n", t,
              track.spans.size(), track.dropped);
    }
    for (const Span& span : track.spans) {
      appendf(out, "  %" PRIu64 " %s [%.6f,%.6f)", span.id,
              to_string(span.kind), span.begin, span.end);
      if (span.kind == SpanKind::kBlocked) {
        appendf(out, " blame=%s", to_string(span.blame));
      }
      if (span.parent() != 0) {
        appendf(out, " parent=%" PRIu64, span.parent());
      }
      if (span.a() != 0) {
        appendf(out, " a=%" PRIu64, span.a());
      }
      if (span.b != 0) {
        appendf(out, " b=%" PRIu32, span.b);
      }
      if (span.peer >= 0) {
        appendf(out, " peer=%d", span.peer);
      }
      if (const char* label = span.label(); label != nullptr) {
        appendf(out, " label=%s", label);
      }
      out += "\n";
    }
  }
  for (int image = 0; image < capture.images; ++image) {
    const Metrics& m = capture.metrics[static_cast<std::size_t>(image)];
    appendf(out, "metrics %d", image);
    for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount);
         ++c) {
      if (m.counters[c] != 0) {
        appendf(out, " %s=%" PRIu64, to_string(static_cast<Counter>(c)),
                m.counters[c]);
      }
    }
    for (std::size_t h = 0; h < static_cast<std::size_t>(Hist::kCount); ++h) {
      const Histogram& hist = m.hists[h];
      if (hist.count != 0) {
        appendf(out, " %s{n=%" PRIu64 ",sum=%.6f}",
                to_string(static_cast<Hist>(h)), hist.count, hist.sum_us);
      }
    }
    out += "\n";
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "obs: error writing %s\n", path.c_str());
  }
  return ok;
}

}  // namespace caf2::obs
