#include "obs/export.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "support/bench_io.hpp"

namespace caf2::obs {

namespace {

/// Append printf-style text; one call renders at most 255 bytes, so text
/// of unbounded length (labels, names) is appended directly.
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

constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w")), out_(&buffer_) {
  if (file_ == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    ok_ = false;
  }
  buffer_.reserve(kChunkBytes + 1024);
}

ChromeTraceWriter::ChromeTraceWriter(std::string& out) : out_(&out) {}

void ChromeTraceWriter::raw(std::string_view text) {
  out_->append(text);
  spill();
}

void ChromeTraceWriter::events(const Capture& capture, int pid,
                               const std::string& process_name) {
  first_ = true;
  metadata(pid, -1, "process_name", process_name);
  for (int image = 0; image < capture.images; ++image) {
    char label[64];
    std::snprintf(label, sizeof label, "image %d", image);
    metadata(pid, image, "thread_name", label);
  }
  metadata(pid, capture.images, "thread_name", "network");
  for (int image = 0; image < capture.images; ++image) {
    for (const Span& s : capture.image_track(image).spans) {
      span(s, pid, image);
    }
  }
  for (const Span& s : capture.net_track().spans) {
    span(s, pid, capture.images);
  }
}

bool ChromeTraceWriter::close() {
  if (file_ == nullptr) {
    return ok_;
  }
  flush_buffer();
  if (std::fclose(file_) != 0) {
    ok_ = false;
  }
  file_ = nullptr;
  if (!ok_) {
    std::fprintf(stderr, "obs: error writing %s\n", path_.c_str());
  }
  return ok_;
}

void ChromeTraceWriter::separator() {
  if (!first_) {
    out_->append(",\n");
  }
  first_ = false;
}

void ChromeTraceWriter::span(const Span& span, int pid, int tid) {
  separator();
  std::string& out = *out_;
  out += "{\"name\": \"";
  out += to_string(span.kind);
  if (const char* label = span.label(); label != nullptr) {
    out += ':';
    json_escape_append(out, label);
  }
  appendf(out, "\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, ", pid, tid);
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
  spill();
}

void ChromeTraceWriter::metadata(int pid, int tid, const char* what,
                                 std::string_view name) {
  separator();
  std::string& out = *out_;
  appendf(out, "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, ", what,
          pid);
  if (tid >= 0) {
    appendf(out, "\"tid\": %d, ", tid);
  }
  out += "\"args\": {\"name\": \"";
  json_escape_append(out, name);
  out += "\"}}";
  spill();
}

void ChromeTraceWriter::spill() {
  if (out_ == &buffer_ && buffer_.size() >= kChunkBytes) {
    flush_buffer();
  }
}

void ChromeTraceWriter::flush_buffer() {
  if (file_ != nullptr && !buffer_.empty() &&
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_) != buffer_.size()) {
    ok_ = false;
  }
  buffer_.clear();
}

std::string to_chrome_trace(const Capture& capture, int pid,
                            const std::string& process_name) {
  std::string out;
  ChromeTraceWriter writer(out);
  writer.raw("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  writer.events(capture, pid, process_name);
  writer.raw("\n]}\n");
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
        out += " label=";
        out += label;
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
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool ok = std::fclose(f) == 0 && written;
  if (!ok) {
    std::fprintf(stderr, "obs: error writing %s\n", path.c_str());
  }
  return ok;
}

}  // namespace caf2::obs
