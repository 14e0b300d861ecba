#include "support/bench_io.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace caf2 {

void json_escape_append(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  json_escape_append(out, text);
  return out;
}

namespace {

/// JSON has no Inf/NaN literals; clamp to null.
void print_number(std::FILE* f, double value) {
  if (std::isfinite(value)) {
    std::fprintf(f, "%.17g", value);
  } else {
    std::fputs("null", f);
  }
}

}  // namespace

bool write_bench_json(
    const std::string& path, const std::string& benchmark,
    const std::vector<BenchRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_io: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"%s\",\n  \"schema_version\": %d,\n",
               json_escape(benchmark).c_str(), kBenchSchemaVersion);
  std::fputs("  \"meta\": {", f);
  for (std::size_t i = 0; i < meta.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 json_escape(meta[i].first).c_str(),
                 json_escape(meta[i].second).c_str());
  }
  std::fputs("},\n  \"sweep\": [\n", f);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"wall_seconds\": ",
                 json_escape(r.name).c_str());
    print_number(f, r.wall_seconds);
    std::fprintf(f, ", \"events\": %" PRIu64 ", \"events_per_sec\": ",
                 r.events);
    print_number(f, r.events_per_sec);
    std::fputs(", \"virtual_us\": ", f);
    print_number(f, r.virtual_us);
    if (!r.schedule_digest.empty()) {
      std::fprintf(f, ", \"schedule_digest\": \"%s\"",
                   json_escape(r.schedule_digest).c_str());
    }
    for (const auto& [key, value] : r.metrics) {
      std::fprintf(f, ", \"%s\": ", json_escape(key).c_str());
      print_number(f, value);
    }
    std::fprintf(f, "}%s\n", i + 1 == records.size() ? "" : ",");
  }
  std::fputs("  ]\n}\n", f);
  const bool ok = std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "bench_io: error closing %s\n", path.c_str());
  }
  return ok;
}

}  // namespace caf2
