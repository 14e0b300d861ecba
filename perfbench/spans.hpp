#pragma once

/// \file spans.hpp
/// Host-clock span recorder for the benchmark's traced run.
///
/// Spans are named `<layer>.<call>` after the caf2 layer whose public
/// function they wrap (`runtime.run_stats`, `core.finish`, `ops.copy_async`,
/// `kernels.uts_run`, ...). They are recorded only from the benchmark's own
/// files, around calls into the library; nothing inside src/ is touched.
///
/// Each simulated image records into its own lane (lane = image + 1; lane 0
/// is the main thread), so image code needs no lock: an image only ever
/// runs on its home shard's thread. A span's parent is the innermost open
/// span of its lane, or, for an image's outermost span, the main-thread span open
/// around the run_stats() call that hosts it. Spans stay in memory until
/// write_json() at the end of the run; self time (duration minus the union
/// of the child spans inside it) is computed then.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host clock in nanoseconds.
std::int64_t host_ns();

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;  ///< static string, "<layer>.<call>"
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent_lane = -1;  ///< -1 = root span
    std::uint32_t parent_index = 0;
  };

  struct Summary {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  /// \p images simulated images get lanes 1..images.
  explicit SpanRecorder(int images);

  void begin(int lane, const char* name);
  void end(int lane);

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, Summary> summarize() const;

  /// Mean duration (ns) of the spans named \p name; 0 when there are none.
  double mean_ns(const std::string& name) const;

  /// Write every span (with its self time) and the summary as JSON.
  bool write_json(const std::string& path) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
  };

  /// Self time of every span, indexed [lane][span].
  std::vector<std::vector<double>> self_times() const;

  std::vector<Lane> lanes_;
};

/// The recorder spans go to, or nullptr (untraced runs record nothing).
SpanRecorder* active_recorder();
void set_active_recorder(SpanRecorder* recorder);

/// RAII span on the main thread (lane 0) or on a simulated image's lane.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int image = -1)
      : recorder_(active_recorder()), lane_(image + 1) {
    if (recorder_ != nullptr) {
      recorder_->begin(lane_, name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->end(lane_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int lane_;
};

}  // namespace perfbench
