/// Forced deadlock, diagnosed: every image waits on an event that nobody
/// will ever post, the engine's heap-empty deadlock detector fires, and the
/// structured postmortem (obs::Postmortem, DESIGN.md §4.10) names the exact
/// wait-for cycle. The three renderings are written to <out>.txt, <out>.json
/// and <out>.dot so CI can archive them as artifacts.
///
/// Usage: deadlock_postmortem [--images=N] [--out=prefix]
///
/// Exits 0 only when the run deadlocked as intended AND the postmortem's
/// wait-for graph contains at least one cycle naming every image — this is
/// the acceptance check for the diagnosis subsystem at scale (CI runs it at
/// 512 images under the fiber backend).

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "core/caf2.hpp"
#include "obs/postmortem.hpp"

namespace {

using namespace caf2;

void spmd_main() {
  team_barrier(team_world());
  // Every image now blocks on its own never-posted event. Once the barrier
  // traffic drains, no message or timer is left in flight: a true deadlock,
  // not a slow network.
  Event never;
  never.wait();
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  int images = 4;
  std::string out = "postmortem";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--images=", 0) == 0) {
      images = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--images=N] [--out=prefix]\n", argv[0]);
      return 2;
    }
  }
  if (images < 2) {
    std::fprintf(stderr, "--images must be >= 2\n");
    return 2;
  }

  RuntimeOptions options;
  options.num_images = images;
  options.net = NetworkParams::gemini_like();
  options.label = "deadlock_postmortem";

  std::shared_ptr<const obs::Postmortem> pm;
  try {
    run(options, spmd_main);
    std::fprintf(stderr, "unexpected: the run completed without deadlocking\n");
    return 1;
  } catch (const obs::StallError& e) {
    pm = e.postmortem();
    std::printf("run failed as intended: %s\n",
                std::string(e.what()).substr(0, 120).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (pm == nullptr) {
    std::fprintf(stderr, "StallError carried no postmortem\n");
    return 1;
  }

  if (!write_file(out + ".txt", obs::to_text(*pm)) ||
      !write_file(out + ".json", obs::to_json(*pm)) ||
      !write_file(out + ".dot", obs::wait_graph_to_dot(*pm))) {
    return 1;
  }
  std::printf("wrote %s.txt %s.json %s.dot\n", out.c_str(), out.c_str(),
              out.c_str());

  // Acceptance: a deadlock-classified postmortem whose cycle names every
  // image (they all wait in one strongly connected component here).
  if (pm->kind != obs::FailKind::kDeadlock ||
      pm->classification != obs::StallClass::kDeadlockCycle) {
    std::fprintf(stderr, "postmortem not classified as a deadlock cycle\n");
    return 1;
  }
  if (pm->graph.cycles.empty()) {
    std::fprintf(stderr, "no cycle in the wait-for graph\n");
    return 1;
  }
  std::size_t largest = 0;
  for (const obs::WaitGraph::Cycle& cycle : pm->graph.cycles) {
    largest = std::max(largest, cycle.images.size());
  }
  if (largest != static_cast<std::size_t>(images)) {
    std::fprintf(stderr, "largest cycle names %zu of %d images\n", largest,
                 images);
    return 1;
  }
  std::printf("postmortem names the full %d-image wait cycle: OK\n", images);
  return 0;
}
