#include "obs/postmortem.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <tuple>

#include "support/bench_io.hpp"

namespace caf2::obs {

namespace {

/// printf-append with a stack buffer; identical idiom to export.cpp so all
/// renderers produce the same fixed-precision (and thus byte-deterministic)
/// number formatting.
void appendf(std::string& out, const char* fmt, ...) {
  char stack[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(stack, sizeof stack, fmt, args);
  va_end(args);
  if (n < 0) {
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof stack) {
    out.append(stack, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

bool resource_less(const ResourceId& x, const ResourceId& y) {
  return std::tie(x.kind, x.owner, x.a, x.b) <
         std::tie(y.kind, y.owner, y.a, y.b);
}

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

const char* to_string(FailKind kind) {
  switch (kind) {
    case FailKind::kOnDemand:
      return "on-demand";
    case FailKind::kDeadlock:
      return "deadlock";
    case FailKind::kQuietWatchdog:
      return "quiet-watchdog";
    case FailKind::kRetryCap:
      return "retry-cap";
    case FailKind::kEventBudget:
      return "event-budget";
    case FailKind::kCallbackError:
      return "callback-error";
    case FailKind::kImageError:
      return "image-error";
    case FailKind::kExplicitFail:
      return "explicit-fail";
  }
  return "?";
}

const char* to_string(StallClass c) {
  switch (c) {
    case StallClass::kNotStalled:
      return "not-stalled";
    case StallClass::kDeadlockCycle:
      return "deadlock-cycle";
    case StallClass::kDeadlockNoCycle:
      return "deadlock-no-cycle";
    case StallClass::kStallNoCycle:
      return "stall-no-cycle";
    case StallClass::kLivelockSuspected:
      return "livelock-suspected";
  }
  return "?";
}

StallClass classify(FailKind kind, bool found_cycle) {
  if (found_cycle) {
    return StallClass::kDeadlockCycle;
  }
  switch (kind) {
    case FailKind::kDeadlock:
      return StallClass::kDeadlockNoCycle;
    case FailKind::kQuietWatchdog:
      return StallClass::kStallNoCycle;
    case FailKind::kRetryCap:
    case FailKind::kEventBudget:
      return StallClass::kLivelockSuspected;
    default:
      return StallClass::kNotStalled;
  }
}

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kNone:
      return "untyped";
    case ResourceKind::kEvent:
      return "event";
    case ResourceKind::kOpCompletion:
      return "op-completion";
    case ResourceKind::kFinish:
      return "finish";
    case ResourceKind::kCollective:
      return "collective";
    case ResourceKind::kSplit:
      return "team-split";
    case ResourceKind::kExitGate:
      return "exit-gate";
    case ResourceKind::kSteal:
      return "steal";
  }
  return "?";
}

std::string to_string(const ResourceId& id) {
  std::string out;
  switch (id.kind) {
    case ResourceKind::kNone:
      return "untyped-wait";
    case ResourceKind::kEvent:
      appendf(out, "event#%" PRIu64 "@img%d", id.a, id.owner);
      return out;
    case ResourceKind::kOpCompletion:
      appendf(out, "op-completion@img%d", id.owner);
      return out;
    case ResourceKind::kFinish:
      appendf(out, "finish(team %" PRIu64 ", seq %" PRIu64 ")", id.a, id.b);
      return out;
    case ResourceKind::kCollective:
      appendf(out, "collective(team %" PRIu64 ", seq %" PRIu64 ")", id.a,
              id.b);
      return out;
    case ResourceKind::kSplit:
      appendf(out, "team-split(team %" PRIu64 ", seq %" PRIu64 ")", id.a,
              id.b);
      return out;
    case ResourceKind::kExitGate:
      return "exit-gate";
    case ResourceKind::kSteal:
      appendf(out, "steal@img%d", id.owner);
      return out;
  }
  return "?";
}

void find_cycles(WaitGraph& graph, int num_images) {
  graph.cycles.clear();
  const int num_resources = static_cast<int>(graph.resources.size());
  const int n = num_images + num_resources;
  if (n == 0) {
    return;
  }

  auto resource_index = [&](const ResourceId& id) -> int {
    for (int r = 0; r < num_resources; ++r) {
      if (graph.resources[static_cast<std::size_t>(r)].resource == id) {
        return r;
      }
    }
    return -1;
  };

  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const WaitGraph::Edge& edge : graph.edges) {
    if (edge.resource.kind == ResourceKind::kNone) {
      continue;
    }
    if (edge.waiter < 0 || edge.waiter >= num_images) {
      continue;
    }
    const int r = resource_index(edge.resource);
    if (r < 0) {
      continue;
    }
    adj[static_cast<std::size_t>(edge.waiter)].push_back(num_images + r);
  }
  for (int r = 0; r < num_resources; ++r) {
    const WaitGraph::Satisfiers& sat =
        graph.resources[static_cast<std::size_t>(r)];
    if (sat.external) {
      continue;  // satisfiable without any blocked image acting
    }
    for (int image : sat.images) {
      if (image >= 0 && image < num_images) {
        adj[static_cast<std::size_t>(num_images + r)].push_back(image);
      }
    }
  }

  // Iterative Tarjan SCC.
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  struct Frame {
    int v;
    std::size_t edge;
  };
  std::vector<Frame> dfs;
  int counter = 0;

  for (int root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) {
      continue;
    }
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      const int v = dfs.back().v;
      if (dfs.back().edge == 0) {
        index[static_cast<std::size_t>(v)] = counter;
        low[static_cast<std::size_t>(v)] = counter;
        ++counter;
        stack.push_back(v);
        on_stack[static_cast<std::size_t>(v)] = 1;
      }
      bool descended = false;
      while (dfs.back().edge < adj[static_cast<std::size_t>(v)].size()) {
        const int w =
            adj[static_cast<std::size_t>(v)][dfs.back().edge];
        ++dfs.back().edge;
        if (index[static_cast<std::size_t>(w)] == -1) {
          dfs.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(v)] =
              std::min(low[static_cast<std::size_t>(v)],
                       index[static_cast<std::size_t>(w)]);
        }
      }
      if (descended) {
        continue;
      }
      if (low[static_cast<std::size_t>(v)] ==
          index[static_cast<std::size_t>(v)]) {
        std::vector<int> scc;
        for (;;) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          scc.push_back(w);
          if (w == v) {
            break;
          }
        }
        if (scc.size() >= 2) {
          WaitGraph::Cycle cycle;
          for (int w : scc) {
            if (w < num_images) {
              cycle.images.push_back(w);
            } else {
              cycle.resources.push_back(
                  graph.resources[static_cast<std::size_t>(w - num_images)]
                      .resource);
            }
          }
          if (!cycle.images.empty() && !cycle.resources.empty()) {
            std::sort(cycle.images.begin(), cycle.images.end());
            std::sort(cycle.resources.begin(), cycle.resources.end(),
                      resource_less);
            graph.cycles.push_back(std::move(cycle));
          }
        }
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        low[static_cast<std::size_t>(dfs.back().v)] =
            std::min(low[static_cast<std::size_t>(dfs.back().v)],
                     low[static_cast<std::size_t>(v)]);
      }
    }
  }
  std::sort(graph.cycles.begin(), graph.cycles.end(),
            [](const WaitGraph::Cycle& x, const WaitGraph::Cycle& y) {
              return x.images < y.images;
            });
}

namespace {

/// The network section of to_text().
std::string network_section_text(const PmNetwork& net) {
  std::string out = "network: reliable delivery ";
  out += net.reliable ? "on" : "off";
  if (!net.reliable) {
    out += "\n";
    return out;
  }
  appendf(out, ", %zu in-flight message%s\n", net.inflight_total,
          net.inflight_total == 1 ? "" : "s");
  for (const PmFlight& f : net.inflight) {
    appendf(out,
            "  flight %d->%d seq %" PRIu64 " attempt %d/%d handler %d %" PRIu64
            " B first-sent t=%.6f us rto %.6f us\n",
            f.source, f.dest, f.seq, f.attempts, f.max_attempts, f.handler,
            f.bytes, f.first_sent_us, f.rto_us);
  }
  if (net.inflight_total > net.inflight.size()) {
    appendf(out, "  ... %zu more\n", net.inflight_total - net.inflight.size());
  }
  appendf(out,
          "fault stats: drops=%" PRIu64 " dups=%" PRIu64 " delays=%" PRIu64
          " ack_drops=%" PRIu64 " retransmits=%" PRIu64
          " dups_suppressed=%" PRIu64 " scripted=%" PRIu64 "\n",
          net.faults.deliveries_dropped, net.faults.deliveries_duplicated,
          net.faults.deliveries_delayed, net.faults.acks_dropped,
          net.faults.retransmits, net.faults.duplicates_suppressed,
          net.faults.scripted_applied);
  return out;
}

/// The per-image runtime state + network sections of to_text().
std::string runtime_sections_text(const Postmortem& pm) {
  std::string out;
  for (const PmImage& img : pm.per_image) {
    appendf(out,
            "image %d: mailbox pending=%" PRIu64 " cofence scopes=%" PRIu64
            " outstanding implicit ops=%" PRIu64 "\n",
            img.rank, img.mailbox_pending, img.cofence_scopes,
            img.outstanding_ops);
    for (const PmFinishScope& f : img.finish) {
      appendf(out,
              "  finish (team %d, seq %u)%s%s rounds=%d even{sent=%" PRIu64
              ", delivered=%" PRIu64 ", received=%" PRIu64
              ", completed=%" PRIu64 "} odd{sent=%" PRIu64
              ", delivered=%" PRIu64 ", received=%" PRIu64
              ", completed=%" PRIu64 "}\n",
              f.team, f.seq, f.terminated ? " terminated" : "",
              f.odd_epoch ? " odd-epoch" : " even-epoch", f.rounds,
              f.even_sent, f.even_delivered, f.even_received,
              f.even_completed, f.odd_sent, f.odd_delivered, f.odd_received,
              f.odd_completed);
    }
    if (img.recorded_total > 0) {
      appendf(out,
              "  recent flight-recorder events (%zu of %" PRIu64
              " recorded):\n",
              img.recent.size(), img.recorded_total);
      for (const FrEvent& e : img.recent) {
        appendf(out, "    t=%.6f us %s", e.t, to_string(e.kind));
        if (e.peer >= 0) {
          appendf(out, " peer=%d", e.peer);
        }
        if (e.a != 0) {
          appendf(out, " a=%" PRIu64, e.a);
        }
        if (e.b != 0) {
          appendf(out, " b=%" PRIu64, e.b);
        }
        if (e.label != nullptr) {
          appendf(out, " [%s]", e.label);
        }
        out += "\n";
      }
    }
  }
  if (pm.net.present) {
    out += network_section_text(pm.net);
  }
  return out;
}

}  // namespace

std::string to_text(const Postmortem& pm) {
  std::string out;
  appendf(out, "%s at t=%.6f us after %" PRIu64 " events\n",
          pm.headline.c_str(), pm.now_us, pm.events);
  appendf(out,
          "engine: label=%s images=%d pending-call-events=%" PRIu64 "\n",
          pm.label.c_str(), pm.images, pm.pending_calls);
  appendf(out, "classification: %s (fail path: %s)\n",
          to_string(pm.classification), to_string(pm.kind));
  out += "participants:\n";
  for (const PmImage& img : pm.per_image) {
    if (img.block_reason.empty()) {
      appendf(out, "  p%d: %s\n", img.rank, img.state);
    } else {
      appendf(out, "  p%d: %s (%s)\n", img.rank, img.state,
              img.block_reason.c_str());
    }
  }
  appendf(out, "wait-for graph: %zu edges, %zu resources\n",
          pm.graph.edges.size(), pm.graph.resources.size());
  for (const WaitGraph::Edge& e : pm.graph.edges) {
    appendf(out, "  image %d waits on %s [%s] since t=%.6f us\n", e.waiter,
            to_string(e.resource).c_str(), e.reason, e.since_us);
  }
  for (const WaitGraph::Satisfiers& s : pm.graph.resources) {
    if (s.external) {
      appendf(out, "  %s satisfiable externally (in-flight events)\n",
              to_string(s.resource).c_str());
    } else if (s.images.empty()) {
      appendf(out, "  %s satisfiable by no image\n",
              to_string(s.resource).c_str());
    } else {
      appendf(out, "  %s satisfiable by images {", to_string(s.resource).c_str());
      for (std::size_t i = 0; i < s.images.size(); ++i) {
        appendf(out, "%s%d", i == 0 ? "" : ", ", s.images[i]);
      }
      out += "}\n";
    }
  }
  appendf(out, "cycles detected: %zu\n", pm.graph.cycles.size());
  for (std::size_t c = 0; c < pm.graph.cycles.size(); ++c) {
    const WaitGraph::Cycle& cycle = pm.graph.cycles[c];
    appendf(out, "  cycle %zu: images {", c);
    for (std::size_t i = 0; i < cycle.images.size(); ++i) {
      appendf(out, "%s%d", i == 0 ? "" : ", ", cycle.images[i]);
    }
    out += "} resources {";
    for (std::size_t i = 0; i < cycle.resources.size(); ++i) {
      appendf(out, "%s%s", i == 0 ? "" : ", ",
              to_string(cycle.resources[i]).c_str());
    }
    out += "}\n";
  }
  out += runtime_sections_text(pm);
  if (!pm.collector_error.empty()) {
    appendf(out, "collector error (swallowed): %s\n",
            pm.collector_error.c_str());
  }
  if (pm.blame != nullptr) {
    out += "blame summary:\n";
    out += to_text(*pm.blame);
  }
  return out;
}

std::string to_json(const Postmortem& pm) {
  std::string out = "{";
  appendf(out, "\"kind\": \"%s\", ", to_string(pm.kind));
  appendf(out, "\"classification\": \"%s\", ",
          to_string(pm.classification));
  appendf(out, "\"headline\": \"%s\", ", json_escape(pm.headline).c_str());
  appendf(out, "\"label\": \"%s\", ", json_escape(pm.label).c_str());
  appendf(out, "\"now_us\": %.6f, ", pm.now_us);
  appendf(out, "\"events\": %" PRIu64 ", ", pm.events);
  appendf(out, "\"pending_calls\": %" PRIu64 ", ", pm.pending_calls);
  appendf(out, "\"images\": %d, ", pm.images);
  out += "\"per_image\": [";
  for (std::size_t i = 0; i < pm.per_image.size(); ++i) {
    const PmImage& img = pm.per_image[i];
    if (i != 0) {
      out += ", ";
    }
    out += "{";
    appendf(out, "\"rank\": %d, ", img.rank);
    appendf(out, "\"state\": \"%s\", ", img.state);
    appendf(out, "\"block_reason\": \"%s\", ",
            json_escape(img.block_reason).c_str());
    appendf(out, "\"mailbox_pending\": %" PRIu64 ", ", img.mailbox_pending);
    appendf(out, "\"cofence_scopes\": %" PRIu64 ", ", img.cofence_scopes);
    appendf(out, "\"outstanding_ops\": %" PRIu64 ", ", img.outstanding_ops);
    out += "\"waits\": [";
    for (std::size_t w = 0; w < img.waits.size(); ++w) {
      const WaitFrame& frame = img.waits[w];
      if (w != 0) {
        out += ", ";
      }
      appendf(out,
              "{\"resource\": \"%s\", \"reason\": \"%s\", "
              "\"since_us\": %.6f}",
              json_escape(to_string(frame.resource)).c_str(),
              json_escape(frame.reason).c_str(), frame.since_us);
    }
    out += "], \"finish\": [";
    for (std::size_t f = 0; f < img.finish.size(); ++f) {
      const PmFinishScope& fs = img.finish[f];
      if (f != 0) {
        out += ", ";
      }
      appendf(out,
              "{\"team\": %d, \"seq\": %u, \"terminated\": %s, "
              "\"odd_epoch\": %s, \"rounds\": %d, "
              "\"even\": {\"sent\": %" PRIu64 ", \"delivered\": %" PRIu64
              ", \"received\": %" PRIu64 ", \"completed\": %" PRIu64 "}, "
              "\"odd\": {\"sent\": %" PRIu64 ", \"delivered\": %" PRIu64
              ", \"received\": %" PRIu64 ", \"completed\": %" PRIu64 "}}",
              fs.team, fs.seq, fs.terminated ? "true" : "false",
              fs.odd_epoch ? "true" : "false", fs.rounds, fs.even_sent,
              fs.even_delivered, fs.even_received, fs.even_completed,
              fs.odd_sent, fs.odd_delivered, fs.odd_received,
              fs.odd_completed);
    }
    out += "], \"recent\": [";
    for (std::size_t e = 0; e < img.recent.size(); ++e) {
      const FrEvent& ev = img.recent[e];
      if (e != 0) {
        out += ", ";
      }
      appendf(out,
              "{\"t\": %.6f, \"kind\": \"%s\", \"peer\": %d, "
              "\"a\": %" PRIu64 ", \"b\": %" PRIu64,
              ev.t, to_string(ev.kind), ev.peer, ev.a, ev.b);
      if (ev.label != nullptr) {
        appendf(out, ", \"label\": \"%s\"", json_escape(ev.label).c_str());
      }
      out += "}";
    }
    appendf(out, "], \"recorded_total\": %" PRIu64 "}", img.recorded_total);
  }
  out += "], \"graph\": {\"edges\": [";
  for (std::size_t e = 0; e < pm.graph.edges.size(); ++e) {
    const WaitGraph::Edge& edge = pm.graph.edges[e];
    if (e != 0) {
      out += ", ";
    }
    appendf(out,
            "{\"waiter\": %d, \"resource\": \"%s\", \"reason\": \"%s\", "
            "\"since_us\": %.6f}",
            edge.waiter, json_escape(to_string(edge.resource)).c_str(),
            json_escape(edge.reason).c_str(), edge.since_us);
  }
  out += "], \"resources\": [";
  for (std::size_t r = 0; r < pm.graph.resources.size(); ++r) {
    const WaitGraph::Satisfiers& s = pm.graph.resources[r];
    if (r != 0) {
      out += ", ";
    }
    appendf(out, "{\"resource\": \"%s\", \"external\": %s, \"images\": [",
            json_escape(to_string(s.resource)).c_str(),
            s.external ? "true" : "false");
    for (std::size_t i = 0; i < s.images.size(); ++i) {
      appendf(out, "%s%d", i == 0 ? "" : ", ", s.images[i]);
    }
    out += "]}";
  }
  out += "], \"cycles\": [";
  for (std::size_t c = 0; c < pm.graph.cycles.size(); ++c) {
    const WaitGraph::Cycle& cycle = pm.graph.cycles[c];
    if (c != 0) {
      out += ", ";
    }
    out += "{\"images\": [";
    for (std::size_t i = 0; i < cycle.images.size(); ++i) {
      appendf(out, "%s%d", i == 0 ? "" : ", ", cycle.images[i]);
    }
    out += "], \"resources\": [";
    for (std::size_t i = 0; i < cycle.resources.size(); ++i) {
      appendf(out, "%s\"%s\"", i == 0 ? "" : ", ",
              json_escape(to_string(cycle.resources[i])).c_str());
    }
    out += "]}";
  }
  out += "]}, \"net\": {";
  appendf(out, "\"present\": %s, \"reliable\": %s, \"inflight_total\": %zu, ",
          pm.net.present ? "true" : "false",
          pm.net.reliable ? "true" : "false", pm.net.inflight_total);
  out += "\"inflight\": [";
  for (std::size_t f = 0; f < pm.net.inflight.size(); ++f) {
    const PmFlight& fl = pm.net.inflight[f];
    if (f != 0) {
      out += ", ";
    }
    appendf(out,
            "{\"source\": %d, \"dest\": %d, \"seq\": %" PRIu64
            ", \"ordinal\": %" PRIu64 ", \"attempts\": %d, "
            "\"max_attempts\": %d, \"handler\": %d, \"bytes\": %" PRIu64
            ", \"first_sent_us\": %.6f, \"rto_us\": %.6f}",
            fl.source, fl.dest, fl.seq, fl.ordinal, fl.attempts,
            fl.max_attempts, fl.handler, fl.bytes, fl.first_sent_us,
            fl.rto_us);
  }
  appendf(out,
          "], \"faults\": {\"drops\": %" PRIu64 ", \"dups\": %" PRIu64
          ", \"delays\": %" PRIu64 ", \"ack_drops\": %" PRIu64
          ", \"retransmits\": %" PRIu64 ", \"dups_suppressed\": %" PRIu64
          ", \"scripted\": %" PRIu64 "}}, ",
          pm.net.faults.deliveries_dropped,
          pm.net.faults.deliveries_duplicated,
          pm.net.faults.deliveries_delayed, pm.net.faults.acks_dropped,
          pm.net.faults.retransmits, pm.net.faults.duplicates_suppressed,
          pm.net.faults.scripted_applied);
  appendf(out, "\"collector_error\": \"%s\", ",
          json_escape(pm.collector_error).c_str());
  if (pm.blame != nullptr) {
    appendf(out,
            "\"blame\": {\"critical_path_us\": %.6f, "
            "\"critical_path_hops\": %" PRIu64
            ", \"critical_path_image\": %d, \"finish_rounds_max\": %" PRIu64
            ", \"retransmit_us\": %.6f}",
            pm.blame->critical_path_us, pm.blame->critical_path_hops,
            pm.blame->critical_path_image, pm.blame->finish_rounds_max,
            pm.blame->retransmit_us);
  } else {
    out += "\"blame\": null";
  }
  out += "}";
  return out;
}

std::string wait_graph_to_dot(const Postmortem& pm) {
  // Cycle membership, for highlighting.
  std::vector<char> image_in_cycle(
      static_cast<std::size_t>(pm.images < 0 ? 0 : pm.images), 0);
  auto resource_in_cycle = [&](const ResourceId& id) {
    for (const WaitGraph::Cycle& cycle : pm.graph.cycles) {
      for (const ResourceId& r : cycle.resources) {
        if (r == id) {
          return true;
        }
      }
    }
    return false;
  };
  for (const WaitGraph::Cycle& cycle : pm.graph.cycles) {
    for (int image : cycle.images) {
      if (image >= 0 &&
          static_cast<std::size_t>(image) < image_in_cycle.size()) {
        image_in_cycle[static_cast<std::size_t>(image)] = 1;
      }
    }
  }

  // Only images that participate in the graph get nodes.
  std::vector<int> images;
  for (const WaitGraph::Edge& e : pm.graph.edges) {
    images.push_back(e.waiter);
  }
  for (const WaitGraph::Satisfiers& s : pm.graph.resources) {
    images.insert(images.end(), s.images.begin(), s.images.end());
  }
  std::sort(images.begin(), images.end());
  images.erase(std::unique(images.begin(), images.end()), images.end());

  std::string out = "digraph waitfor {\n  rankdir=LR;\n";
  for (int image : images) {
    std::string label;
    appendf(label, "image %d", image);
    if (image >= 0 && static_cast<std::size_t>(image) < pm.per_image.size()) {
      const PmImage& img = pm.per_image[static_cast<std::size_t>(image)];
      if (!img.block_reason.empty()) {
        label += "\\n";
        label += dot_escape(img.block_reason);
      }
    }
    const bool hot = image >= 0 &&
                     static_cast<std::size_t>(image) < image_in_cycle.size() &&
                     image_in_cycle[static_cast<std::size_t>(image)] != 0;
    appendf(out, "  img%d [shape=box, label=\"%s\"%s];\n", image,
            label.c_str(), hot ? ", color=red, penwidth=2" : "");
  }
  for (std::size_t r = 0; r < pm.graph.resources.size(); ++r) {
    const WaitGraph::Satisfiers& s = pm.graph.resources[r];
    std::string label = dot_escape(to_string(s.resource));
    if (s.external) {
      label += "\\n(external)";
    }
    appendf(out, "  res%zu [shape=ellipse, label=\"%s\"%s];\n", r,
            label.c_str(),
            resource_in_cycle(s.resource) ? ", color=red, penwidth=2" : "");
  }
  auto resource_index = [&](const ResourceId& id) -> int {
    for (std::size_t r = 0; r < pm.graph.resources.size(); ++r) {
      if (pm.graph.resources[r].resource == id) {
        return static_cast<int>(r);
      }
    }
    return -1;
  };
  for (const WaitGraph::Edge& e : pm.graph.edges) {
    const int r = resource_index(e.resource);
    if (r < 0) {
      continue;
    }
    appendf(out, "  img%d -> res%d [label=\"%s\"];\n", e.waiter, r,
            dot_escape(e.reason).c_str());
  }
  for (std::size_t r = 0; r < pm.graph.resources.size(); ++r) {
    const WaitGraph::Satisfiers& s = pm.graph.resources[r];
    if (s.external) {
      continue;
    }
    for (int image : s.images) {
      appendf(out, "  res%zu -> img%d [style=dashed];\n", r, image);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace caf2::obs
