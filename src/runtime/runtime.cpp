#include "runtime/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include "obs/blame.hpp"
#include "sim/participant.hpp"

namespace caf2::rt {

namespace {
// The current image/runtime live in engine context slots, not raw
// thread_locals: with the fiber backend many images share one OS thread and
// the engine swaps slot contents on every fiber switch (sim/engine.hpp,
// ExecContext). Slot 0: Image*, slot 1: Runtime*.
constexpr int kImageSlot = 0;
constexpr int kRuntimeSlot = 1;

Image* current_image_slot() {
  return static_cast<Image*>(sim::Engine::context_slot(kImageSlot));
}

Runtime* current_runtime_slot() {
  return static_cast<Runtime*>(sim::Engine::context_slot(kRuntimeSlot));
}

void set_current(Image* image, Runtime* runtime) {
  sim::Engine::context_slot(kImageSlot) = image;
  sim::Engine::context_slot(kRuntimeSlot) = runtime;
}

/// Exit rendezvous: images leave the SPMD body collectively so that no image
/// tears down while teammates still expect its participation (a runtime
/// service, not a modeled collective).
///
/// A bare shared counter would be read at real-time-racy moments on a
/// multi-shard engine: an image polled awake on one shard could observe
/// arrivals another shard made "in the future" of its own virtual clock,
/// making the final wake times — and thus schedule digests and
/// context-switch counts — differ between identically-seeded runs. The gate
/// is therefore event-driven: arrivals funnel to image 0 as engine events
/// one wire latency later, at every shard count, and the completed count
/// releases each image through a per-image flag that only a call running at
/// that image touches, so every predicate read is a deterministic function
/// of virtual time.
struct ExitGate {
  int expected = 0;
  int collected = 0;  ///< arrivals seen at image 0
  std::unique_ptr<bool[]> released;  ///< per image
};
}  // namespace

Image& Image::current() {
  Image* image = current_image_slot();
  CAF2_REQUIRE(image != nullptr,
               "no current image: this call must run on an image context");
  return *image;
}

Runtime& Runtime::current() {
  Runtime* runtime = current_runtime_slot();
  CAF2_REQUIRE(runtime != nullptr,
               "no current runtime: this call must run on an image context");
  return *runtime;
}

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  CAF2_REQUIRE(options_.num_images > 0, "need at least one image");
  sim::EngineOptions engine_options;
  engine_options.max_events = options_.max_events;
  engine_options.label = options_.label;
  engine_options.watchdog_quiet_us = options_.watchdog_quiet_us;
  engine_options.shards = options_.shards;
  // The conservative lookahead for sharded execution is the network's wire
  // latency: a cross-shard delivery can never land earlier than one latency
  // after its send (net/network.hpp). Reliable delivery and obs span capture
  // both run sharded too (per-image protocol cells and span-id counters,
  // DESIGN.md §4.12); only a zero-latency "instant" network still forces the
  // engine back to one shard, because it leaves no positive lookahead.
  engine_options.lookahead_us = options_.net.latency_us;
  engine_ = std::make_unique<sim::Engine>(options_.num_images,
                                          std::move(engine_options));
  network_ = std::make_unique<net::Network>(*engine_, options_.net,
                                            SplitMix64(options_.seed).child(0));
  if (options_.obs.enabled) {
    // The recorder appends an image's network spans to its engine shard's
    // lane, so shards never share a buffer; span ids and the capture's
    // net-track order do not depend on this partition.
    std::vector<int> lane_of_image(
        static_cast<std::size_t>(options_.num_images));
    for (int image = 0; image < options_.num_images; ++image) {
      lane_of_image[static_cast<std::size_t>(image)] =
          engine_->shard_of(image);
    }
    observer_ = std::make_unique<obs::Recorder>(options_.num_images,
                                                options_.obs, lane_of_image);
    engine_->set_observer(observer_.get());
    network_->set_observer(observer_.get());
  }
  if (options_.obs.flight_recorder) {
    // Each ring holds exactly the tail a postmortem embeds: fill_postmortem
    // is its only reader.
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(
        options_.num_images, obs::kPostmortemRecentEvents);
    network_->set_flight_recorder(flight_recorder_.get());
  }
  engine_->set_postmortem_collector(
      [this](obs::Postmortem& pm) { fill_postmortem(pm); });
  SplitMix64 seeder(options_.seed);
  auto world_members = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(options_.num_images));
  std::iota(world_members->begin(), world_members->end(), 0);
  images_.reserve(static_cast<std::size_t>(options_.num_images));
  for (int rank = 0; rank < options_.num_images; ++rank) {
    images_.push_back(std::make_unique<Image>(
        *this, rank, seeder.child(static_cast<std::uint64_t>(rank) + 1),
        world_members));
  }
  network_->set_tracked_ack([this](const net::MessageHeader& header) {
    image(header.source).finish_ack(header);
  });
}

Runtime::~Runtime() = default;

std::shared_ptr<const obs::Capture> Runtime::take_capture() {
  if (observer_ == nullptr) {
    return nullptr;
  }
  return std::make_shared<const obs::Capture>(
      observer_->take(engine_->now()));
}

void Runtime::set_handler(net::HandlerId id, HandlerFn fn) {
  CAF2_REQUIRE(id < handlers_.size(),
               "handler id " + std::to_string(id) + " is outside the table");
  handlers_[id] = std::move(fn);
}

const HandlerFn& Runtime::handler(net::HandlerId id) const {
  CAF2_ASSERT(id < handlers_.size() && handlers_[id],
              "no handler installed for id " + std::to_string(id));
  return handlers_[id];
}

void Runtime::run(const std::function<void()>& body) {
  CAF2_REQUIRE(!ran_, "Runtime::run() may only be called once");
  ran_ = true;

  auto gate = std::make_shared<ExitGate>();
  gate->expected = num_images();
  gate->released =
      std::make_unique<bool[]>(static_cast<std::size_t>(num_images()));

  engine_->run([this, &body, gate](int id) {
    Image* image = images_[static_cast<std::size_t>(id)].get();
    set_current(image, this);
    try {
      body();
      // Collective exit: wait until every image finished its body so that
      // in-flight messages (e.g. steals landing on an already-done image)
      // still find a live progress engine. The arrival funnels to image 0
      // one wire latency ahead (at least the cross-shard lookahead); the
      // completing arrival fans the release out, again one hop ahead,
      // through per-image flags that only a call at the target image ever
      // writes. Every predicate read below is then a function of virtual
      // time alone.
      sim::Engine* eng = engine_.get();
      const double hop = options_.net.latency_us;
      const int n = num_images();
      auto arrive = [gate, eng, hop, n] {
        gate->collected += 1;
        if (gate->collected == gate->expected) {
          for (int rank = 0; rank < n; ++rank) {
            auto release = [gate, eng, rank] {
              gate->released[rank] = true;
              eng->unblock(rank);
            };
            static_assert(sim::InlineFn::stores_inline<decltype(release)>);
            eng->post_for(rank, eng->now() + hop, std::move(release));
          }
        }
      };
      static_assert(sim::InlineFn::stores_inline<decltype(arrive)>);
      eng->post_for(0, eng->now() + hop, std::move(arrive));
      image->wait_for(
          [&] { return gate->released[id]; },
          "exit rendezvous",
          obs::ResourceId{obs::ResourceKind::kExitGate, -1, 0, 0});
      set_current(nullptr, nullptr);
    } catch (const UsageError& e) {
      // Tag escaping exceptions with the faulting image's rank. Usage errors
      // keep their type (callers assert on it); stall failures keep their
      // type *and* their structured postmortem; everything else is a runtime
      // fault.
      set_current(nullptr, nullptr);
      throw UsageError("image " + std::to_string(id) + ": " + e.what());
    } catch (const obs::StallError& e) {
      set_current(nullptr, nullptr);
      throw obs::StallError("image " + std::to_string(id) + ": " + e.what(),
                            e.postmortem());
    } catch (const std::exception& e) {
      set_current(nullptr, nullptr);
      throw FatalError("image " + std::to_string(id) + ": " + e.what());
    } catch (...) {
      set_current(nullptr, nullptr);
      throw FatalError("image " + std::to_string(id) +
                       ": unknown exception escaped the image body");
    }
  });
}

namespace {

/// Satisfier set of one wait-for-graph resource: which images could, by
/// making progress on their own, satisfy it. Conservative over-approximation
/// per resource kind; the caller subtracts finished images and the images
/// currently blocked on the resource itself.
std::vector<int> raw_satisfiers(const obs::ResourceId& resource,
                                const Image& any_image, int num_images) {
  std::vector<int> out;
  switch (resource.kind) {
    case obs::ResourceKind::kNone:
      break;
    case obs::ResourceKind::kOpCompletion:
      // Completion arrives from already-scheduled network events, never from
      // another image's forward progress.
      break;
    case obs::ResourceKind::kEvent:
    case obs::ResourceKind::kExitGate:
      for (int rank = 0; rank < num_images; ++rank) {
        out.push_back(rank);
      }
      break;
    case obs::ResourceKind::kSteal:
      if (resource.owner >= 0) {
        out.push_back(resource.owner);
      }
      break;
    case obs::ResourceKind::kFinish:
    case obs::ResourceKind::kCollective:
    case obs::ResourceKind::kSplit: {
      const auto team = any_image.find_team(static_cast<int>(resource.a));
      if (team != nullptr) {
        out = *team->members;
      } else {
        for (int rank = 0; rank < num_images; ++rank) {
          out.push_back(rank);
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace

void Runtime::fill_postmortem(obs::Postmortem& pm) {
  for (int rank = 0; rank < num_images(); ++rank) {
    Image& img = *images_[static_cast<std::size_t>(rank)];
    if (static_cast<std::size_t>(rank) >= pm.per_image.size()) {
      break;  // engine and runtime image counts always match; belt-and-braces
    }
    obs::PmImage& out = pm.per_image[static_cast<std::size_t>(rank)];
    out.mailbox_pending = network_->mailbox(rank).size();
    out.cofence_scopes = img.cofence_tracker().depth();
    out.outstanding_ops = img.cofence_tracker().current().outstanding();
    out.waits = img.wait_stack();
    std::vector<net::FinishKey> keys;
    keys.reserve(img.finish_states().size());
    for (const auto& [key, state] : img.finish_states()) {
      (void)state;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end(), [](const net::FinishKey& a,
                                           const net::FinishKey& b) {
      return a.team != b.team ? a.team < b.team : a.seq < b.seq;
    });
    for (const net::FinishKey& key : keys) {
      const FinishState& state = img.finish_states().at(key);
      const EpochCounters& even = state.even();
      const EpochCounters& odd = state.odd();
      obs::PmFinishScope scope;
      scope.team = key.team;
      scope.seq = key.seq;
      scope.terminated = state.terminated();
      scope.odd_epoch = state.present_odd();
      scope.rounds = state.rounds();
      scope.even_sent = even.sent;
      scope.even_delivered = even.delivered;
      scope.even_received = even.received;
      scope.even_completed = even.completed;
      scope.odd_sent = odd.sent;
      scope.odd_delivered = odd.delivered;
      scope.odd_received = odd.received;
      scope.odd_completed = odd.completed;
      out.finish.push_back(scope);
    }
    if (flight_recorder_ != nullptr) {
      out.recent = flight_recorder_->recent(rank, obs::kPostmortemRecentEvents);
      out.recorded_total = flight_recorder_->total(rank);
    }
  }
  network_->fill_postmortem(pm.net);

  // Wait-for graph: one edge per wait frame, one node per distinct resource.
  const bool engine_busy = pm.pending_calls > 0;
  std::vector<obs::ResourceId> resources;
  for (int rank = 0; rank < num_images(); ++rank) {
    for (const obs::WaitFrame& frame :
         images_[static_cast<std::size_t>(rank)]->wait_stack()) {
      if (frame.resource.kind == obs::ResourceKind::kNone) {
        continue;
      }
      pm.graph.edges.push_back(
          {rank, frame.resource, frame.reason, frame.since_us});
      if (std::find(resources.begin(), resources.end(), frame.resource) ==
          resources.end()) {
        resources.push_back(frame.resource);
      }
    }
  }
  for (const obs::ResourceId& resource : resources) {
    obs::WaitGraph::Satisfiers sat;
    sat.resource = resource;
    // A resource that already-scheduled engine events can satisfy is
    // "external": the run is still moving, so the resource must not close a
    // cycle. kSplit and kExitGate are pure image-side rendezvous; everything
    // else may be completed by an in-flight delivery, ack, or timer.
    sat.external = engine_busy &&
                   resource.kind != obs::ResourceKind::kSplit &&
                   resource.kind != obs::ResourceKind::kExitGate;
    std::vector<int> candidates =
        raw_satisfiers(resource, *images_[0], num_images());
    for (int rank : candidates) {
      if (rank < 0 || rank >= num_images()) {
        continue;
      }
      // A finished image makes no further progress; an image blocked on this
      // very resource cannot satisfy it either.
      if (static_cast<std::size_t>(rank) < pm.per_image.size() &&
          std::string_view(pm.per_image[static_cast<std::size_t>(rank)].state) ==
              "finished") {
        continue;
      }
      bool waits_on_it = false;
      for (const obs::WaitFrame& frame :
           images_[static_cast<std::size_t>(rank)]->wait_stack()) {
        if (frame.resource == resource) {
          waits_on_it = true;
          break;
        }
      }
      if (waits_on_it) {
        continue;
      }
      // Finish scopes: a member that provably passed the scope contributes
      // nothing more to its termination.
      if (resource.kind == obs::ResourceKind::kFinish &&
          images_[static_cast<std::size_t>(rank)]->finish_scope_passed(
              net::FinishKey{static_cast<int>(resource.a),
                             static_cast<std::uint32_t>(resource.b)})) {
        continue;
      }
      sat.images.push_back(rank);
    }
    pm.graph.resources.push_back(std::move(sat));
  }
  obs::find_cycles(pm.graph, num_images());
  pm.classification = obs::classify(pm.kind, !pm.graph.cycles.empty());

  if (observer_ != nullptr) {
    pm.blame = std::make_shared<const obs::BlameReport>(obs::analyze_blame(
        observer_->snapshot(engine_->now())));
  }
}

obs::Postmortem Runtime::dump_postmortem() {
  return engine_->snapshot_postmortem("on-demand postmortem");
}

}  // namespace caf2::rt
