#pragma once

/// \file runtime.hpp
/// The Runtime owns the simulation engine, the network, one Image per
/// process image, and the active-message handler table.
///
/// Application code normally does not touch Runtime directly; it calls
/// caf2::run(options, body) (core/caf2.hpp), which installs the standard
/// handlers and executes `body` SPMD on every image.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "runtime/image.hpp"
#include "sim/engine.hpp"
#include "support/config.hpp"

namespace caf2::rt {

/// Active-message handler: runs on the destination image's thread with the
/// message's finish scope pushed; may initiate operations, spawn, and (for
/// shipped functions) block.
using HandlerFn = std::function<void(Image&, net::Message&&)>;

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute \p body SPMD on every image. A runtime can run once. An
  /// exception escaping an image's body (or a handler it runs) propagates
  /// out of run() tagged with the image's rank: caf2::UsageError stays a
  /// UsageError, everything else becomes a caf2::FatalError.
  void run(const std::function<void()>& body);

  /// Fill the runtime-owned sections of a postmortem: per-image mailbox and
  /// cofence state, finish scopes, wait stacks, recent flight-recorder
  /// events, the network section, the wait-for graph with cycle detection,
  /// and (when obs capture is on) a blame summary. Installed as the engine's
  /// postmortem collector; every Engine::fail path calls it.
  void fill_postmortem(obs::Postmortem& pm);

  /// On-demand structured postmortem of the current state — no failure
  /// required. Callable from an image context or between runs.
  obs::Postmortem dump_postmortem();

  /// Runtime of the calling participant thread.
  static Runtime& current();

  const RuntimeOptions& options() const { return options_; }
  sim::Engine& engine() { return *engine_; }
  net::Network& network() { return *network_; }
  Image& image(int rank) { return *images_[static_cast<std::size_t>(rank)]; }
  int num_images() const { return static_cast<int>(images_.size()); }

  /// The observability recorder, or nullptr when ObsConfig::enabled is off.
  /// Instrumentation sites in runtime/, ops/, and kernels/ test this pointer
  /// — that single branch is their whole disabled-mode cost.
  obs::Recorder* observer() { return observer_.get(); }

  /// The always-on flight recorder, or nullptr when
  /// ObsConfig::flight_recorder is off. Record sites test this pointer; a
  /// record is two stores and an increment into a per-image ring.
  obs::FlightRecorder* flight_recorder() { return flight_recorder_.get(); }

  /// Snapshot everything recorded (spans, metrics, drop counters) into an
  /// immutable Capture; nullptr when obs is disabled. Normally called once,
  /// after run(), by caf2::run_stats().
  std::shared_ptr<const obs::Capture> take_capture();

  /// Install or replace an active-message handler.
  void set_handler(net::HandlerId id, HandlerFn fn);
  const HandlerFn& handler(net::HandlerId id) const;

 private:
  RuntimeOptions options_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<obs::Recorder> observer_;
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  std::vector<std::unique_ptr<Image>> images_;
  std::map<net::HandlerId, HandlerFn> handlers_;
  bool ran_ = false;
};

}  // namespace caf2::rt
