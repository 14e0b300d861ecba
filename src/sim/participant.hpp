#pragma once

/// \file participant.hpp
/// Convenience wrappers around the calling participant's engine context.
/// These are thin free functions so higher layers (runtime, kernels) don't
/// need to thread an Engine* everywhere.

#include "sim/engine.hpp"

namespace caf2::sim {

/// Engine of the calling participant thread; throws if called elsewhere.
Engine& this_engine();

/// Participant id of the calling thread; throws if called elsewhere.
int this_participant();

/// True when called on a simulated participant thread.
bool on_participant_thread();

}  // namespace caf2::sim
