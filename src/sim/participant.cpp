#include "sim/participant.hpp"

namespace caf2::sim {

Engine& this_engine() {
  Engine* engine = Engine::current_engine();
  CAF2_REQUIRE(engine != nullptr,
               "this call is only valid on a simulated participant thread");
  return *engine;
}

int this_participant() {
  const int id = Engine::current_id();
  CAF2_REQUIRE(id >= 0,
               "this call is only valid on a simulated participant thread");
  return id;
}

bool on_participant_thread() { return Engine::current_engine() != nullptr; }

}  // namespace caf2::sim
