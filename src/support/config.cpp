#include "support/config.hpp"

#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace caf2 {

bool FaultPlan::active() const { return !scripted.empty() || all.any(); }

namespace {

void validate_probability(double p, const char* what) {
  CAF2_REQUIRE(p >= 0.0 && p <= 1.0,
               std::string("NetworkParams: ") + what +
                   " must be a probability in [0, 1]");
}

void validate_link(const LinkFaults& link) {
  validate_probability(link.drop_probability, "drop_probability");
  validate_probability(link.dup_probability, "dup_probability");
  validate_probability(link.ack_drop_probability, "ack_drop_probability");
  validate_probability(link.delay_probability, "delay_probability");
  CAF2_REQUIRE(link.delay_max_us >= 0.0 && !std::isnan(link.delay_max_us),
               "NetworkParams: fault delay_max_us must be >= 0");
}

}  // namespace

void NetworkParams::validate() const {
  CAF2_REQUIRE(bandwidth_bytes_per_us > 0.0,
               "NetworkParams: bandwidth_bytes_per_us must be > 0 "
               "(use infinity for an instantaneous link)");
  CAF2_REQUIRE(latency_us >= 0.0 && !std::isnan(latency_us),
               "NetworkParams: latency_us must be >= 0");
  CAF2_REQUIRE(jitter_us >= 0.0 && !std::isnan(jitter_us),
               "NetworkParams: jitter_us must be >= 0");
  CAF2_REQUIRE(handler_cost_us >= 0.0 && !std::isnan(handler_cost_us),
               "NetworkParams: handler_cost_us must be >= 0");
  CAF2_REQUIRE(!std::isnan(ack_latency_us),
               "NetworkParams: ack_latency_us must be a number "
               "(negative means 'use latency_us')");
  CAF2_REQUIRE(max_medium_payload > 0,
               "NetworkParams: max_medium_payload must be > 0");

  validate_link(faults.all);
  for (const ScriptedFault& fault : faults.scripted) {
    CAF2_REQUIRE(fault.source >= 0 && fault.dest >= 0,
                 "NetworkParams: scripted fault endpoints must be >= 0");
    CAF2_REQUIRE(fault.nth >= 1,
                 "NetworkParams: scripted fault message ordinal is 1-based");
    CAF2_REQUIRE(fault.attempt >= 0,
                 "NetworkParams: scripted fault attempt must be >= 0 "
                 "(0 = every attempt)");
    CAF2_REQUIRE(fault.delay_us >= 0.0 && !std::isnan(fault.delay_us),
                 "NetworkParams: scripted fault delay_us must be >= 0");
  }

  CAF2_REQUIRE(reliability.backoff >= 1.0 && !std::isnan(reliability.backoff),
               "NetworkParams: reliability backoff must be >= 1");
  CAF2_REQUIRE(reliability.max_attempts >= 1,
               "NetworkParams: reliability max_attempts must be >= 1");
  CAF2_REQUIRE(reliability.rto_us != 0.0 && !std::isnan(reliability.rto_us),
               "NetworkParams: reliability rto_us must be > 0 "
               "(or negative to derive it from the network parameters)");
}

NetworkParams NetworkParams::instant() {
  NetworkParams params;
  params.latency_us = 0.0;
  // Infinite bandwidth => staging is immediate (bytes / inf == 0).
  params.bandwidth_bytes_per_us = std::numeric_limits<double>::infinity();
  params.handler_cost_us = 0.0;
  params.jitter_us = 0.0;
  params.ack_latency_us = 0.0;
  return params;
}

NetworkParams NetworkParams::gemini_like() {
  NetworkParams params;
  params.latency_us = 1.5;
  params.bandwidth_bytes_per_us = 6000.0;
  params.handler_cost_us = 0.3;
  params.jitter_us = 0.2;
  return params;
}

}  // namespace caf2
