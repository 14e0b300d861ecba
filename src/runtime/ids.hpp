#pragma once

/// \file ids.hpp
/// Well-known active-message handler ids and small key types shared between
/// the runtime and the operation layers.

#include <cstdint>
#include <functional>

#include "net/message.hpp"

namespace caf2::rt {

/// Handler table slots. The ops/core layers install the implementations at
/// runtime startup (Runtime::set_handler), keeping the layering acyclic.
/// Ids index the table directly, so they stay dense below kHandlerCount.
enum Handler : net::HandlerId {
  kHandlerEventNotify = 1,   ///< remote event_notify
  kHandlerSpawn = 2,         ///< function shipping
  kHandlerCopyPut = 3,       ///< async copy payload (put)
  kHandlerCopyGetReq = 4,    ///< async copy get request
  kHandlerCopyGetResp = 5,   ///< async copy get response payload
  kHandlerCopyForward = 6,   ///< third-party copy control
  kHandlerCopyArmPre = 7,    ///< arm a remote predicate event
  kHandlerCopyFire = 8,      ///< remote predicate fired; start the copy
  kHandlerCollective = 9,    ///< asynchronous collective stage
  kHandlerFinishReduce = 10, ///< finish termination-detection reduction
  kHandlerDetector = 11,     ///< baseline termination detectors
  kHandlerCount = 12,        ///< size of the runtime's handler table
};

/// Identifies one collective operation instance on a team. Every image
/// increments the per-team collective sequence number at each collective
/// call; CAF 2.0's SPMD model guarantees members agree on the order.
struct CollKey {
  std::int32_t team = -1;
  std::uint32_t seq = 0;

  bool operator==(const CollKey&) const = default;
  bool operator<(const CollKey& other) const {
    if (team != other.team) {
      return team < other.team;
    }
    return seq < other.seq;
  }
};

}  // namespace caf2::rt

template <>
struct std::hash<caf2::rt::CollKey> {
  std::size_t operator()(const caf2::rt::CollKey& key) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.team))
         << 32) |
        key.seq);
  }
};

template <>
struct std::hash<caf2::net::FinishKey> {
  std::size_t operator()(const caf2::net::FinishKey& key) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.team))
         << 32) |
        key.seq);
  }
};
