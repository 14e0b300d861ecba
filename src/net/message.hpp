#pragma once

/// \file message.hpp
/// Wire messages of the simulated interconnect.
///
/// Every cross-image effect in caf2 travels as a Message: spawned functions,
/// asynchronous-copy data, collective tree stages, event notifications, and
/// finish-detection reductions. A message carries:
///  - routing (source/destination world ranks, active-message handler id);
///  - the finish-accounting envelope (which finish scope the message is
///    charged to and the sender's epoch parity — paper Fig. 7 passes
///    `fromOddEpoch` to every message handler);
///  - an opaque payload (marshalled arguments or raw data).

#include <cstdint>
#include <vector>

namespace caf2::net {

/// Active-message handler identifier; the runtime registers handlers in a
/// dispatch table (GASNet-style).
using HandlerId = std::uint32_t;

/// Identifies a finish scope: (team id, per-team finish sequence number).
/// Messages sent outside any finish scope carry team == kNoFinishTeam.
struct FinishKey {
  std::int32_t team = -1;
  std::uint32_t seq = 0;

  static constexpr std::int32_t kNoFinishTeam = -1;

  bool valid() const { return team != kNoFinishTeam; }
  bool operator==(const FinishKey&) const = default;
};

struct MessageHeader {
  int source = -1;                  ///< world rank of the sending image
  int dest = -1;                    ///< world rank of the destination image
  HandlerId handler = 0;

  /// Finish accounting envelope, stamped only by rt::Image::send and
  /// send_staged: `tracked` holds exactly when `finish` is valid. Tracked
  /// messages update the four epoch counters on both end points; the
  /// detection allreduce itself and event notifications are untracked.
  FinishKey finish{};
  bool tracked = false;
  bool from_odd_epoch = false;      ///< sender's epoch parity at initiation
};

struct Message {
  MessageHeader header;
  std::vector<std::uint8_t> payload;

  std::size_t size_bytes() const { return payload.size(); }
};

}  // namespace caf2::net
