#include "obs/flight_recorder.hpp"

namespace caf2::obs {

const char* to_string(FrKind kind) {
  switch (kind) {
    case FrKind::kSend:
      return "send";
    case FrKind::kDeliver:
      return "deliver";
    case FrKind::kAck:
      return "ack";
    case FrKind::kRetransmit:
      return "retransmit";
    case FrKind::kFaultDrop:
      return "fault-drop";
    case FrKind::kFaultDuplicate:
      return "fault-duplicate";
    case FrKind::kFaultDelay:
      return "fault-delay";
    case FrKind::kFaultAckLoss:
      return "fault-ack-loss";
    case FrKind::kWaitBegin:
      return "wait-begin";
    case FrKind::kWaitEnd:
      return "wait-end";
    case FrKind::kHandler:
      return "handler";
    case FrKind::kEpochOdd:
      return "epoch-odd";
    case FrKind::kEpochFold:
      return "epoch-fold";
  }
  return "?";
}

FlightRecorder::FlightRecorder(int num_images, std::size_t entries_per_image)
    : rings_(static_cast<std::size_t>(num_images < 0 ? 0 : num_images)) {
  shift_ = 3;
  while ((std::size_t{1} << shift_) < entries_per_image) {
    ++shift_;
  }
  mask_ = (std::uint64_t{1} << shift_) - 1;
  // Raw storage: FrEvent is an implicit-lifetime aggregate, so the
  // allocation provides its objects without a store to any of them.
  slab_.reset(static_cast<FrEvent*>(
      ::operator new((rings_.size() << shift_) * sizeof(FrEvent))));
}

std::vector<FrEvent> FlightRecorder::recent(int image,
                                            std::size_t max_n) const {
  const std::size_t index = static_cast<std::size_t>(image);
  const std::uint64_t total = rings_[index].total;
  std::uint64_t count = total < capacity() ? total : capacity();
  if (count > max_n) {
    count = max_n;
  }
  const FrEvent* const ring = slab_.get() + (index << shift_);
  std::vector<FrEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = total - count; i != total; ++i) {
    out.push_back(ring[i & mask_]);
  }
  return out;
}

}  // namespace caf2::obs
