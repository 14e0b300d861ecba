#pragma once

/// \file slot_pool.hpp
/// Stable-address pool of recycled slots, addressed by a 32-bit index.
///
/// Slots live in fixed-size chunks that never move, so the object in a slot
/// may run (or be read) in place while more slots are acquired. Releasing a
/// slot calls T::reset(), which must free whatever the object owns, and
/// pushes the slot on a free list; the next acquire pops it, so the pool
/// only grows when every slot is in use and high_water() is the peak number
/// in use at once. The engine's Call
/// closures and the network's send records both live in one.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace caf2::sim {

template <class T>
class SlotPool {
 public:
  /// A free slot, whose object owns nothing.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if ((made_ & (kChunk - 1)) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    return made_++;
  }

  T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot & (kChunk - 1)];
  }

  /// Reset the slot's object and recycle the slot.
  void release(std::uint32_t slot) {
    (*this)[slot].reset();
    free_.push_back(slot);
  }

  std::size_t in_use() const { return made_ - free_.size(); }

  /// Slots ever made: the peak of in_use().
  std::size_t high_water() const { return made_; }

 private:
  static constexpr std::uint32_t kChunk = 256;  // a power of two
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t made_ = 0;
};

}  // namespace caf2::sim
