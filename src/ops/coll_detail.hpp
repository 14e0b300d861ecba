#pragma once

/// \file coll_detail.hpp
/// Internal machinery shared by the collective schedules (coll_algo_*.cpp)
/// and the distributed sort (sort.cpp). Not public API.

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "ops/collectives.hpp"
#include "runtime/image.hpp"

namespace caf2::ops::detail {

inline int ceil_log2(int p) {
  return p <= 1 ? 0 : std::bit_width(static_cast<unsigned>(p - 1));
}

/// memcpy for payloads that may be empty: zero counts are legal in the
/// v-collectives and ring chunks go empty when p exceeds the element count,
/// and empty buffers may have null data pointers, which memcpy forbids.
inline void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes > 0) {
    std::memcpy(dst, src, bytes);
  }
}

/// Per-stage receive buffer for the ring and round-based schedules. Channels
/// are non-FIFO (delivery jitter can reorder same-link messages), so a
/// stage-s payload may arrive before stage s-1's; schedules store by stage
/// number and pump strictly in stage order.
class StageBuffer {
 public:
  void store(int stage, std::vector<std::uint8_t>&& data) {
    const auto index = static_cast<std::size_t>(stage);
    if (index >= has_.size()) {
      data_.resize(index + 1);
      has_.resize(index + 1, false);
    }
    data_[index] = std::move(data);
    has_[index] = true;
  }

  bool has(int stage) const {
    const auto index = static_cast<std::size_t>(stage);
    return index < has_.size() && has_[index];
  }

  std::vector<std::uint8_t>& at(int stage) {
    return data_[static_cast<std::size_t>(stage)];
  }

 private:
  std::vector<std::vector<std::uint8_t>> data_;
  std::vector<bool> has_;
};

/// Common machinery: stage-message sending with staged/ack bookkeeping, the
/// two completion points (local data / local operation), and finish
/// attribution captured at start time.
///
/// start() runs begin() before the caller replays any stage messages that
/// arrived early, so handle() never runs ahead of begin().
class CollImplBase : public rt::CollBase {
 public:
  CollImplBase(rt::CollKey key, CollDesc desc);

  void on_stage(rt::Image& image, rt::CollStageMsg&& msg) override;
  bool finished() const override { return erasable_; }

  /// Entered once, after construction (and before any buffered replay).
  void start(rt::Image& image, const net::FinishKey& finish,
             rt::ImplicitOpPtr op);

 protected:
  /// Kind-specific initiation.
  virtual void begin(rt::Image& image) = 0;
  /// Kind-specific stage-message handling.
  virtual void handle(rt::Image& image, rt::CollStageMsg&& msg) = 0;
  /// Kind-specific: algorithm role of this image is complete.
  virtual bool role_done() const = 0;

  void send_stage(rt::Image& image, int to_team_rank, int stage,
                  const void* data, std::size_t bytes);

  /// Local data completion (paper Fig. 4); with \p after_stages the mark is
  /// deferred until every outgoing stage has been injected.
  void mark_data_done(rt::Image& image, bool after_stages = false);

  void try_complete(rt::Image& image);

  const CollDesc& desc() const { return desc_; }
  int team_rank() const { return desc_.team.rank(); }
  int team_size() const { return desc_.team.size(); }

 private:
  /// A staged/acked callback moved a counter: re-check completion and, if
  /// this was the last event the operation waited for, drop its state.
  void on_send_progress(rt::Image& image);

  rt::CollKey key_;
  CollDesc desc_;
  net::FinishKey finish_{};
  rt::ImplicitOpPtr op_;
  int pending_stage_ = 0;
  int pending_ack_ = 0;
  double begin_us_ = 0.0;  ///< start() time, for the obs collective span
  bool data_done_ = false;
  bool data_after_stages_ = false;
  bool op_done_ = false;
  bool erasable_ = false;
};

/// Schedule-family factories, one translation unit per family. Each
/// switches on desc.kind for the kinds its schedule covers; desc.algorithm
/// is already resolved to one of the family's values.
///   tree    kBinomialTree, kKnomialTree (coll_algo_tree.cpp)
///   ring    kRing (coll_algo_ring.cpp)
///   rounds  kRecursiveDoubling, kDissemination (coll_algo_rd.cpp)
///   direct  kDirect (coll_algo_direct.cpp; sort.cpp for kSort)
std::unique_ptr<CollImplBase> make_tree_impl(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_ring_impl(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_rounds_impl(rt::CollKey key,
                                               CollDesc desc);
std::unique_ptr<CollImplBase> make_direct_impl(rt::CollKey key,
                                               CollDesc desc);
std::unique_ptr<CollImplBase> make_sort_impl(rt::CollKey key, CollDesc desc);

}  // namespace caf2::ops::detail
