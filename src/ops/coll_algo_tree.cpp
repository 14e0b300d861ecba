#include <algorithm>
#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_tree.cpp
/// Tree-family schedules (DESIGN.md §4.13): one k-nomial tree serves every
/// tree kind, with the radix as its only parameter — 2 for kBinomialTree
/// (the paper's schedule), 4 for kKnomialTree (depth log_4 p at the cost of
/// up to three sends per level per node). supported_algorithms() offers
/// kKnomialTree for broadcast and reduce only.
///
/// Ranks are rotated so desc().root is relative rank 0. A node's parent
/// clears its lowest nonzero base-k digit; its children add j*k^d (j in
/// [1, k)) for every digit position d below that digit. Hence a node's
/// subtree is the contiguous relative-rank range [vr, vr + span), which is
/// what lets gather and scatter move one contiguous block per tree edge.
///
/// Every kind is an up phase (children -> parent, kStageUp), a down phase
/// (parent -> children, kStageDown), or both:
///   reduce     up: combine            broadcast  down: whole buffer
///   gather     up: concatenate        scatter    down: subtree slice
///   allreduce  up + down (rooted at team rank 0)
///   barrier    up + down with zero-byte tokens (rooted at team rank 0)
/// A release is causally ordered after the node's own up message, so it can
/// never arrive before the up phase is done.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

constexpr int kStageUp = 0;
constexpr int kStageDown = 1;

bool has_up_phase(CollKind kind) {
  return kind == CollKind::kReduce || kind == CollKind::kGather ||
         kind == CollKind::kAllreduce || kind == CollKind::kBarrier;
}

bool has_down_phase(CollKind kind) {
  return kind == CollKind::kBroadcast || kind == CollKind::kScatter ||
         kind == CollKind::kAllreduce || kind == CollKind::kBarrier;
}

class TreeImpl final : public CollImplBase {
 public:
  TreeImpl(rt::CollKey key, CollDesc desc)
      : CollImplBase(key, std::move(desc)),
        radix_(this->desc().algorithm == CollAlgorithm::kKnomialTree ? 4 : 2),
        p_(team_size()),
        vr_((team_rank() - this->desc().root + p_) % p_),
        up_done_(!has_up_phase(this->desc().kind)),
        down_done_(!has_down_phase(this->desc().kind)) {
    // Children in ascending order: digit position first, then digit value.
    for (long pw = 1; pw < span_digit(vr_) && pw < p_; pw *= radix_) {
      for (int j = 1; j < radix_ && vr_ + j * pw < p_; ++j) {
        children_.push_back(vr_ + j * static_cast<int>(pw));
      }
    }
  }

 protected:
  void begin(Image& image) override {
    const CollKind kind = desc().kind;
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    if (kind == CollKind::kReduce || kind == CollKind::kAllreduce) {
      acc_.assign(in, in + desc().bytes);
    } else if (kind == CollKind::kGather) {
      acc_.resize(static_cast<std::size_t>(span(vr_)) * desc().bytes);
      std::copy_n(in, desc().bytes, acc_.begin());
    } else if (kind == CollKind::kScatter && vr_ == 0) {
      // Relative-rank order: the root's chunk first.
      acc_.resize(static_cast<std::size_t>(p_) * desc().bytes2);
      std::rotate_copy(
          in, in + static_cast<std::size_t>(desc().root) * desc().bytes2,
          in + acc_.size(), acc_.begin());
    }
    if (!up_done_) {
      if (vr_ != 0 && down_done_) {
        mark_data_done(image);  // inputs captured; user buffer reusable
      }
      try_up(image);
    } else if (vr_ == 0) {
      release(image, kind == CollKind::kScatter ? acc_.data() : in);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (msg.stage == kStageDown) {
      CAF2_ASSERT(up_done_, "tree released before its subtree arrived");
      CAF2_ASSERT(msg.data.size() == down_bytes(vr_),
                  "tree release size mismatch");
      release(image, msg.data.data());
      return;
    }
    const int from = (msg.from_team_rank - desc().root + p_) % p_;
    CAF2_ASSERT(msg.data.size() == up_bytes(from), "tree up size mismatch");
    if (desc().kind == CollKind::kGather) {
      std::copy(msg.data.begin(), msg.data.end(),
                acc_.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(from - vr_) *
                                   desc().bytes));
    } else if (!msg.data.empty()) {
      desc().reducer.combine(acc_.data(), msg.data.data(),
                             msg.data.size() / desc().reducer.elem_size);
    }
    ++got_;
    try_up(image);
  }

  bool role_done() const override { return up_done_ && down_done_; }

 private:
  /// k^(position of vr's lowest nonzero digit); p for the root.
  long span_digit(int vr) const {
    if (vr == 0) {
      return p_;
    }
    long low = 1;
    while ((vr / low) % radix_ == 0) {
      low *= radix_;
    }
    return low;
  }
  /// Size of vr's subtree: relative ranks [vr, vr + span(vr)).
  int span(int vr) const {
    return static_cast<int>(std::min<long>(span_digit(vr), p_ - vr));
  }
  int parent() const {
    const long low = span_digit(vr_);
    return vr_ - static_cast<int>((vr_ / low) % radix_ * low);
  }
  int team_rank_of(int vr) const { return (vr + desc().root) % p_; }

  /// Payload a node sends up / receives down.
  std::size_t up_bytes(int vr) const {
    return desc().kind == CollKind::kGather
               ? static_cast<std::size_t>(span(vr)) * desc().bytes
               : desc().bytes;
  }
  std::size_t down_bytes(int vr) const {
    return desc().kind == CollKind::kScatter
               ? static_cast<std::size_t>(span(vr)) * desc().bytes2
               : desc().bytes;
  }

  void try_up(Image& image) {
    if (up_done_ || got_ < static_cast<int>(children_.size())) {
      return;
    }
    up_done_ = true;
    if (vr_ != 0) {
      send_stage(image, team_rank_of(parent()), kStageUp, acc_.data(),
                 acc_.size());
      return;
    }
    switch (desc().kind) {
      case CollKind::kReduce:
        std::copy(acc_.begin(), acc_.end(),
                  static_cast<std::uint8_t*>(desc().buf));
        mark_data_done(image);
        break;
      case CollKind::kGather:
        // Back from relative-rank order to team-rank order.
        std::rotate_copy(
            acc_.begin(),
            acc_.begin() + static_cast<std::ptrdiff_t>(
                               static_cast<std::size_t>(p_ - desc().root) *
                               desc().bytes),
            acc_.end(), static_cast<std::uint8_t*>(desc().buf2));
        mark_data_done(image);
        break;
      default:  // allreduce, barrier: the root turns the result around
        release(image, acc_.data());
        break;
    }
  }

  /// Down phase: \p block is this node's subtree data (the whole buffer
  /// for broadcast/allreduce, the subtree's chunks for scatter).
  void release(Image& image, const std::uint8_t* block) {
    down_done_ = true;
    const bool slices = desc().kind == CollKind::kScatter;
    if (slices) {
      std::copy_n(block, desc().bytes2,
                  static_cast<std::uint8_t*>(desc().buf2));
    } else if (block != desc().buf) {
      std::copy_n(block, desc().bytes,
                  static_cast<std::uint8_t*>(desc().buf));
    }
    for (const int child : children_) {
      if (slices) {
        send_stage(image, team_rank_of(child), kStageDown,
                   block + static_cast<std::size_t>(child - vr_) *
                               desc().bytes2,
                   down_bytes(child));
      } else {
        send_stage(image, team_rank_of(child), kStageDown, desc().buf,
                   desc().bytes);
      }
    }
    // A down-only root only reads its buffer: data completion waits for
    // the injections.
    mark_data_done(image, /*after_stages=*/vr_ == 0 &&
                              !has_up_phase(desc().kind));
  }

  const int radix_;
  const int p_;
  const int vr_;
  bool up_done_;
  bool down_done_;
  int got_ = 0;
  std::vector<int> children_;  ///< relative ranks
  std::vector<std::uint8_t> acc_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_tree_impl(rt::CollKey key, CollDesc desc) {
  CAF2_ASSERT(has_up_phase(desc.kind) || has_down_phase(desc.kind),
              "tree schedule: unsupported collective kind");
  return std::make_unique<TreeImpl>(key, std::move(desc));
}

}  // namespace caf2::ops::detail
