#include <bit>
#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_rd.cpp
/// Round-based schedules (DESIGN.md §4.13): ceil(log2 p) rounds in which
/// every rank talks to one partner at distance 2^k. Recursive doubling
/// pairs rank r with r XOR 2^k (allreduce, allgather) or r ± 2^k (the
/// Hillis-Steele scan); dissemination sends to (r + 2^k) mod p (barrier).
///
/// The allreduce handles any team size with the classic fold: with
/// pow = bit_floor(p) and rem = p - pow, the first 2*rem ranks pre-fold in
/// pairs (odd -> even) so exactly pow ranks run the exchange rounds, then
/// the folded-out ranks receive the final result. The allgather requires a
/// power-of-two team (resolve_algorithm clamps it to ring otherwise).
/// Incoming payloads are buffered by stage and pumped in round order.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Recursive-doubling allreduce for arbitrary p.
/// Stages: 0 = pre-fold (odd -> even among ranks < 2*rem); 1+k = exchange
/// round k among the pow participants; 1+log2(pow) = result hand-back
/// (even -> odd). Assumes a commutative reduction (every RedOp is); the
/// per-rank association order differs from the tree schedules, so
/// floating-point sums may differ in rounding across algorithms.
class RdAllreduceImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

  static constexpr int kStageFold = 0;

 protected:
  void begin(Image& image) override {
    const int p = team_size();
    pow_ = static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
    rem_ = p - pow_;
    rounds_ = ceil_log2(pow_);
    acc_.resize(desc().bytes);
    copy_bytes(acc_.data(), desc().buf, desc().bytes);
    const int r = team_rank();
    if (r < 2 * rem_ && r % 2 == 1) {
      // Folded out: contribute to the even partner, await the result.
      send_stage(image, r - 1, kStageFold, acc_.data(), acc_.size());
      mark_data_done(image);  // input captured
      folded_out_ = true;
    }
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return done_; }

 private:
  int stage_result() const { return 1 + rounds_; }

  void fold_in(int stage) {
    auto& incoming = got_.at(stage);
    CAF2_ASSERT(incoming.size() == desc().bytes,
                "recursive-doubling allreduce size mismatch");
    desc().reducer.combine(acc_.data(), incoming.data(),
                           incoming.size() / desc().reducer.elem_size);
    incoming.clear();
  }

  /// Participant index of this rank (0..pow), and back to a team rank.
  int participant() const {
    const int r = team_rank();
    return r < 2 * rem_ ? r / 2 : r - rem_;
  }
  int participant_rank(int q) const { return q < rem_ ? 2 * q : q + rem_; }

  void pump(Image& image) {
    if (done_) {
      return;
    }
    if (folded_out_) {
      if (!got_.has(stage_result())) {
        return;
      }
      auto& incoming = got_.at(stage_result());
      CAF2_ASSERT(incoming.size() == desc().bytes,
                  "recursive-doubling allreduce result size mismatch");
      copy_bytes(desc().buf, incoming.data(), incoming.size());
      done_ = true;
      return;
    }
    const int r = team_rank();
    if (r < 2 * rem_ && !fold_absorbed_) {
      if (!got_.has(kStageFold)) {
        return;
      }
      fold_in(kStageFold);
      fold_absorbed_ = true;
    }
    const int q = participant();
    while (round_ < rounds_) {
      if (!sent_current_) {
        send_stage(image, participant_rank(q ^ (1 << round_)), 1 + round_,
                   acc_.data(), acc_.size());
        sent_current_ = true;
      }
      if (!got_.has(1 + round_)) {
        return;
      }
      fold_in(1 + round_);
      ++round_;
      sent_current_ = false;
    }
    copy_bytes(desc().buf, acc_.data(), acc_.size());
    if (r < 2 * rem_) {
      send_stage(image, r + 1, stage_result(), acc_.data(), acc_.size());
    }
    done_ = true;
    mark_data_done(image);
  }

  bool folded_out_ = false;
  bool fold_absorbed_ = false;
  bool sent_current_ = false;
  bool done_ = false;
  int pow_ = 1;
  int rem_ = 0;
  int rounds_ = 0;
  int round_ = 0;
  std::vector<std::uint8_t> acc_;
  StageBuffer got_;
};

/// Recursive-doubling allgather (power-of-two p): round k exchanges the
/// currently-held 2^k-block region with partner r XOR 2^k, doubling the
/// region each round. log2(p) messages per rank instead of the ring's p-1,
/// at the cost of region-sized (growing) payloads.
class RdAllgatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const int p = team_size();
    CAF2_ASSERT(std::has_single_bit(static_cast<unsigned>(p)),
                "recursive-doubling allgather needs a power-of-two team");
    rounds_ = ceil_log2(p);
    copy_bytes(slot(team_rank()), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return round_ == rounds_; }

 private:
  std::uint8_t* slot(int rank) const {
    return static_cast<std::uint8_t*>(desc().buf2) +
           static_cast<std::size_t>(rank) * desc().bytes;
  }

  void pump(Image& image) {
    const int r = team_rank();
    while (round_ < rounds_) {
      const int width = 1 << round_;          // blocks currently held
      const int base = r & ~(width - 1);      // first held block
      if (!sent_current_) {
        send_stage(image, r ^ width, round_, slot(base),
                   static_cast<std::size_t>(width) * desc().bytes);
        sent_current_ = true;
      }
      if (!got_.has(round_)) {
        return;
      }
      auto& incoming = got_.at(round_);
      CAF2_ASSERT(incoming.size() ==
                      static_cast<std::size_t>(width) * desc().bytes,
                  "recursive-doubling allgather region size mismatch");
      copy_bytes(slot(base ^ width), incoming.data(), incoming.size());
      incoming.clear();
      ++round_;
      sent_current_ = false;
    }
    mark_data_done(image, /*after_stages=*/true);
  }

  bool sent_current_ = false;
  int rounds_ = 0;
  int round_ = 0;
  StageBuffer got_;
};

/// Hillis-Steele inclusive scan: in round k, rank r sends its running
/// prefix to r + 2^k and folds in the prefix received from r - 2^k. After
/// ceil(log2 p) rounds the accumulator holds the prefix over ranks [0, r].
/// The exclusive variant keeps a separate carry over strictly-lower ranks
/// (identity-free: tracked with has_carry_ instead of requiring an identity
/// element), so rank 0's buffer is left unchanged.
class ScanImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    rounds_ = ceil_log2(team_size());
    acc_.assign(static_cast<const std::uint8_t*>(desc().buf),
                static_cast<const std::uint8_t*>(desc().buf) + desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return round_ == rounds_; }

 private:
  void pump(Image& image) {
    const int p = team_size();
    while (round_ < rounds_) {
      const int dist = 1 << round_;
      if (!sent_current_) {
        if (team_rank() + dist < p) {
          send_stage(image, team_rank() + dist, round_, acc_.data(),
                     acc_.size());
        }
        sent_current_ = true;
      }
      if (team_rank() - dist >= 0) {
        if (!got_.has(round_)) {
          return;  // wait for this round's prefix
        }
        const auto& incoming = got_.at(round_);
        if (!has_carry_) {
          carry_ = incoming;
          has_carry_ = true;
        } else {
          desc().reducer.combine(carry_.data(), incoming.data(),
                                 carry_.size() / desc().reducer.elem_size);
        }
        // Fold the incoming prefix into the running accumulator too: the
        // accumulator is what later rounds forward.
        desc().reducer.combine(acc_.data(), incoming.data(),
                               acc_.size() / desc().reducer.elem_size);
      }
      ++round_;
      sent_current_ = false;
    }
    if (!desc().exclusive_scan) {
      copy_bytes(desc().buf, acc_.data(), acc_.size());
    } else if (has_carry_) {
      copy_bytes(desc().buf, carry_.data(), carry_.size());
    }
    mark_data_done(image);
  }

  int rounds_ = 0;
  int round_ = 0;
  bool sent_current_ = false;
  bool has_carry_ = false;
  std::vector<std::uint8_t> acc_;
  std::vector<std::uint8_t> carry_;
  StageBuffer got_;
};

/// Dissemination barrier: round k sends a token to (rank + 2^k) mod p and
/// waits for the token from (rank - 2^k) mod p.
class DisseminationBarrierImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    rounds_ = ceil_log2(team_size());
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return round_ == rounds_; }

 private:
  void pump(Image& image) {
    const int p = team_size();
    while (round_ < rounds_) {
      if (!sent_current_) {
        send_stage(image, (team_rank() + (1 << round_)) % p, round_, nullptr,
                   0);
        sent_current_ = true;
      }
      if (!got_.has(round_)) {
        return;
      }
      ++round_;
      sent_current_ = false;
    }
    mark_data_done(image);
  }

  int rounds_ = 0;
  int round_ = 0;
  bool sent_current_ = false;
  StageBuffer got_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_rounds_impl(rt::CollKey key,
                                               CollDesc desc) {
  switch (desc.kind) {
    case CollKind::kAllreduce:
      return std::make_unique<RdAllreduceImpl>(key, std::move(desc));
    case CollKind::kAllgather:
      return std::make_unique<RdAllgatherImpl>(key, std::move(desc));
    case CollKind::kScan:
      return std::make_unique<ScanImpl>(key, std::move(desc));
    case CollKind::kBarrier:
      return std::make_unique<DisseminationBarrierImpl>(key, std::move(desc));
    default:
      throw UsageError("round-based schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
