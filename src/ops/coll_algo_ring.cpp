#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_ring.cpp
/// Ring-family schedules (DESIGN.md §4.13). The ring allreduce /
/// reduce-scatter / allgather move ~2·bytes·(p-1)/p per image regardless of
/// team size — bandwidth-optimal — against the binomial tree's
/// log2(p)·bytes per hop, at the cost of p-1 latency steps
/// (`bench_collectives --tune` measures the crossover). Channels are non-FIFO (delivery
/// jitter can reorder same-link messages), so every impl buffers incoming
/// payloads by stage number and pumps strictly in stage order.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Ring broadcast: a p-1 hop chain from the root. Strictly worse in latency
/// than the trees for whole-message sends, but included as the degenerate
/// pipeline schedule (and as a table stress case).
class RingBroadcastImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    if (team_rank() == desc().root) {
      have_data_ = true;
      forward(image);
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(msg.data.size() == desc().bytes,
                "ring broadcast size mismatch");
    copy_bytes(desc().buf, msg.data.data(), msg.data.size());
    have_data_ = true;
    forward(image);
    mark_data_done(image);
  }

  bool role_done() const override { return have_data_; }

 private:
  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  void forward(Image& image) {
    const int p = team_size();
    if (vrank() + 1 < p) {
      send_stage(image, (vrank() + 1 + desc().root) % p, 0, desc().buf,
                 desc().bytes);
    }
  }

  bool have_data_ = false;
};

/// Ring allreduce: a reduce-scatter phase (steps 0..p-2, rank r sends
/// accumulated chunk (r-s) mod p to r+1 and folds in chunk (r-1-s) mod p
/// from r-1, ending as the owner of fully-reduced chunk (r+1) mod p)
/// followed by an allgather phase (steps p-1..2p-3 circulating the owned
/// chunks). Chunks split desc().bytes on reducer element boundaries, so
/// they may be empty when p exceeds the element count.
class RingAllreduceImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const int p = team_size();
    stages_ = 2 * (p - 1);
    acc_.resize(desc().bytes);
    copy_bytes(acc_.data(), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return stage_ == stages_; }

 private:
  std::size_t elems() const {
    return desc().bytes / desc().reducer.elem_size;
  }
  std::size_t chunk_begin(int chunk) const {
    return elems() * static_cast<std::size_t>(chunk) /
           static_cast<std::size_t>(team_size()) * desc().reducer.elem_size;
  }
  std::size_t chunk_bytes(int chunk) const {
    return chunk_begin(chunk + 1) - chunk_begin(chunk);
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      const bool reduce_phase = stage_ < p - 1;
      const int step = reduce_phase ? stage_ : stage_ - (p - 1);
      const int send_chunk =
          reduce_phase ? (r - step + p) % p : (r + 1 - step + 2 * p) % p;
      const int recv_chunk =
          reduce_phase ? (r - 1 - step + 2 * p) % p : (r - step + 2 * p) % p;
      if (!sent_current_) {
        send_stage(image, (r + 1) % p, stage_,
                   acc_.data() + chunk_begin(send_chunk),
                   chunk_bytes(send_chunk));
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      auto& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == chunk_bytes(recv_chunk),
                  "ring allreduce chunk size mismatch");
      if (reduce_phase) {
        desc().reducer.combine(acc_.data() + chunk_begin(recv_chunk),
                               incoming.data(),
                               incoming.size() / desc().reducer.elem_size);
      } else {
        copy_bytes(acc_.data() + chunk_begin(recv_chunk), incoming.data(),
                   incoming.size());
      }
      incoming.clear();
      ++stage_;
      sent_current_ = false;
    }
    copy_bytes(desc().buf, acc_.data(), acc_.size());
    mark_data_done(image);
  }

  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  std::vector<std::uint8_t> acc_;
  StageBuffer got_;
};

/// Ring allgather: rank r seeds slot r of the receive buffer with its own
/// block, then p-1 steps circulate blocks around the ring (step s: send
/// block (r-s) mod p to r+1, receive block (r-1-s) mod p from r-1).
class RingAllgatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    stages_ = team_size() - 1;
    copy_bytes(slot(team_rank()), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return stage_ == stages_; }

 private:
  std::uint8_t* slot(int rank) const {
    return static_cast<std::uint8_t*>(desc().buf2) +
           static_cast<std::size_t>(rank) * desc().bytes;
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      if (!sent_current_) {
        const int send_block = (r - stage_ + p) % p;
        send_stage(image, (r + 1) % p, stage_, slot(send_block),
                   desc().bytes);
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      auto& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == desc().bytes,
                  "ring allgather block size mismatch");
      const int recv_block = (r - 1 - stage_ + 2 * p) % p;
      copy_bytes(slot(recv_block), incoming.data(), incoming.size());
      incoming.clear();
      ++stage_;
      sent_current_ = false;
    }
    mark_data_done(image, /*after_stages=*/true);
  }

  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  StageBuffer got_;
};

/// Ring reduce-scatter: the reduce-scatter phase of the ring allreduce over
/// uniform chunks of desc().bytes2, indexed so that rank r ends owning
/// chunk r (step s: send accumulated chunk (r-1-s) mod p, fold in chunk
/// (r-2-s) mod p).
class RingReduceScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    stages_ = team_size() - 1;
    acc_.resize(desc().bytes);
    copy_bytes(acc_.data(), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return stage_ == stages_; }

 private:
  std::uint8_t* chunk(int index) {
    return acc_.data() + static_cast<std::size_t>(index) * desc().bytes2;
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      if (!sent_current_) {
        const int send_chunk = (r - 1 - stage_ + 2 * p) % p;
        send_stage(image, (r + 1) % p, stage_, chunk(send_chunk),
                   desc().bytes2);
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      auto& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == desc().bytes2,
                  "ring reduce-scatter chunk size mismatch");
      const int recv_chunk = (r - 2 - stage_ + 2 * p) % p;
      desc().reducer.combine(chunk(recv_chunk), incoming.data(),
                             incoming.size() / desc().reducer.elem_size);
      incoming.clear();
      ++stage_;
      sent_current_ = false;
    }
    copy_bytes(desc().buf2, chunk(r), desc().bytes2);
    mark_data_done(image);
  }

  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  std::vector<std::uint8_t> acc_;
  StageBuffer got_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_ring_impl(rt::CollKey key, CollDesc desc) {
  switch (desc.kind) {
    case CollKind::kBroadcast:
      return std::make_unique<RingBroadcastImpl>(key, std::move(desc));
    case CollKind::kAllreduce:
      return std::make_unique<RingAllreduceImpl>(key, std::move(desc));
    case CollKind::kAllgather:
      return std::make_unique<RingAllgatherImpl>(key, std::move(desc));
    case CollKind::kReduceScatter:
      return std::make_unique<RingReduceScatterImpl>(key, std::move(desc));
    default:
      throw UsageError("ring schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
