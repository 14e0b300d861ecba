#include <memory>
#include <numeric>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_direct.cpp
/// Direct (linear pairwise) schedules (DESIGN.md §4.13): every pair that
/// must exchange data does so with one message — p-1 sends or receives at
/// the busiest rank, no intermediate hops. Latency-optimal for tiny teams
/// and the only schedule whose message sizes can differ per pair, which is
/// why the variable-count collectives (gatherv / scatterv / alltoallv)
/// live here. Their uniform counterparts (gather / scatter / alltoall) are
/// the same schedules with every count equal, filled in by the factory.
/// Zero-byte chunks are still sent: receivers complete by *counting* p-1
/// arrivals, which keeps completion deterministic without a separate
/// handshake for empty pairs.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Byte offset of every rank's chunk, given per-rank byte counts.
std::vector<std::size_t> displacements(const std::vector<std::size_t>& counts) {
  std::vector<std::size_t> out(counts.size());
  std::exclusive_scan(counts.begin(), counts.end(), out.begin(),
                      std::size_t{0});
  return out;
}

/// Direct allgather: everyone sends its block to everyone else.
class DirectAllgatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   static_cast<std::size_t>(team_rank()) * desc().bytes,
               desc().buf, desc().bytes);
    for (int r = 0; r < team_size(); ++r) {
      if (r != team_rank()) {
        send_stage(image, r, 0, desc().buf, desc().bytes);
      }
    }
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(msg.data.size() == desc().bytes,
                "direct allgather size mismatch");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   static_cast<std::size_t>(msg.from_team_rank) *
                       desc().bytes,
               msg.data.data(), msg.data.size());
    ++received_;
    maybe_done(image);
  }

  bool role_done() const override { return received_ == team_size() - 1; }

 private:
  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  int received_ = 0;
};

/// Direct reduce-scatter: rank r sends chunk j of its contribution to rank
/// j and folds the p-1 incoming chunks into its own chunk r.
class DirectReduceScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    acc_.assign(in + static_cast<std::size_t>(team_rank()) * desc().bytes2,
                in + static_cast<std::size_t>(team_rank() + 1) *
                         desc().bytes2);
    for (int r = 0; r < team_size(); ++r) {
      if (r != team_rank()) {
        send_stage(image, r, 0,
                   in + static_cast<std::size_t>(r) * desc().bytes2,
                   desc().bytes2);
      }
    }
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(msg.data.size() == desc().bytes2,
                "direct reduce-scatter size mismatch");
    desc().reducer.combine(acc_.data(), msg.data.data(),
                           msg.data.size() / desc().reducer.elem_size);
    ++received_;
    maybe_done(image);
  }

  bool role_done() const override { return received_ == team_size() - 1; }

 private:
  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      copy_bytes(desc().buf2, acc_.data(), acc_.size());
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  int received_ = 0;
  std::vector<std::uint8_t> acc_;
};

/// Gather(v): desc().counts (root only) carries per-rank byte counts; every
/// non-root sends its contribution straight to the root, which places the
/// p-1 arrivals at their prefix-sum displacement.
class GathervImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    if (team_rank() == desc().root) {
      displs_ = displacements(desc().counts);
      copy_bytes(out(team_rank()), desc().buf, desc().bytes);
      maybe_done(image);
    } else {
      send_stage(image, desc().root, 0, desc().buf, desc().bytes);
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(msg.data.size() ==
                    desc().counts[static_cast<std::size_t>(msg.from_team_rank)],
                "gather: contribution does not match the root's count");
    copy_bytes(out(msg.from_team_rank), msg.data.data(), msg.data.size());
    ++received_;
    maybe_done(image);
  }

  bool role_done() const override {
    return team_rank() != desc().root || received_ == team_size() - 1;
  }

 private:
  std::uint8_t* out(int rank) const {
    return static_cast<std::uint8_t*>(desc().buf2) +
           displs_[static_cast<std::size_t>(rank)];
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image);
    }
  }

  int received_ = 0;
  std::vector<std::size_t> displs_;
};

/// Scatter(v): the root slices its buffer by desc().counts and sends each
/// member its chunk directly; each member's receive extent must equal its
/// chunk (zero included).
class ScattervImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    if (team_rank() != desc().root) {
      return;
    }
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    const std::vector<std::size_t> displs = displacements(desc().counts);
    for (int r = 0; r < team_size(); ++r) {
      const auto index = static_cast<std::size_t>(r);
      if (r == team_rank()) {
        copy_bytes(desc().buf2, in + displs[index], desc().counts[index]);
      } else {
        send_stage(image, r, 0, in + displs[index], desc().counts[index]);
      }
    }
    have_chunk_ = true;
    mark_data_done(image, /*after_stages=*/true);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(msg.data.size() == desc().bytes2,
                "scatter: chunk does not match this rank's receive extent");
    copy_bytes(desc().buf2, msg.data.data(), msg.data.size());
    have_chunk_ = true;
    mark_data_done(image);
  }

  bool role_done() const override { return have_chunk_; }

 private:
  bool have_chunk_ = false;
};

/// All-to-all(v): desc().counts = per-destination send bytes,
/// desc().counts2 = per-source receive bytes; both packed by prefix sum.
/// Local data completion needs both directions — the send buffer injected
/// (reads) and every incoming chunk placed (writes).
class AlltoallvImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const int r = team_rank();
    const auto me = static_cast<std::size_t>(r);
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    const std::vector<std::size_t> send_displs = displacements(desc().counts);
    recv_displs_ = displacements(desc().counts2);
    CAF2_ASSERT(desc().counts[me] == desc().counts2[me],
                "alltoall: send/recv counts disagree for the local pair");
    copy_bytes(out(r), in + send_displs[me], desc().counts[me]);
    for (int to = 0; to < team_size(); ++to) {
      const auto index = static_cast<std::size_t>(to);
      if (to != r) {
        send_stage(image, to, 0, in + send_displs[index],
                   desc().counts[index]);
      }
    }
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    CAF2_ASSERT(
        msg.data.size() ==
            desc().counts2[static_cast<std::size_t>(msg.from_team_rank)],
        "alltoall: arrival does not match the receive count");
    copy_bytes(out(msg.from_team_rank), msg.data.data(), msg.data.size());
    ++received_;
    maybe_done(image);
  }

  bool role_done() const override { return received_ == team_size() - 1; }

 private:
  std::uint8_t* out(int rank) const {
    return static_cast<std::uint8_t*>(desc().buf2) +
           recv_displs_[static_cast<std::size_t>(rank)];
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  int received_ = 0;
  std::vector<std::size_t> recv_displs_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_direct_impl(rt::CollKey key,
                                               CollDesc desc) {
  const auto p = static_cast<std::size_t>(desc.team.size());
  const bool root = desc.team.rank() == desc.root;
  switch (desc.kind) {
    case CollKind::kGather:
      if (root) {
        desc.counts.assign(p, desc.bytes);
      }
      [[fallthrough]];
    case CollKind::kGatherv:
      return std::make_unique<GathervImpl>(key, std::move(desc));
    case CollKind::kScatter:
      if (root) {
        desc.counts.assign(p, desc.bytes2);
      }
      [[fallthrough]];
    case CollKind::kScatterv:
      return std::make_unique<ScattervImpl>(key, std::move(desc));
    case CollKind::kAlltoall:
      desc.counts.assign(p, desc.bytes / p);
      desc.counts2 = desc.counts;
      [[fallthrough]];
    case CollKind::kAlltoallv:
      return std::make_unique<AlltoallvImpl>(key, std::move(desc));
    case CollKind::kAllgather:
      return std::make_unique<DirectAllgatherImpl>(key, std::move(desc));
    case CollKind::kReduceScatter:
      return std::make_unique<DirectReduceScatterImpl>(key, std::move(desc));
    case CollKind::kSort:
      return make_sort_impl(key, std::move(desc));
    default:
      throw UsageError("direct schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
