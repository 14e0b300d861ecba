#pragma once

/// \file collectives.hpp
/// Asynchronous team collectives (paper §II-C3).
///
/// CAF 2.0 collectives overlap group coordination with computation: a call
/// initiates the operation and returns immediately. Completion is managed
/// either explicitly through the two optional events —
///   src_done   local *data* completion (paper Fig. 4: the local buffer may
///              be reused / the arrived data may be read), or
///   local_done local *operation* completion (all pair-wise communication
///              involving this image is complete) —
/// or implicitly (no events), in which case cofence provides local data
/// completion and an enclosing finish block provides global completion.
///
/// Algorithms (DESIGN.md §4.13): every collective kind maps to one or more
/// selectable *schedules* — binomial / radix-4 k-nomial tree (one tree,
/// two radices), ring, recursive doubling, dissemination, direct pairwise —
/// implemented over a shared stage-message state machine.
/// CollOptions::algorithm picks one per call; the default
/// CollAlgorithm::kAuto runs the kind's default schedule.

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "ops/reduction.hpp"
#include "runtime/event.hpp"
#include "runtime/image.hpp"
#include "runtime/team.hpp"

namespace caf2 {

/// Selectable collective schedule (DESIGN.md §4.13). Not every algorithm
/// applies to every collective kind; ops::supported_algorithms() lists the
/// valid combinations and an explicitly requested unsupported pairing is a
/// UsageError. kAuto resolves to the kind's default at initiation.
enum class CollAlgorithm : std::uint8_t {
  kAuto,               ///< the kind's default schedule
  kBinomialTree,       ///< classic binomial tree (the paper's schedule)
  kKnomialTree,        ///< radix-4 k-nomial tree (shallower, fatter nodes)
  kRing,               ///< ring / pipeline (bandwidth-optimal at scale)
  kRecursiveDoubling,  ///< pairwise exchange, log2 rounds
  kDissemination,      ///< dissemination rounds (barrier)
  kDirect,             ///< direct pairwise sends (linear)
};

const char* to_string(CollAlgorithm algorithm);

struct CollOptions {
  RemoteEvent src_done{};    ///< local data completion
  RemoteEvent local_done{};  ///< local operation completion
  /// Which schedule to run; kAuto runs the kind's default.
  CollAlgorithm algorithm = CollAlgorithm::kAuto;
};

namespace ops {

enum class CollKind : std::uint8_t {
  kBarrier,
  kBroadcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAlltoall,
  kScan,
  kSort,
  kAllgather,       ///< every member ends with the rank-ordered concatenation
  kReduceScatter,   ///< element-wise reduction, chunk r scattered to rank r
  kGatherv,         ///< gather with per-rank contribution sizes
  kScatterv,        ///< scatter with per-rank chunk sizes
  kAlltoallv,       ///< personalized exchange with per-pair sizes
};

const char* to_string(CollKind kind);

/// Byte-level collective descriptor; typed wrappers populate it.
struct CollDesc {
  CollKind kind = CollKind::kBarrier;
  Team team;
  int root = 0;          ///< team rank (broadcast/reduce/gather/scatter)
  void* buf = nullptr;   ///< participant buffer (kind-specific role)
  std::size_t bytes = 0; ///< size of one contribution in bytes
  void* buf2 = nullptr;  ///< secondary buffer (gather/alltoall receive side)
  std::size_t bytes2 = 0;
  Reducer reducer{};
  bool exclusive_scan = false;

  /// Requested schedule; resolved (kAuto -> concrete) at start_collective.
  CollAlgorithm algorithm = CollAlgorithm::kAuto;

  /// Variable-count collectives: per-team-rank payload *bytes*.
  /// kGatherv: receive sizes (root only); kScatterv: send sizes (root only);
  /// kAlltoallv: send sizes (every rank).
  std::vector<std::size_t> counts;
  /// kAlltoallv: per-team-rank receive bytes (every rank).
  std::vector<std::size_t> counts2;

  /// Sort plumbing (type-erased; see sort_async).
  void* sort_sink = nullptr;
  void (*sort_assign)(void* sink, const std::uint8_t* data,
                      std::size_t bytes) = nullptr;
  void (*sort_sort)(std::uint8_t* data, std::size_t bytes) = nullptr;
  bool (*sort_less)(const std::uint8_t* a, const std::uint8_t* b) = nullptr;
  std::size_t elem_size = 0;

  RemoteEvent src_done{};
  RemoteEvent local_done{};
};

/// Start the collective described by \p desc on the calling image.
void start_collective(CollDesc desc);

void install_collective_handlers(rt::Runtime& runtime);

}  // namespace ops

namespace ops::detail {
/// Rooted-collective precondition: catch an out-of-range root at the entry
/// point with the collective's name, instead of letting it fail deep inside
/// the stage machinery (or, worse, hang the non-root members).
inline void require_valid_root(const Team& team, int root, const char* what) {
  CAF2_REQUIRE(root >= 0 && root < team.size(),
               std::string(what) + ": root " + std::to_string(root) +
                   " outside [0, " + std::to_string(team.size()) + ")");
}
}  // namespace ops::detail

/// Asynchronous barrier over \p team (dissemination by default; a
/// binomial-tree gather+release schedule is selectable via options).
void barrier_async(const Team& team, CollOptions options = {});

/// Synchronous barrier (convenience wrapper).
void team_barrier(const Team& team);

/// Asynchronous broadcast of `buf` from team rank \p root (binomial tree by
/// default; k-nomial and ring schedules selectable).
template <typename T>
void broadcast_async(const Team& team, std::span<T> buf, int root,
                     CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "broadcast_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kBroadcast;
  desc.team = team;
  desc.root = root;
  desc.buf = buf.data();
  desc.bytes = buf.size_bytes();
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous reduction of `buf` into team rank \p root's `buf` (binomial
/// tree by default; k-nomial selectable). Non-root buffers are inputs only
/// (copied at initiation, so they may be reused as soon as src_done fires —
/// which is immediately).
template <typename T>
void reduce_async(const Team& team, std::span<T> buf, int root, RedOp op,
                  CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "reduce_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kReduce;
  desc.team = team;
  desc.root = root;
  desc.buf = buf.data();
  desc.bytes = buf.size_bytes();
  desc.reducer = ops::make_reducer<T>(op);
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous allreduce: every member's `buf` ends up holding the
/// element-wise reduction over all members. Local data completion (src_done)
/// fires when the final result is in `buf`. Schedules: binomial
/// reduce+broadcast (default), recursive doubling, ring
/// (reduce-scatter + allgather; bandwidth-optimal for large payloads).
template <typename T>
void allreduce_async(const Team& team, std::span<T> buf, RedOp op,
                     CollOptions options = {}) {
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kAllreduce;
  desc.team = team;
  desc.buf = buf.data();
  desc.bytes = buf.size_bytes();
  desc.reducer = ops::make_reducer<T>(op);
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Synchronous scalar allreduce (convenience wrapper used pervasively by
/// tests and by the finish termination detector).
template <typename T>
T allreduce(const Team& team, T value, RedOp op) {
  T result = value;
  Event done;
  allreduce_async<T>(team, std::span<T>(&result, 1), op,
                     {.src_done = done.handle()});
  done.wait();
  return result;
}

/// Asynchronous gather: every member contributes `send` (equal sizes); team
/// rank \p root receives the concatenation (by team rank) into `recv`
/// (size = team size × send size). `recv` is ignored on non-roots.
/// Schedules: binomial tree (default), direct (gatherv's schedule with
/// every count equal).
template <typename T>
void gather_async(const Team& team, std::span<const T> send,
                  std::span<T> recv, int root, CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "gather_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kGather;
  desc.team = team;
  desc.root = root;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  if (team.rank() == root) {
    CAF2_REQUIRE(recv.size() == send.size() *
                     static_cast<std::size_t>(team.size()),
                 "gather_async: root receive extent mismatch");
    desc.buf2 = recv.data();
    desc.bytes2 = recv.size_bytes();
  }
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous scatter: team rank \p root's `send` (team size × chunk) is
/// split by team rank; every member receives its chunk into `recv`.
/// Schedules: binomial tree (default), direct (scatterv's schedule with
/// every count equal).
template <typename T>
void scatter_async(const Team& team, std::span<const T> send,
                   std::span<T> recv, int root, CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "scatter_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kScatter;
  desc.team = team;
  desc.root = root;
  if (team.rank() == root) {
    CAF2_REQUIRE(send.size() == recv.size() *
                     static_cast<std::size_t>(team.size()),
                 "scatter_async: root send extent mismatch");
    desc.buf = const_cast<T*>(send.data());
    desc.bytes = send.size_bytes();
  }
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous all-to-all personalized exchange: chunk j of `send` goes to
/// team rank j; chunk i of `recv` comes from team rank i. Both spans hold
/// team size × chunk elements. Runs alltoallv's direct schedule with every
/// count equal.
template <typename T>
void alltoall_async(const Team& team, std::span<const T> send,
                    std::span<T> recv, CollOptions options = {}) {
  CAF2_REQUIRE(send.size() == recv.size(),
               "alltoall_async: send/recv extents differ");
  CAF2_REQUIRE(send.size() % static_cast<std::size_t>(team.size()) == 0,
               "alltoall_async: extent not divisible by team size");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kAlltoall;
  desc.team = team;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous allgather: every member contributes `send` (equal sizes) and
/// ends up with the concatenation by team rank in `recv`
/// (size = team size × send size). Schedules: ring (default), recursive
/// doubling (power-of-two teams; falls back to ring otherwise), direct.
template <typename T>
void allgather_async(const Team& team, std::span<const T> send,
                     std::span<T> recv, CollOptions options = {}) {
  CAF2_REQUIRE(recv.size() == send.size() *
                   static_cast<std::size_t>(team.size()),
               "allgather_async: receive extent mismatch");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kAllgather;
  desc.team = team;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous reduce-scatter: `send` (team size × chunk) is reduced
/// element-wise across all members and chunk r of the result lands in team
/// rank r's `recv` (send size = team size × recv size). Schedules: ring
/// (default, bandwidth-optimal), direct.
template <typename T>
void reduce_scatter_async(const Team& team, std::span<const T> send,
                          std::span<T> recv, RedOp op,
                          CollOptions options = {}) {
  CAF2_REQUIRE(send.size() == recv.size() *
                   static_cast<std::size_t>(team.size()),
               "reduce_scatter_async: send extent mismatch");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kReduceScatter;
  desc.team = team;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.reducer = ops::make_reducer<T>(op);
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous variable-count gather: every member contributes `send` (any
/// size); team rank \p root receives the concatenation by team rank into
/// `recv`. On the root, `counts` gives every member's contribution in
/// *elements* (size = team size) and `recv` must hold their sum; both are
/// ignored elsewhere.
template <typename T>
void gatherv_async(const Team& team, std::span<const T> send,
                   std::span<T> recv, std::span<const std::size_t> counts,
                   int root, CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "gatherv_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kGatherv;
  desc.team = team;
  desc.root = root;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  if (team.rank() == root) {
    CAF2_REQUIRE(counts.size() == static_cast<std::size_t>(team.size()),
                 "gatherv_async: counts extent != team size");
    const std::size_t total =
        std::accumulate(counts.begin(), counts.end(), std::size_t{0});
    CAF2_REQUIRE(recv.size() == total,
                 "gatherv_async: root receive extent != sum of counts");
    CAF2_REQUIRE(counts[static_cast<std::size_t>(root)] == send.size(),
                 "gatherv_async: root's own count != its send extent");
    desc.buf2 = recv.data();
    desc.bytes2 = recv.size_bytes();
    desc.counts.reserve(counts.size());
    for (const std::size_t count : counts) {
      desc.counts.push_back(count * sizeof(T));
    }
  }
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous variable-count scatter: team rank \p root's `send` is split
/// into per-rank chunks of `counts` *elements* (root only; size = team
/// size, summing to the send extent) and chunk r lands in rank r's `recv`,
/// whose extent must equal that rank's count.
template <typename T>
void scatterv_async(const Team& team, std::span<const T> send,
                    std::span<const std::size_t> counts, std::span<T> recv,
                    int root, CollOptions options = {}) {
  ops::detail::require_valid_root(team, root, "scatterv_async");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kScatterv;
  desc.team = team;
  desc.root = root;
  if (team.rank() == root) {
    CAF2_REQUIRE(counts.size() == static_cast<std::size_t>(team.size()),
                 "scatterv_async: counts extent != team size");
    const std::size_t total =
        std::accumulate(counts.begin(), counts.end(), std::size_t{0});
    CAF2_REQUIRE(send.size() == total,
                 "scatterv_async: root send extent != sum of counts");
    CAF2_REQUIRE(counts[static_cast<std::size_t>(root)] == recv.size(),
                 "scatterv_async: root's own count != its receive extent");
    desc.buf = const_cast<T*>(send.data());
    desc.bytes = send.size_bytes();
    desc.counts.reserve(counts.size());
    for (const std::size_t count : counts) {
      desc.counts.push_back(count * sizeof(T));
    }
  }
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous variable-count all-to-all personalized exchange: rank j
/// receives `send_counts[j]` *elements* of this member's `send` (packed
/// contiguously by destination rank), and `recv_counts[i]` elements from
/// rank i land contiguously by source rank in `recv`. Unlike
/// alltoall_async, extents need not be divisible by the team size — counts
/// may differ per pair (and may be zero). Requires
/// send_counts[j] on rank i == recv_counts[i] on rank j.
template <typename T>
void alltoallv_async(const Team& team, std::span<const T> send,
                     std::span<const std::size_t> send_counts,
                     std::span<T> recv,
                     std::span<const std::size_t> recv_counts,
                     CollOptions options = {}) {
  const auto p = static_cast<std::size_t>(team.size());
  CAF2_REQUIRE(send_counts.size() == p,
               "alltoallv_async: send_counts extent != team size");
  CAF2_REQUIRE(recv_counts.size() == p,
               "alltoallv_async: recv_counts extent != team size");
  CAF2_REQUIRE(send.size() == std::accumulate(send_counts.begin(),
                                              send_counts.end(),
                                              std::size_t{0}),
               "alltoallv_async: send extent != sum of send_counts");
  CAF2_REQUIRE(recv.size() == std::accumulate(recv_counts.begin(),
                                              recv_counts.end(),
                                              std::size_t{0}),
               "alltoallv_async: receive extent != sum of recv_counts");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kAlltoallv;
  desc.team = team;
  desc.buf = const_cast<T*>(send.data());
  desc.bytes = send.size_bytes();
  desc.buf2 = recv.data();
  desc.bytes2 = recv.size_bytes();
  desc.counts.reserve(p);
  desc.counts2.reserve(p);
  for (std::size_t r = 0; r < p; ++r) {
    desc.counts.push_back(send_counts[r] * sizeof(T));
    desc.counts2.push_back(recv_counts[r] * sizeof(T));
  }
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous scan (prefix reduction) over team ranks, in place. With
/// \p exclusive, element i receives the reduction of ranks [0, i) and team
/// rank 0's buffer is left unchanged.
template <typename T>
void scan_async(const Team& team, std::span<T> data, RedOp op,
                bool exclusive = false, CollOptions options = {}) {
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kScan;
  desc.team = team;
  desc.buf = data.data();
  desc.bytes = data.size_bytes();
  desc.reducer = ops::make_reducer<T>(op);
  desc.exclusive_scan = exclusive;
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

/// Asynchronous distributed sample sort: `keys` (this image's block, any
/// size) is replaced by a slice of the globally sorted sequence, ordered by
/// team rank (rank 0 holds the smallest keys). Sizes may change — sample
/// sort redistributes by splitter.
template <typename T>
void sort_async(const Team& team, std::vector<T>& keys,
                CollOptions options = {}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "sort keys must be trivially copyable");
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kSort;
  desc.team = team;
  desc.buf = keys.data();
  desc.bytes = keys.size() * sizeof(T);
  desc.elem_size = sizeof(T);
  desc.sort_sink = &keys;
  desc.sort_assign = [](void* sink, const std::uint8_t* data,
                        std::size_t bytes) {
    auto* out = static_cast<std::vector<T>*>(sink);
    out->resize(bytes / sizeof(T));
    if (bytes > 0) {  // an empty result may come with null pointers
      std::memcpy(out->data(), data, bytes);
    }
  };
  desc.sort_sort = [](std::uint8_t* data, std::size_t bytes) {
    T* keys_begin = reinterpret_cast<T*>(data);
    std::sort(keys_begin, keys_begin + bytes / sizeof(T));
  };
  desc.sort_less = [](const std::uint8_t* a, const std::uint8_t* b) {
    return *reinterpret_cast<const T*>(a) < *reinterpret_cast<const T*>(b);
  };
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

}  // namespace caf2
