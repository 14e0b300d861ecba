#include "ops/coll_algo.hpp"

#include <array>
#include <bit>
#include <string>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace caf2 {

const char* to_string(CollAlgorithm algorithm) {
  switch (algorithm) {
    case CollAlgorithm::kAuto:
      return "auto";
    case CollAlgorithm::kBinomialTree:
      return "binomial";
    case CollAlgorithm::kKnomialTree:
      return "knomial";
    case CollAlgorithm::kRing:
      return "ring";
    case CollAlgorithm::kRecursiveDoubling:
      return "recursive_doubling";
    case CollAlgorithm::kDissemination:
      return "dissemination";
    case CollAlgorithm::kDirect:
      return "direct";
  }
  return "?";
}

namespace ops {

const char* to_string(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier:
      return "barrier";
    case CollKind::kBroadcast:
      return "broadcast";
    case CollKind::kReduce:
      return "reduce";
    case CollKind::kAllreduce:
      return "allreduce";
    case CollKind::kGather:
      return "gather";
    case CollKind::kScatter:
      return "scatter";
    case CollKind::kAlltoall:
      return "alltoall";
    case CollKind::kScan:
      return "scan";
    case CollKind::kSort:
      return "sort";
    case CollKind::kAllgather:
      return "allgather";
    case CollKind::kReduceScatter:
      return "reduce_scatter";
    case CollKind::kGatherv:
      return "gatherv";
    case CollKind::kScatterv:
      return "scatterv";
    case CollKind::kAlltoallv:
      return "alltoallv";
  }
  return "?";
}

namespace {

// Per-kind schedule lists, default first — default_algorithm() relies on it.
constexpr CollAlgorithm kBarrierAlgos[] = {CollAlgorithm::kDissemination,
                                           CollAlgorithm::kBinomialTree};
constexpr CollAlgorithm kBroadcastAlgos[] = {CollAlgorithm::kBinomialTree,
                                             CollAlgorithm::kKnomialTree,
                                             CollAlgorithm::kRing};
constexpr CollAlgorithm kReduceAlgos[] = {CollAlgorithm::kBinomialTree,
                                          CollAlgorithm::kKnomialTree};
constexpr CollAlgorithm kAllreduceAlgos[] = {
    CollAlgorithm::kBinomialTree, CollAlgorithm::kRing,
    CollAlgorithm::kRecursiveDoubling};
constexpr CollAlgorithm kTreeOrDirectAlgos[] = {CollAlgorithm::kBinomialTree,
                                                CollAlgorithm::kDirect};
constexpr CollAlgorithm kDirectAlgos[] = {CollAlgorithm::kDirect};
// Hillis-Steele is the recursive-doubling schedule.
constexpr CollAlgorithm kScanAlgos[] = {CollAlgorithm::kRecursiveDoubling};
constexpr CollAlgorithm kAllgatherAlgos[] = {
    CollAlgorithm::kRing, CollAlgorithm::kRecursiveDoubling,
    CollAlgorithm::kDirect};
constexpr CollAlgorithm kReduceScatterAlgos[] = {CollAlgorithm::kRing,
                                                 CollAlgorithm::kDirect};

}  // namespace

std::span<const CollAlgorithm> supported_algorithms(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier:
      return kBarrierAlgos;
    case CollKind::kBroadcast:
      return kBroadcastAlgos;
    case CollKind::kReduce:
      return kReduceAlgos;
    case CollKind::kAllreduce:
      return kAllreduceAlgos;
    case CollKind::kGather:
    case CollKind::kScatter:
      return kTreeOrDirectAlgos;
    case CollKind::kScan:
      return kScanAlgos;
    case CollKind::kAllgather:
      return kAllgatherAlgos;
    case CollKind::kReduceScatter:
      return kReduceScatterAlgos;
    case CollKind::kAlltoall:
    case CollKind::kSort:  // sample sort's splitter exchange is pairwise
    case CollKind::kGatherv:
    case CollKind::kScatterv:
    case CollKind::kAlltoallv:
      return kDirectAlgos;
  }
  throw UsageError("unknown collective kind");
}

CollAlgorithm default_algorithm(CollKind kind) {
  return supported_algorithms(kind).front();
}

bool algorithm_supported(CollKind kind, CollAlgorithm algorithm) {
  for (const CollAlgorithm candidate : supported_algorithms(kind)) {
    if (candidate == algorithm) {
      return true;
    }
  }
  return false;
}

CollAlgorithm resolve_algorithm(CollKind kind, CollAlgorithm requested,
                                int team_size) {
  CollAlgorithm algorithm = requested;
  if (algorithm == CollAlgorithm::kAuto) {
    algorithm = default_algorithm(kind);
  } else {
    CAF2_REQUIRE(algorithm_supported(kind, algorithm),
                 std::string("collective algorithm \"") +
                     to_string(algorithm) + "\" is not implemented for " +
                     to_string(kind));
  }
  // Structural clamps: keep the choice runnable on this team.
  if (kind == CollKind::kAllgather &&
      algorithm == CollAlgorithm::kRecursiveDoubling &&
      !std::has_single_bit(static_cast<unsigned>(team_size))) {
    algorithm = CollAlgorithm::kRing;
  }
  return algorithm;
}

const char* coll_span_label(CollKind kind, CollAlgorithm algorithm) {
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(CollKind::kAlltoallv) + 1;
  constexpr std::size_t kAlgorithms =
      static_cast<std::size_t>(CollAlgorithm::kDirect) + 1;
  // Every (kind, algorithm) label is interned once, on first use.
  static const auto labels = [] {
    std::array<std::array<const char*, kAlgorithms>, kKinds> table{};
    for (std::size_t k = 0; k < kKinds; ++k) {
      for (std::size_t a = 0; a < kAlgorithms; ++a) {
        table[k][a] = obs::intern_label(
            std::string(to_string(static_cast<CollKind>(k))) + "/" +
            to_string(static_cast<CollAlgorithm>(a)));
      }
    }
    return table;
  }();
  CAF2_ASSERT(static_cast<std::size_t>(kind) < kKinds &&
                  static_cast<std::size_t>(algorithm) < kAlgorithms,
              "coll_span_label: kind or algorithm past the label table");
  return labels[static_cast<std::size_t>(kind)]
               [static_cast<std::size_t>(algorithm)];
}

}  // namespace ops
}  // namespace caf2
