#pragma once

/// \file uts.hpp
/// Unbalanced Tree Search — the tree itself (paper §IV-C, Olivier et al.
/// LCPC'06).
///
/// UTS counts the nodes of an implicit, highly unbalanced tree. Each node is
/// characterized by a 20-byte descriptor; a child's descriptor is the SHA-1
/// hash of its parent's descriptor concatenated with the child index, so the
/// tree is a pure function of the root seed and needs no explicit links.
/// We implement the geometric ("fixed" law) tree shape the paper evaluates
/// (T1WL-style: expected branching factor 4, bounded depth), with the
/// parameters scaled for simulation.

#include <array>
#include <cstdint>
#include <vector>

#include "support/sha1.hpp"

namespace caf2::kernels {

/// One tree node: SHA-1 descriptor plus its depth.
struct UtsNode {
  std::array<std::uint8_t, Sha1::kDigestBytes> digest{};
  std::int32_t depth = 0;
};
static_assert(std::is_trivially_copyable_v<UtsNode>,
              "UTS nodes travel inside shipped-function payloads");

/// Tree-shape parameters (geometric law).
struct UtsTree {
  double b0 = 4.0;        ///< expected branching factor at the root
  int max_depth = 8;      ///< nodes at max_depth are leaves
  std::uint64_t root_seed = 19;  ///< the paper's initial seed

  /// Descriptor of the root node.
  UtsNode root() const;

  /// log(1 - q) for the geometric law's success probability q = 1/(b0 + 1):
  /// the divisor of every child_count(), so callers compute it once per tree.
  double log_fail() const;

  /// Number of children of \p node under the geometric law; \p log_fail is
  /// this tree's log_fail().
  int child_count(const UtsNode& node, double log_fail) const;

  /// Descriptor of child \p index of \p node.
  static UtsNode child(const UtsNode& node, int index);

  /// Sequential node count of the subtree rooted at \p node (used for the
  /// T1 baseline and for validation); appends nothing, just counts.
  std::uint64_t count_subtree(const UtsNode& node) const;

  /// Sequential count of the whole tree.
  std::uint64_t count_tree() const { return count_subtree(root()); }
};

}  // namespace caf2::kernels
