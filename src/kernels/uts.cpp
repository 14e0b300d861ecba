#include "kernels/uts.hpp"

#include <cmath>
#include <cstring>

namespace caf2::kernels {

UtsNode UtsTree::root() const {
  std::uint8_t seed_bytes[8];
  for (int i = 0; i < 8; ++i) {
    seed_bytes[i] = static_cast<std::uint8_t>(root_seed >> (8 * i));
  }
  UtsNode node;
  node.digest = Sha1::hash(std::span<const std::uint8_t>(seed_bytes, 8));
  node.depth = 0;
  return node;
}

double UtsTree::log_fail() const {
  const double q = 1.0 / (b0 + 1.0);  // success probability
  return std::log(1.0 - q);
}

int UtsTree::child_count(const UtsNode& node, double log_fail) const {
  if (node.depth >= max_depth) {
    return 0;
  }
  if (node.depth == 0) {
    // UTS geometric trees give the root exactly b0 children.
    return static_cast<int>(b0 + 0.5);
  }
  // Geometric law with mean b0: interpret the first four descriptor bytes
  // as a uniform value u in [0,1) and invert the geometric CDF.
  const std::uint32_t raw = (static_cast<std::uint32_t>(node.digest[0]) << 24) |
                            (static_cast<std::uint32_t>(node.digest[1]) << 16) |
                            (static_cast<std::uint32_t>(node.digest[2]) << 8) |
                            static_cast<std::uint32_t>(node.digest[3]);
  const double u =
      (static_cast<double>(raw) + 0.5) / 4294967296.0;  // (0,1)
  const int m = static_cast<int>(std::floor(std::log(1.0 - u) / log_fail));
  return m < 0 ? 0 : m;
}

UtsNode UtsTree::child(const UtsNode& node, int index) {
  std::uint8_t buffer[Sha1::kDigestBytes + 4];
  std::memcpy(buffer, node.digest.data(), Sha1::kDigestBytes);
  buffer[Sha1::kDigestBytes + 0] = static_cast<std::uint8_t>(index >> 24);
  buffer[Sha1::kDigestBytes + 1] = static_cast<std::uint8_t>(index >> 16);
  buffer[Sha1::kDigestBytes + 2] = static_cast<std::uint8_t>(index >> 8);
  buffer[Sha1::kDigestBytes + 3] = static_cast<std::uint8_t>(index);
  UtsNode out;
  out.digest = Sha1::hash(
      std::span<const std::uint8_t>(buffer, sizeof(buffer)));
  out.depth = node.depth + 1;
  return out;
}

std::uint64_t UtsTree::count_subtree(const UtsNode& root_node) const {
  // Explicit stack: the tree can be deep and very unbalanced.
  std::vector<UtsNode> stack{root_node};
  const double divisor = log_fail();
  std::uint64_t count = 0;
  while (!stack.empty()) {
    const UtsNode node = stack.back();
    stack.pop_back();
    ++count;
    const int kids = child_count(node, divisor);
    for (int i = 0; i < kids; ++i) {
      stack.push_back(child(node, i));
    }
  }
  return count;
}

}  // namespace caf2::kernels
