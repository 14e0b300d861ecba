#include "support/sha1.hpp"

#include <bit>
#include <cstring>

namespace caf2 {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// The three round functions of FIPS 180-4 §4.1.1. ch and maj are the
// usual branch-free rewrites of (b & c) | (~b & d) and
// (b & c) | (b & d) | (c & d).
std::uint32_t f_ch(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
std::uint32_t f_parity(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}
std::uint32_t f_maj(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & c) | (d & (b | c));
}

}  // namespace

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::digest() {
  // update() never leaves a full block buffered, so the 0x80 byte fits. The
  // 8-byte length goes in bytes 56..63; when the tail has no room for it
  // (more than 55 message bytes buffered), pad out and compress one extra
  // block first.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  store_be32(buffer_.data() + 56, static_cast<std::uint32_t>(bit_length >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_length));
  process_block(buffer_.data());

  Digest out{};
  for (int i = 0; i < 5; ++i) {
    store_be32(out.data() + 4 * i, h_[static_cast<std::size_t>(i)]);
  }
  return out;
}

// One round: e absorbs a's rotation, the round function of b, c, d, the
// constant and the schedule word; b rotates by 30. Instead of shifting the
// five variables down after each round, the next round names them in
// rotated order (e, a, b, c, d), so five rounds bring the names back.
#define CAF2_SHA1_ROUND(a, b, c, d, e, f, k, wt)    \
  do {                                               \
    e += std::rotl(a, 5) + f(b, c, d) + (k) + (wt); \
    b = std::rotl(b, 30);                            \
  } while (0)

// Schedule word t from a 16-word ring: the first 16 are the block itself,
// later ones overwrite slot t & 15 (W[t-16]) in place. t is a literal, so
// the comparison folds away.
#define CAF2_SHA1_W(t)                                                 \
  ((t) < 16 ? w[(t) & 15]                                              \
            : (w[(t) & 15] = std::rotl(w[((t) + 13) & 15] ^            \
                                           w[((t) + 8) & 15] ^         \
                                           w[((t) + 2) & 15] ^         \
                                           w[(t) & 15],                \
                                       1)))

#define CAF2_SHA1_ROUND5(f, k, t)                               \
  CAF2_SHA1_ROUND(a, b, c, d, e, f, k, CAF2_SHA1_W(t));         \
  CAF2_SHA1_ROUND(e, a, b, c, d, f, k, CAF2_SHA1_W((t) + 1));   \
  CAF2_SHA1_ROUND(d, e, a, b, c, f, k, CAF2_SHA1_W((t) + 2));   \
  CAF2_SHA1_ROUND(c, d, e, a, b, f, k, CAF2_SHA1_W((t) + 3));   \
  CAF2_SHA1_ROUND(b, c, d, e, a, f, k, CAF2_SHA1_W((t) + 4))

#define CAF2_SHA1_ROUND20(f, k, t)     \
  CAF2_SHA1_ROUND5(f, k, t);           \
  CAF2_SHA1_ROUND5(f, k, (t) + 5);     \
  CAF2_SHA1_ROUND5(f, k, (t) + 10);    \
  CAF2_SHA1_ROUND5(f, k, (t) + 15)

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = load_be32(block + 4 * t);
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  CAF2_SHA1_ROUND20(f_ch, 0x5A827999u, 0);
  CAF2_SHA1_ROUND20(f_parity, 0x6ED9EBA1u, 20);
  CAF2_SHA1_ROUND20(f_maj, 0x8F1BBCDCu, 40);
  CAF2_SHA1_ROUND20(f_parity, 0xCA62C1D6u, 60);
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

#undef CAF2_SHA1_ROUND20
#undef CAF2_SHA1_ROUND5
#undef CAF2_SHA1_W
#undef CAF2_SHA1_ROUND

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 hasher;
  hasher.update(data);
  return hasher.digest();
}

std::string Sha1::to_hex(const Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(2 * digest.size());
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace caf2
