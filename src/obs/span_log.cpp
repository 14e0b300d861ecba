#include "obs/obs.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace caf2::obs {

SpanLog::SpanLog(const SpanLog& other)
    : owner_(other.owner_), size_(other.size_), capacity_(other.capacity_) {
  // Copy block by block, so a copied log can keep growing; only the filled
  // part of each block is read.
  records_.reserve(other.records_.size());
  origins_.reserve(other.origins_.size());
  for (std::size_t b = 0; b < other.records_.size(); ++b) {
    const std::size_t filled =
        std::min(kBlockSpans, size_ - std::min(size_, b * kBlockSpans));
    records_.push_back(std::make_unique_for_overwrite<Record[]>(kBlockSpans));
    std::copy_n(other.records_[b].get(), filled, records_.back().get());
    if (owner_ < 0) {
      origins_.push_back(std::make_unique_for_overwrite<Origin[]>(kBlockSpans));
      std::copy_n(other.origins_[b].get(), filled, origins_.back().get());
    }
  }
}

SpanLog& SpanLog::operator=(const SpanLog& other) {
  if (this != &other) {
    *this = SpanLog(other);
  }
  return *this;
}

void SpanLog::add_block() {
  records_.push_back(std::make_unique_for_overwrite<Record[]>(kBlockSpans));
  if (owner_ < 0) {
    origins_.push_back(std::make_unique_for_overwrite<Origin[]>(kBlockSpans));
  }
  capacity_ += kBlockSpans;
}

SpanLog SpanLog::gather(const std::vector<SpanLog*>& parts) {
  SpanLog out;
  // Full blocks first: they move whole, and every index stays dense.
  for (SpanLog* part : parts) {
    CAF2_ASSERT(part->owner_ < 0, "SpanLog::gather: parts must be owner -1");
    const std::size_t full = part->size_ / kBlockSpans;
    for (std::size_t b = 0; b < full; ++b) {
      out.records_.push_back(std::move(part->records_[b]));
      out.origins_.push_back(std::move(part->origins_[b]));
    }
    out.size_ += full * kBlockSpans;
    out.capacity_ += full * kBlockSpans;
  }
  for (SpanLog* part : parts) {
    for (std::size_t i = part->size_ & ~(kBlockSpans - 1); i < part->size_;
         ++i) {
      out.append(part->record_at(i), part->origin_at(i));
    }
    *part = SpanLog();
  }
  return out;
}

void SpanLog::sort_by_time() {
  CAF2_ASSERT(size_ < std::numeric_limits<std::uint32_t>::max(),
              "SpanLog::sort_by_time: more than 2^32 spans");
  std::vector<std::uint32_t> order(size_);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // The stored begin settles nearly every comparison; ties decode.
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    const double x_begin = record_at(x).begin;
    const double y_begin = record_at(y).begin;
    if (x_begin != y_begin) {
      return x_begin < y_begin;
    }
    const Span a = (*this)[x];
    const Span b = (*this)[y];
    if (a.end != b.end) {
      return a.end < b.end;
    }
    if (a.image != b.image) {
      return a.image < b.image;
    }
    if (a.peer != b.peer) {
      return a.peer < b.peer;
    }
    return a.id < b.id;
  });
  permute(order);
}

void SpanLog::permute(std::vector<std::uint32_t>& order) {
  // Follow each cycle of the permutation once; order[k] = k marks slot k
  // done.
  const bool has_origins = owner_ < 0;
  for (std::uint32_t start = 0; start < size_; ++start) {
    if (order[start] == start) {
      continue;
    }
    const Record record = record_at(start);
    const Origin origin = has_origins ? origin_at(start) : Origin{};
    std::uint32_t k = start;
    for (;;) {
      const std::uint32_t from = order[k];
      order[k] = k;
      if (from == start) {
        record_at(k) = record;
        if (has_origins) {
          origin_at(k) = origin;
        }
        break;
      }
      record_at(k) = record_at(from);
      if (has_origins) {
        origin_at(k) = origin_at(from);
      }
      k = from;
    }
  }
}

}  // namespace caf2::obs
