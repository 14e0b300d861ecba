#include "obs/obs.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

namespace caf2::obs {

SpanLog::SpanLog(const SpanLog& other)
    : owner_(other.owner_),
      size_(other.size_),
      capacity_(other.capacity_),
      shift_(other.shift_) {
  // Copy block by block at the source's capacity, so a copied growing log
  // can keep growing; only the filled part of each block is read.
  const std::size_t block_spans = std::size_t{1} << shift_;
  const std::size_t per_block = std::min(block_spans, capacity_);
  records_.reserve(other.records_.size());
  origins_.reserve(other.origins_.size());
  for (std::size_t b = 0; b < other.records_.size(); ++b) {
    const std::size_t filled =
        std::min(per_block, size_ - std::min(size_, b * block_spans));
    records_.push_back(std::make_unique_for_overwrite<Record[]>(per_block));
    std::copy_n(other.records_[b].get(), filled, records_.back().get());
    if (owner_ < 0) {
      origins_.push_back(std::make_unique_for_overwrite<Origin[]>(per_block));
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

void SpanLog::sort_by_time() {
  CAF2_ASSERT(records_.size() <= 1, "SpanLog::sort_by_time: more than one "
                                    "block");
  // Sort (begin, index) keys, which sit contiguously and settle nearly every
  // comparison, then move the records once.
  struct Key {
    double begin;
    std::uint32_t index;
  };
  std::vector<Key> keys(size_);
  for (std::uint32_t i = 0; i < size_; ++i) {
    keys[i] = {records_.front()[i].begin, i};
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& x, const Key& y) {
    if (x.begin != y.begin) {
      return x.begin < y.begin;
    }
    const Span a = (*this)[x.index];
    const Span b = (*this)[y.index];
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
  std::vector<std::uint32_t> order(size_);
  for (std::size_t k = 0; k < size_; ++k) {
    order[k] = keys[k].index;
  }
  keys = {};
  permute(order);
}

void SpanLog::permute(std::vector<std::uint32_t>& order) {
  if (size_ == 0) {
    return;
  }
  CAF2_ASSERT(records_.size() == 1 && (owner_ >= 0 || origins_.size() == 1),
              "SpanLog::sort: the log must be one block");
  Record* records = records_.front().get();
  Origin* origins = owner_ < 0 ? origins_.front().get() : nullptr;
  // Follow each cycle of the permutation once; order[k] = k marks slot k
  // done.
  for (std::uint32_t start = 0; start < size_; ++start) {
    if (order[start] == start) {
      continue;
    }
    const Record record = records[start];
    const Origin origin = origins != nullptr ? origins[start] : Origin{};
    std::uint32_t k = start;
    for (;;) {
      const std::uint32_t from = order[k];
      order[k] = k;
      if (from == start) {
        records[k] = record;
        if (origins != nullptr) {
          origins[k] = origin;
        }
        break;
      }
      records[k] = records[from];
      if (origins != nullptr) {
        origins[k] = origins[from];
      }
      k = from;
    }
  }
}

template <class Part>
SpanLog SpanLog::concat_parts(const std::vector<Part*>& parts) {
  std::size_t total = 0;
  for (const SpanLog* part : parts) {
    CAF2_ASSERT(part->owner_ < 0, "SpanLog::concat: parts must be owner -1");
    total += part->size_;
  }
  SpanLog out;
  if (total == 0) {
    return out;
  }
  CAF2_ASSERT(total < std::numeric_limits<std::uint32_t>::max(),
              "SpanLog::concat: more than 2^32 spans");
  out.records_.push_back(std::make_unique_for_overwrite<Record[]>(total));
  out.origins_.push_back(std::make_unique_for_overwrite<Origin[]>(total));
  out.capacity_ = total;
  out.shift_ = 32;
  for (Part* part : parts) {
    const std::size_t block_spans = std::size_t{1} << part->shift_;
    for (std::size_t b = 0; b < part->records_.size(); ++b) {
      const std::size_t filled =
          std::min(block_spans, part->size_ - b * block_spans);
      std::copy_n(part->records_[b].get(), filled,
                  out.records_.front().get() + out.size_);
      std::copy_n(part->origins_[b].get(), filled,
                  out.origins_.front().get() + out.size_);
      out.size_ += filled;
      if constexpr (!std::is_const_v<Part>) {
        part->records_[b].reset();
        part->origins_[b].reset();
      }
    }
    if constexpr (!std::is_const_v<Part>) {
      *part = SpanLog();
    }
  }
  return out;
}

SpanLog SpanLog::concat(const std::vector<const SpanLog*>& parts) {
  return concat_parts(parts);
}

SpanLog SpanLog::concat(const std::vector<SpanLog*>& parts) {
  return concat_parts(parts);
}

}  // namespace caf2::obs
