#include <cstring>

#include "ops/coll_detail.hpp"
#include "support/serialize.hpp"

/// \file sort.cpp
/// Distributed sample sort — the `sort` entry of the paper's asynchronous
/// collective vision (§II-C3). Three asynchronous phases:
///
///   stage 0  every member ships up to p evenly-spaced local samples to
///            team rank 0;
///   stage 1  rank 0 sorts the p·p samples, picks p-1 splitters, and ships
///            them to every member;
///   stage 2  members partition their (locally sorted) keys by splitter and
///            exchange partitions all-to-all; each member sorts the
///            concatenation of what it received.
///
/// The result is range-partitioned by team rank: rank 0 ends with the
/// smallest keys. Like every collective here it is asynchronous, with the
/// usual src_done / local_done events, cofence, and finish integration.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

class SortImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

  static constexpr int kStageSamples = 0;
  static constexpr int kStageSplitters = 1;
  static constexpr int kStagePartition = 2;

 protected:
  void begin(Image& image) override {
    const std::size_t es = desc().elem_size;
    keys_.assign(static_cast<const std::uint8_t*>(desc().buf),
                 static_cast<const std::uint8_t*>(desc().buf) +
                     desc().bytes);
    desc().sort_sort(keys_.data(), keys_.size());
    const int p = team_size();

    if (p == 1) {
      desc().sort_assign(desc().sort_sink, keys_.data(), keys_.size());
      done_ = true;
      mark_data_done(image);
      return;
    }

    // Ship up to p evenly-spaced samples to team rank 0 (always send the
    // message, possibly empty, so rank 0 can count contributions).
    const std::size_t n = keys_.size() / es;
    WriteArchive archive;
    const auto sample_count =
        static_cast<std::int32_t>(std::min<std::size_t>(n, p));
    archive.write(sample_count);
    for (std::int32_t s = 0; s < sample_count; ++s) {
      const std::size_t index =
          (static_cast<std::size_t>(s) + 1) * n / (sample_count + 1);
      archive.write_bytes(keys_.data() + index * es, es);
    }
    const auto packed = archive.take();
    if (team_rank() == 0) {
      absorb_samples(image, packed);
    } else {
      send_stage(image, 0, kStageSamples, packed.data(), packed.size());
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    switch (msg.stage) {
      case kStageSamples:
        absorb_samples(image, msg.data);
        break;
      case kStageSplitters:
        accept_splitters(image, msg.data);
        break;
      case kStagePartition:
        partitions_.push_back(std::move(msg.data));
        ++parts_received_;
        try_finish(image);
        break;
      default:
        CAF2_ASSERT(false, "sort: unknown stage");
    }
  }

  bool role_done() const override { return done_; }

 private:
  void absorb_samples(Image& image, const std::vector<std::uint8_t>& data) {
    const std::size_t es = desc().elem_size;
    ReadArchive archive(data);
    const auto count = archive.read<std::int32_t>();
    for (std::int32_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t> key(es);
      archive.read_bytes(key.data(), es);
      samples_.push_back(std::move(key));
    }
    ++sample_contributions_;
    if (sample_contributions_ < team_size()) {
      return;
    }
    // All contributions in: sort the samples and pick p-1 splitters.
    auto less = desc().sort_less;
    std::sort(samples_.begin(), samples_.end(),
              [less](const std::vector<std::uint8_t>& a,
                     const std::vector<std::uint8_t>& b) {
                return less(a.data(), b.data());
              });
    const int p = team_size();
    WriteArchive archive_out;
    std::int32_t splitter_count = 0;
    std::vector<std::uint8_t> packed_splitters;
    {
      WriteArchive body;
      for (int j = 1; j < p; ++j) {
        const std::size_t index =
            static_cast<std::size_t>(j) * samples_.size() / p;
        if (index < samples_.size()) {
          body.write_bytes(samples_[index].data(), es);
          ++splitter_count;
        }
      }
      archive_out.write(splitter_count);
      const auto& bytes = body.bytes();
      archive_out.write_bytes(bytes.data(), bytes.size());
      packed_splitters = archive_out.take();
    }
    for (int r = 1; r < p; ++r) {
      send_stage(image, r, kStageSplitters, packed_splitters.data(),
                 packed_splitters.size());
    }
    accept_splitters(image, packed_splitters);
  }

  void accept_splitters(Image& image, const std::vector<std::uint8_t>& data) {
    const std::size_t es = desc().elem_size;
    ReadArchive archive(data);
    const auto count = archive.read<std::int32_t>();
    splitters_.clear();
    for (std::int32_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t> key(es);
      archive.read_bytes(key.data(), es);
      splitters_.push_back(std::move(key));
    }
    // Partition the locally sorted keys: partition j receives keys in
    // [splitter[j-1], splitter[j]) — with fewer splitters than p-1 the tail
    // partitions stay empty, which is still correct (just unbalanced).
    auto less = desc().sort_less;
    const std::size_t n = keys_.size() / es;
    const int p = team_size();
    std::size_t cursor = 0;
    for (int part = 0; part < p; ++part) {
      const std::size_t first = cursor;
      while (cursor < n &&
             (part >= static_cast<int>(splitters_.size()) ||
              less(keys_.data() + cursor * es, splitters_[part].data()))) {
        ++cursor;
      }
      const std::size_t bytes = (cursor - first) * es;
      if (part == team_rank()) {
        partitions_.emplace_back(keys_.data() + first * es,
                                 keys_.data() + first * es + bytes);
        ++parts_received_;
      } else {
        send_stage(image, part, kStagePartition, keys_.data() + first * es,
                   bytes);
      }
    }
    CAF2_ASSERT(cursor == n, "sort: partitioning lost keys");
    sent_parts_ = true;
    try_finish(image);
  }

  void try_finish(Image& image) {
    if (done_ || !sent_parts_ || parts_received_ < team_size()) {
      return;
    }
    done_ = true;
    std::vector<std::uint8_t> merged;
    for (const auto& part : partitions_) {
      merged.insert(merged.end(), part.begin(), part.end());
    }
    desc().sort_sort(merged.data(), merged.size());
    desc().sort_assign(desc().sort_sink, merged.data(), merged.size());
    mark_data_done(image);
  }

  bool done_ = false;
  bool sent_parts_ = false;
  int sample_contributions_ = 0;
  int parts_received_ = 0;
  std::vector<std::uint8_t> keys_;
  std::vector<std::vector<std::uint8_t>> samples_;
  std::vector<std::vector<std::uint8_t>> splitters_;
  std::vector<std::vector<std::uint8_t>> partitions_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_sort_impl(rt::CollKey key, CollDesc desc) {
  CAF2_REQUIRE(desc.elem_size > 0 && desc.sort_assign != nullptr &&
                   desc.sort_sort != nullptr && desc.sort_less != nullptr,
               "sort collective missing type plumbing");
  return std::make_unique<SortImpl>(key, std::move(desc));
}

}  // namespace caf2::ops::detail
