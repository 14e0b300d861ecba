/// Unit tests for the support library: RNGs (including the HPCC stream and
/// its logarithmic jump), SHA-1 against FIPS 180-1 vectors, the
/// serialization archive, statistics, and the table printer.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "support/config.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/sha1.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace caf2;

/// --- SplitMix64 / xoshiro -----------------------------------------------

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference sequence for seed 0 (Steele/Lea/Flood reference code).
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(rng.next(), 0x06C45D188009454FULL);
}

TEST(SplitMix64, ChildrenAreIndependentOfCallOrder) {
  SplitMix64 parent(42);
  const std::uint64_t child3 = parent.child(3);
  const std::uint64_t child7 = parent.child(7);
  SplitMix64 parent2(42);
  EXPECT_EQ(parent2.child(7), child7);
  EXPECT_EQ(parent2.child(3), child3);
  EXPECT_NE(child3, child7);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256ss a(123);
  Xoshiro256ss b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256ss rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowCoversAllResidues) {
  Xoshiro256ss rng(9);
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < 3000; ++i) {
    histogram[rng.next_below(7)] += 1;
  }
  EXPECT_EQ(histogram.size(), 7u);
  for (const auto& [value, count] : histogram) {
    EXPECT_GT(count, 200) << "residue " << value << " underrepresented";
  }
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256ss rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

/// --- HPCC random stream ----------------------------------------------------

TEST(HpccRandom, StartsMatchesIteration) {
  HpccRandom iterated(0);
  std::uint64_t x = iterated.peek();
  for (int n = 0; n <= 200; ++n) {
    EXPECT_EQ(HpccRandom::starts(n), x) << "position " << n;
    x = (x << 1) ^ ((static_cast<std::int64_t>(x) < 0) ? HpccRandom::kPoly : 0);
  }
}

TEST(HpccRandom, StartsAtZeroIsOne) {
  EXPECT_EQ(HpccRandom::starts(0), 1u);
}

TEST(HpccRandom, NegativePositionsWrapAroundPeriod) {
  EXPECT_EQ(HpccRandom::starts(-1),
            HpccRandom::starts(HpccRandom::kPeriod - 1));
}

TEST(HpccRandom, JumpThenIterateEqualsDirectJump) {
  HpccRandom stream(1000);
  for (int i = 0; i < 50; ++i) {
    stream.next();
  }
  EXPECT_EQ(stream.peek(), HpccRandom::starts(1050));
}

TEST(HpccRandom, NextReturnsCurrentThenAdvances) {
  HpccRandom stream(12345);
  const std::uint64_t first = stream.peek();
  EXPECT_EQ(stream.next(), first);
  EXPECT_NE(stream.peek(), first);
}

/// --- SHA-1 ------------------------------------------------------------------

std::span<const std::uint8_t> bytes_of(const char* text) {
  return {reinterpret_cast<const std::uint8_t*>(text), std::strlen(text)};
}

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(bytes_of(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.update(bytes_of(chunk.c_str()));
  }
  EXPECT_EQ(Sha1::to_hex(hasher.digest()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalEqualsOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog!";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Sha1 hasher;
    hasher.update(bytes_of(text.substr(0, split).c_str()));
    hasher.update(bytes_of(text.substr(split).c_str()));
    EXPECT_EQ(hasher.digest(), Sha1::hash(bytes_of(text.c_str())))
        << "split at " << split;
  }
  // Lengths 0..130 cross every padding edge (55/56 bytes in the last block,
  // 63/64 at a block boundary, 119/120 one block later).
  std::vector<std::uint8_t> message;
  for (std::size_t length = 0; length <= 130; ++length) {
    Sha1 bytewise;
    for (std::uint8_t byte : message) {
      bytewise.update(std::span<const std::uint8_t>(&byte, 1));
    }
    EXPECT_EQ(bytewise.digest(), Sha1::hash(message)) << "length " << length;
    message.push_back(static_cast<std::uint8_t>(length * 37 + 11));
  }
}

TEST(Sha1, ResetRestartsCleanly) {
  Sha1 hasher;
  hasher.update(bytes_of("garbage"));
  hasher.reset();
  hasher.update(bytes_of("abc"));
  EXPECT_EQ(Sha1::to_hex(hasher.digest()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

/// --- serialization -----------------------------------------------------------

TEST(Serialize, ScalarRoundTrip) {
  WriteArchive out;
  out.write(std::int32_t{-7});
  out.write(std::uint64_t{1ULL << 60});
  out.write(3.5);
  out.write(true);

  ReadArchive in(out.bytes());
  EXPECT_EQ(in.read<std::int32_t>(), -7);
  EXPECT_EQ(in.read<std::uint64_t>(), 1ULL << 60);
  EXPECT_EQ(in.read<double>(), 3.5);
  EXPECT_EQ(in.read<bool>(), true);
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialize, StringsAndVectors) {
  WriteArchive out;
  out.write(std::string("hello coarray"));
  out.write(std::vector<int>{1, 2, 3});
  out.write(std::vector<std::string>{"a", "", "ccc"});

  ReadArchive in(out.bytes());
  EXPECT_EQ(in.read<std::string>(), "hello coarray");
  EXPECT_EQ(in.read<std::vector<int>>(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(in.read<std::vector<std::string>>(),
            (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(Serialize, TuplesAndPairs) {
  WriteArchive out;
  out.write(std::pair<int, double>{4, 0.5});
  out.write(std::tuple<int, std::string, char>{1, "x", 'z'});

  ReadArchive in(out.bytes());
  EXPECT_EQ((in.read<std::pair<int, double>>()),
            (std::pair<int, double>{4, 0.5}));
  EXPECT_EQ((in.read<std::tuple<int, std::string, char>>()),
            (std::tuple<int, std::string, char>{1, "x", 'z'}));
}

TEST(Serialize, PackUnpackPreservesOrder) {
  auto bytes = pack_values(std::int64_t{10}, std::string("mid"),
                           std::vector<double>{1.0, 2.0});
  auto [a, b, c] = unpack_values<std::int64_t, std::string,
                                 std::vector<double>>(bytes);
  EXPECT_EQ(a, 10);
  EXPECT_EQ(b, "mid");
  EXPECT_EQ(c, (std::vector<double>{1.0, 2.0}));
}

TEST(Serialize, ReadPastEndFails) {
  WriteArchive out;
  out.write(std::int32_t{1});
  ReadArchive in(out.bytes());
  (void)in.read<std::int32_t>();
  EXPECT_THROW((void)in.read<std::int32_t>(), FatalError);
}

TEST(Serialize, TrailingBytesDetectedByUnpack) {
  auto bytes = pack_values(std::int32_t{1}, std::int32_t{2});
  EXPECT_THROW((unpack_values<std::int32_t>(bytes)), FatalError);
}

/// --- statistics ----------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, MergeEqualsCombinedStream) {
  Accumulator left;
  Accumulator right;
  Accumulator whole;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3;
    (i % 2 == 0 ? left : right).add(v);
    whole.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> samples{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.25), 2.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram histogram(0.0, 10.0, 5);
  histogram.add(-100.0);  // clamps into first bucket
  histogram.add(0.5);
  histogram.add(9.9);
  histogram.add(100.0);  // clamps into last bucket
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_EQ(histogram.bucket(4), 2u);
  EXPECT_EQ(histogram.total(), 4u);
  EXPECT_FALSE(histogram.render().empty());
}

/// --- table ------------------------------------------------------------------------

TEST(Table, RendersAlignedRowsAndCsv) {
  Table table("demo");
  table.columns({"name", "count", "ratio"}).precision(2);
  table.add_row({std::string("alpha"), 7LL, 0.123});
  table.add_row({std::string("b"), 10000LL, 45.6});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("0.12"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("name,count,ratio"), std::string::npos);
  EXPECT_NE(csv.find("alpha,7,0.12"), std::string::npos);
}

TEST(Table, RowWidthMismatchRejected) {
  Table table("demo");
  table.columns({"a", "b"});
  EXPECT_THROW(table.add_row({1LL}), UsageError);
}

/// --- config -------------------------------------------------------------------------

TEST(NetworkParams, InstantHasNoDelays) {
  const NetworkParams instant = NetworkParams::instant();
  EXPECT_EQ(instant.latency_us, 0.0);
  EXPECT_EQ(instant.effective_ack_latency_us(), 0.0);
}

TEST(NetworkParams, AckLatencyDefaultsToWireLatency) {
  NetworkParams params;
  params.latency_us = 3.0;
  params.ack_latency_us = -1.0;
  EXPECT_EQ(params.effective_ack_latency_us(), 3.0);
  params.ack_latency_us = 0.5;
  EXPECT_EQ(params.effective_ack_latency_us(), 0.5);
}

}  // namespace
