#pragma once

/// \file schedule_check.hpp
/// The one comparison the tests use to prove two runs ran the same schedule:
/// equal per-participant digests (sim::Engine::participant_digests()), or a
/// failure naming the first image whose schedule differs.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace caf2::test {

/// Success when \p a and \p b hold the same digests; otherwise names the
/// first differing image and its decision count in each run.
inline ::testing::AssertionResult same_schedule(
    const std::vector<sim::ParticipantDigest>& a,
    const std::vector<sim::ParticipantDigest>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "runs have " << a.size() << " and " << b.size() << " images";
  }
  for (std::size_t image = 0; image < a.size(); ++image) {
    if (a[image] != b[image]) {
      return ::testing::AssertionFailure()
             << "image " << image << " differs after " << a[image].decisions
             << " decisions (other run: " << b[image].decisions << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace caf2::test
