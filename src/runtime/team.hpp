#pragma once

/// \file team.hpp
/// Teams — first-class process subsets (paper §II-A).
///
/// A team serves three purposes in CAF 2.0: a domain for coarray allocation,
/// a rank name space, and an isolated communication/synchronization domain.
/// All images start in team_world; new teams are created collectively with
/// split(color, key).
///
/// Team is a cheap value handle; the underlying TeamData is immutable and
/// per-image (each member holds its own, carrying its own rank). The member
/// list itself is built once per team and shared by every member's
/// TeamData, so a p-image team costs O(p) ints in total, not O(p) per
/// member.

#include <memory>
#include <vector>

#include "support/error.hpp"

namespace caf2 {

namespace rt {
class Image;
class Runtime;
}  // namespace rt

struct TeamData {
  int id = -1;
  int my_rank = -1;  ///< calling image's rank within the team
  /// World ranks indexed by team rank; distinct, and shared by all members.
  std::shared_ptr<const std::vector<int>> members;
};

class Team {
 public:
  Team() = default;
  explicit Team(std::shared_ptr<const TeamData> data) : data_(std::move(data)) {}

  bool valid() const { return data_ != nullptr; }

  /// Team identifier (equal on every member).
  int id() const { return require().id; }

  /// Calling image's rank within this team.
  int rank() const { return require().my_rank; }

  /// Number of member images.
  int size() const { return static_cast<int>(require().members->size()); }

  /// World rank of the member with team rank \p team_rank.
  int world_rank(int team_rank) const;

  /// Team rank of world-rank \p world, or -1 if not a member. A linear scan,
  /// O(team size): keep it off per-operation paths. The calling image's own
  /// membership is `world_rank(rank()) == image rank`, which is O(1).
  int rank_of_world(int world) const;

  /// True when every member of \p other is also a member of this team
  /// (used to validate collectives inside finish blocks, paper §III-A1).
  /// O(1) when \p other is this team or this team is the world team; a
  /// scan of both lists otherwise. Called from an image.
  bool contains_team(const Team& other) const;

  /// Collectively split this team. Members calling with the same \p color
  /// form a new team; ranks within it are ordered by (key, old rank).
  /// All members of this team must call split (SPMD).
  Team split(int color, int key) const;

  const std::vector<int>& members() const { return *require().members; }

 private:
  const TeamData& require() const {
    CAF2_REQUIRE(data_ != nullptr, "operation on an invalid Team");
    return *data_;
  }

  std::shared_ptr<const TeamData> data_;
};

/// The team containing every image (rank == world rank).
Team team_world();

}  // namespace caf2
