#include "runtime/team.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "runtime/image.hpp"
#include "runtime/runtime.hpp"

namespace caf2 {

int Team::world_rank(int team_rank) const {
  const std::vector<int>& members = this->members();
  CAF2_REQUIRE(team_rank >= 0 && team_rank < static_cast<int>(members.size()),
               "team rank out of range");
  return members[static_cast<std::size_t>(team_rank)];
}

int Team::rank_of_world(int world) const {
  const std::vector<int>& members = this->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == world) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool Team::contains_team(const Team& other) const {
  const std::vector<int>& mine = members();
  if (&mine == &other.members() ||
      static_cast<int>(mine.size()) == rt::Image::current().num_images()) {
    return true;  // the same team, or the world team, which holds every image
  }
  for (int member : other.members()) {
    if (std::find(mine.begin(), mine.end(), member) == mine.end()) {
      return false;
    }
  }
  return true;
}

Team team_world() { return rt::Image::current().world_team(); }

namespace {
/// Virtual cost charged for the split rendezvous: two tree traversals
/// (gather + scatter) of the parent team.
double split_cost_us(int team_size, const NetworkParams& net) {
  const int rounds =
      std::bit_width(static_cast<unsigned>(std::max(team_size - 1, 1)));
  return 2.0 * rounds * (net.latency_us + net.handler_cost_us);
}

/// A member's outcome of one split. The root fills `team` and `t_last`; a
/// call at the member then sets `ready`, the only field the member polls.
struct SplitResult {
  bool ready = false;
  double t_last = 0.0;  ///< the latest contribution time
  std::shared_ptr<const TeamData> team;  ///< null for a negative color
};

/// One split gathering at the parent team's rank 0 (its *root*).
struct SplitGather {
  struct Entry {
    int color = -1;
    int key = 0;
    std::shared_ptr<SplitResult> result;
  };
  std::vector<Entry> entries;  ///< by parent rank
  int contributed = 0;
  double t_last = 0.0;
};

/// Split state of one root image, in its scratch slot. Only calls that run
/// at the root touch it, so it needs no locking at any shard count.
struct SplitRoot {
  int teams_created = 0;  ///< serial k of the root's next team id
  std::map<std::pair<int, std::uint32_t>, SplitGather> gathers;
};

const char split_root_tag = 0;

SplitRoot& split_root(rt::Image& root) {
  std::shared_ptr<void>& slot = root.scratch(&split_root_tag);
  if (!slot) {
    slot = std::make_shared<SplitRoot>();
  }
  return *static_cast<SplitRoot*>(slot.get());
}

/// The root's side once every member contributed: group members by color,
/// order each group by (key, parent rank), give the groups fresh ids in
/// ascending color order, and release every member one hop later. Ids are
/// `root + 1 + p·k` for the root's serial k, so roots never collide and no
/// id depends on which shard ran first.
void complete_split(rt::Runtime& runtime, int root, SplitGather& gather,
                    const std::vector<int>& parent_members) {
  std::map<int, std::vector<std::pair<int, int>>> groups;  // color -> [(key, parent rank)]
  for (std::size_t rank = 0; rank < gather.entries.size(); ++rank) {
    const SplitGather::Entry& entry = gather.entries[rank];
    if (entry.color >= 0) {
      groups[entry.color].emplace_back(entry.key, static_cast<int>(rank));
    }
  }
  SplitRoot& state = split_root(runtime.image(root));
  const std::int64_t images = runtime.num_images();
  for (auto& [group_color, members] : groups) {
    (void)group_color;
    std::sort(members.begin(), members.end());
    const std::int64_t id = root + 1 + images * state.teams_created++;
    CAF2_REQUIRE(id <= std::numeric_limits<int>::max(),
                 "Team::split: team ids exhausted");
    auto world_ranks = std::make_shared<std::vector<int>>();
    world_ranks->reserve(members.size());
    for (const auto& [member_key, parent_rank] : members) {
      (void)member_key;
      world_ranks->push_back(
          parent_members[static_cast<std::size_t>(parent_rank)]);
    }
    for (std::size_t new_rank = 0; new_rank < members.size(); ++new_rank) {
      auto data = std::make_shared<TeamData>();
      data->id = static_cast<int>(id);
      data->my_rank = static_cast<int>(new_rank);
      data->members = world_ranks;
      gather.entries[static_cast<std::size_t>(members[new_rank].second)]
          .result->team = std::move(data);
    }
  }
  sim::Engine& engine = runtime.engine();
  const double at = engine.now() + runtime.options().net.latency_us;
  for (std::size_t rank = 0; rank < gather.entries.size(); ++rank) {
    const int world = parent_members[rank];
    gather.entries[rank].result->t_last = gather.t_last;
    auto release = [&engine, world,
                    result = std::move(gather.entries[rank].result)] {
      result->ready = true;
      engine.unblock(world);
    };
    static_assert(sim::InlineFn::stores_inline<decltype(release)>);
    engine.post_for(world, at, std::move(release));
  }
}
}  // namespace

Team Team::split(int color, int key) const {
  rt::Image& image = rt::Image::current();
  rt::Runtime& runtime = image.runtime();
  sim::Engine& engine = runtime.engine();
  const TeamData& parent = require();
  const int size = static_cast<int>(parent.members->size());
  const std::uint32_t seq = image.next_split_seq(parent.id);

  // Contribute (color, key, now) to the parent's rank 0 one wire latency
  // later. The root gathers every contribution and answers each member one
  // hop after the last arrives; everything runs as engine events at the
  // images involved, so the outcome is a function of the program alone.
  const int root = parent.members->front();
  auto result = std::make_shared<SplitResult>();
  // `members` is the parent's member list, shared by every member's
  // TeamData. The root waits in this split until every contribution has
  // run, so its own parent team keeps the list alive for them.
  auto contribute =
      [&runtime, result, members = parent.members.get(), sent = engine.now(),
       root, color, key, seq, team_id = parent.id,
       rank = parent.my_rank]() mutable {
        SplitRoot& state = split_root(runtime.image(root));
        SplitGather& gather = state.gathers[{team_id, seq}];
        if (gather.entries.empty()) {
          gather.entries.resize(members->size());
        }
        gather.entries[static_cast<std::size_t>(rank)] = {color, key,
                                                          std::move(result)};
        gather.t_last = std::max(gather.t_last, sent);
        if (++gather.contributed == static_cast<int>(members->size())) {
          complete_split(runtime, root, gather, *members);
          state.gathers.erase({team_id, seq});
        }
      };
  static_assert(sim::InlineFn::stores_inline<decltype(contribute)>);
  engine.post_for(root, engine.now() + runtime.options().net.latency_us,
                  std::move(contribute));
  image.wait_for([&result] { return result->ready; }, "team_split",
                 obs::ResourceId{obs::ResourceKind::kSplit, -1,
                                 static_cast<std::uint64_t>(parent.id), seq});

  // Return when a one-shard gather-and-scatter tree would: the split cost
  // after the last contribution.
  engine.advance(std::max(
      0.0, result->t_last + split_cost_us(size, runtime.options().net) -
               engine.now()));

  if (!result->team) {
    return Team{};  // negative color: the image opted out
  }
  image.add_team(result->team);
  return Team(std::move(result->team));
}

}  // namespace caf2
