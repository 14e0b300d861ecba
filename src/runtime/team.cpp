#include "runtime/team.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

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
  if (&mine == &other.members()) {
    return true;  // the same team: its members share one list
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
}  // namespace

Team Team::split(int color, int key) const {
  rt::Image& image = rt::Image::current();
  rt::Runtime& runtime = image.runtime();
  const TeamData& parent = require();
  const std::vector<int>& parent_members = *parent.members;

  const std::uint32_t seq =
      image.next_split_seq(parent.id);
  // The split tables are shared across images; on a sharded engine the
  // members contribute from different OS threads (runtime.hpp, SplitOp).
  std::unique_lock<std::mutex> split_lock(runtime.split_mutex());
  rt::SplitOp& op = runtime.split_op(
      parent.id, seq, static_cast<int>(parent_members.size()));
  op.entries[parent.my_rank] = {color, key};
  op.contributed += 1;

  if (op.contributed == op.expected) {
    // Rendezvous complete: group members by color, order by (key, parent
    // rank), and allocate new team ids in ascending color order so every
    // member computes identical ids.
    std::map<int, std::vector<std::pair<int, int>>> groups;  // color -> [(key, parent rank)]
    for (const auto& [parent_rank, entry] : op.entries) {
      if (entry.first >= 0) {
        groups[entry.first].emplace_back(entry.second, parent_rank);
      }
    }
    const int base_id =
        runtime.allocate_team_ids(static_cast<int>(groups.size()));
    int offset = 0;
    for (auto& [group_color, members] : groups) {
      (void)group_color;
      std::sort(members.begin(), members.end());
      const int team_id = base_id + offset;
      ++offset;
      auto world_ranks = std::make_shared<std::vector<int>>();
      world_ranks->reserve(members.size());
      for (const auto& [member_key, parent_rank] : members) {
        (void)member_key;
        world_ranks->push_back(
            parent_members[static_cast<std::size_t>(parent_rank)]);
      }
      for (std::size_t new_rank = 0; new_rank < members.size(); ++new_rank) {
        auto data = std::make_shared<TeamData>();
        data->id = team_id;
        data->my_rank = static_cast<int>(new_rank);
        data->members = world_ranks;
        op.results[members[new_rank].second] = std::move(data);
      }
    }
    op.computed.store(true, std::memory_order_release);
    split_lock.unlock();
    for (int world : parent_members) {
      runtime.engine().unblock(world);
    }
  } else {
    split_lock.unlock();
    image.wait_for(
        [&op] { return op.computed.load(std::memory_order_acquire); },
        "team_split",
        obs::ResourceId{obs::ResourceKind::kSplit, -1,
                        static_cast<std::uint64_t>(parent.id), seq});
  }

  split_lock.lock();
  std::shared_ptr<const TeamData> mine;
  auto it = op.results.find(parent.my_rank);
  if (it != op.results.end()) {
    mine = it->second;
  }
  runtime.gc_split_op(parent.id, seq);
  split_lock.unlock();

  runtime.engine().advance(
      split_cost_us(static_cast<int>(parent_members.size()),
                    runtime.options().net));

  if (!mine) {
    return Team{};  // negative color: the image opted out
  }
  image.add_team(mine);
  return Team(std::move(mine));
}

}  // namespace caf2
