#include "runtime/image.hpp"

#include "runtime/runtime.hpp"

namespace caf2::rt {

Image::Image(Runtime& runtime, int rank, std::uint64_t seed,
             std::shared_ptr<const std::vector<int>> world_members)
    : runtime_(runtime), rank_(rank), rng_(seed) {
  // Every image starts as a member of team_world (id 0).
  auto world = std::make_shared<TeamData>();
  world->id = 0;
  world->my_rank = rank;
  world->members = std::move(world_members);
  teams_.emplace(0, std::move(world));
}

Image::~Image() = default;

int Image::num_images() const { return runtime_.num_images(); }

/// --- finish accounting ------------------------------------------------------

net::FinishKey Image::current_finish() const {
  return finish_stack_.empty() ? net::FinishKey{} : finish_stack_.back();
}

void Image::push_finish(const net::FinishKey& key) {
  finish_stack_.push_back(key);
}

void Image::pop_finish() {
  CAF2_ASSERT(!finish_stack_.empty(), "pop_finish with empty stack");
  finish_stack_.pop_back();
}

std::uint32_t Image::next_finish_seq(int team_id) {
  return finish_seqs_[team_id]++;
}

FinishState& Image::finish_state(const net::FinishKey& key) {
  CAF2_ASSERT(key.valid(), "finish_state() with invalid key");
  return finish_states_[key];
}

void Image::erase_finish_state(const net::FinishKey& key) {
  finish_states_.erase(key);
}

bool Image::finish_scope_passed(const net::FinishKey& key) const {
  const auto state = finish_states_.find(key);
  if (state != finish_states_.end()) {
    return state->second.terminated();
  }
  // No live state: passed iff this image already handed out that sequence
  // number (next_finish_seq post-increments, so "entered seq s" leaves the
  // counter at s + 1). A member that never reached the scope has not passed
  // it — it could still enter and contribute.
  const auto seq = finish_seqs_.find(key.team);
  return seq != finish_seqs_.end() && seq->second > key.seq;
}

/// --- sends and finish charges ---------------------------------------------------

net::MessageHeader Image::stamp(int dest, net::HandlerId handler,
                                const net::FinishKey& finish) {
  net::MessageHeader header;
  header.source = rank_;
  header.dest = dest;
  header.handler = handler;
  if (finish.valid()) {
    FinishState& state = finish_state(finish);
    header.finish = finish;
    header.tracked = true;
    header.from_odd_epoch = state.present_odd();
    state.count_sent(header.from_odd_epoch, dest);
  }
  return header;
}

void Image::send(int dest, net::HandlerId handler,
                 std::vector<std::uint8_t> payload,
                 const net::FinishKey& finish, net::SendCallbacks callbacks) {
  runtime_.network().send(
      net::Message{stamp(dest, handler, finish), std::move(payload)},
      std::move(callbacks));
}

void Image::send_staged(int dest, net::HandlerId handler,
                        std::size_t size_hint, net::StageReader read,
                        const net::FinishKey& finish,
                        net::SendCallbacks callbacks) {
  runtime_.network().send_staged(stamp(dest, handler, finish), size_hint,
                                 std::move(read), std::move(callbacks));
}

bool Image::charge_local(const net::FinishKey& finish) {
  if (!finish.valid()) {
    return false;
  }
  FinishState& state = finish_state(finish);
  const bool odd = state.present_odd();
  state.count_sent(odd, rank_);
  return odd;
}

void Image::complete_local(const net::FinishKey& finish, bool odd) {
  if (!finish.valid()) {
    return;
  }
  FinishState& state = finish_state(finish);
  state.count_delivered(odd);
  state.count_received(odd);
  state.count_completed(odd);
}

void Image::finish_ack(const net::MessageHeader& header) {
  finish_state(header.finish).count_delivered(header.from_odd_epoch);
  runtime_.engine().unblock(rank_);
}

/// --- cofence ------------------------------------------------------------------

ImplicitOpPtr Image::register_implicit(bool reads_local, bool writes_local,
                                       const char* what) {
  auto op = std::make_shared<ImplicitOp>();
  op->id = next_op_id();
  op->reads_local = reads_local;
  op->writes_local = writes_local;
  op->what = what;
  cofence_.current().add(op);
  return op;
}

/// --- events --------------------------------------------------------------------

std::uint64_t Image::register_event(Event* event) {
  const std::uint64_t id = ++event_id_counter_;
  events_.emplace(id, event);
  return id;
}

void Image::register_event_alias(std::uint64_t alias, Event* event) {
  CAF2_ASSERT(!events_.contains(alias), "event alias already registered");
  events_.emplace(alias, event);
}

void Image::deregister_event(std::uint64_t id) { events_.erase(id); }

Event* Image::find_event(std::uint64_t id) {
  auto it = events_.find(id);
  return it == events_.end() ? nullptr : it->second;
}

/// --- coarrays -------------------------------------------------------------------

std::uint64_t Image::next_coarray_seq(int team_id) {
  return coarray_seqs_[team_id]++;
}

void Image::register_block(std::uint64_t id, BlockInfo info) {
  CAF2_ASSERT(!blocks_.contains(id), "coarray id already registered");
  blocks_.emplace(id, info);
}

void Image::deregister_block(std::uint64_t id) { blocks_.erase(id); }

BlockInfo Image::lookup_block(std::uint64_t id) const {
  auto it = blocks_.find(id);
  CAF2_REQUIRE(it != blocks_.end(),
               "coarray block not found on this image (id " +
                   std::to_string(id) + ")");
  return it->second;
}

/// --- teams -----------------------------------------------------------------------

Team Image::world_team() const { return Team(teams_.at(0)); }

void Image::add_team(std::shared_ptr<const TeamData> data) {
  CAF2_ASSERT(data != nullptr, "add_team(nullptr)");
  teams_.emplace(data->id, std::move(data));
}

std::shared_ptr<const TeamData> Image::find_team(int id) const {
  auto it = teams_.find(id);
  return it == teams_.end() ? nullptr : it->second;
}

std::uint32_t Image::next_split_seq(int team_id) {
  return split_seqs_[team_id]++;
}

std::uint64_t Image::next_coevent_slot(int team_id) {
  return coevent_slots_[team_id]++;
}

/// --- collectives -------------------------------------------------------------------

PendingColl& Image::coll_state(const CollKey& key) { return colls_[key]; }

void Image::erase_coll_state(const CollKey& key) { colls_.erase(key); }

std::uint32_t Image::next_coll_seq(int team_id) {
  return coll_seqs_[team_id]++;
}

/// --- deferred plans -----------------------------------------------------------------

std::uint64_t Image::stash_plan(std::function<void()> plan) {
  const std::uint64_t id = next_op_id();
  plans_.emplace(id, std::move(plan));
  return id;
}

void Image::fire_plan(std::uint64_t id) {
  auto it = plans_.find(id);
  CAF2_ASSERT(it != plans_.end(), "fire_plan: unknown plan id");
  auto plan = std::move(it->second);
  plans_.erase(it);
  plan();
}

std::uint64_t Image::stash_get(
    std::function<void(std::span<const std::uint8_t>)> sink) {
  const std::uint64_t id = next_op_id();
  get_sinks_.emplace(id, std::move(sink));
  return id;
}

void Image::complete_get(std::uint64_t id,
                         std::span<const std::uint8_t> data) {
  auto it = get_sinks_.find(id);
  CAF2_ASSERT(it != get_sinks_.end(), "complete_get: unknown sink id");
  auto sink = std::move(it->second);
  get_sinks_.erase(it);
  sink(data);
}

}  // namespace caf2::rt
