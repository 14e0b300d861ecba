#include "runtime/event.hpp"

#include "runtime/image.hpp"
#include "runtime/runtime.hpp"
#include "support/serialize.hpp"

namespace caf2 {

Event::Event() : owner_(&rt::Image::current()) {
  id_ = owner_->register_event(this);
}

Event::~Event() { owner_->deregister_event(id_); }

RemoteEvent Event::handle() const {
  return RemoteEvent{owner_->rank(), id_};
}

void Event::post() {
  if (!triggers_.empty()) {
    auto trigger = std::move(triggers_.front());
    triggers_.erase(triggers_.begin());
    trigger();
    return;
  }
  ++count_;
  owner_->runtime().engine().unblock(owner_->rank());
}

void Event::when_posted(std::function<void()> fn) {
  if (count_ > 0) {
    --count_;
    fn();
    return;
  }
  triggers_.push_back(std::move(fn));
}

void Event::notify() {
  // Release semantics (paper §III-B4a): outstanding implicit operations in
  // the current scope must reach local operation completion before the
  // notification becomes visible; operations *after* the notify are free to
  // start before it.
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  auto& scope = image.cofence_tracker().current();
  image.wait_for([&scope] { return scope.op_complete_all(); },
                 "event_notify release",
                 obs::ResourceId{obs::ResourceKind::kOpCompletion,
                                 image.rank(), 0, 0});
  if (rec != nullptr) {
    // The release wait keeps the enclosing blame context: an un-scoped wait
    // released by an ack is operation completion, i.e. network time.
    rec->op_span(image.rank(), obs::SpanKind::kEventNotify, obs_begin,
                 image.runtime().engine().now());
  }
  post();
}

void Event::wait() { wait_many(1); }

void Event::wait_many(std::uint64_t count) {
  rt::Image& image = rt::Image::current();
  CAF2_REQUIRE(owner_ == &image,
               "event_wait must be called by the owning image");
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  {
    // Classify only *top-level* event waits as event-wait time: waits inside
    // another construct's scope (finish detection waves, collective phases)
    // stay blamed on that construct.
    obs::BlameScope scope(
        rec != nullptr && rec->blame_empty(image.rank()) ? rec : nullptr,
        image.rank(), obs::Blame::kEventWait);
    image.wait_for([this, count] { return count_ >= count; }, "event_wait",
                   obs::ResourceId{obs::ResourceKind::kEvent, image.rank(),
                                   id_, 0});
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kEventWait, obs_begin,
                 image.runtime().engine().now(), count);
  }
  count_ -= count;
}

bool Event::test() {
  if (count_ == 0) {
    return false;
  }
  --count_;
  return true;
}

namespace rt {

/// Route a notification to \p event without release semantics. Safe from any
/// context (engine callbacks pass an explicit \p from_rank); latency is
/// modeled whenever the event lives on another image.
void post_event_raw(Runtime& runtime, int from_rank, const RemoteEvent& event) {
  CAF2_REQUIRE(event.valid(), "notification of an invalid RemoteEvent");
  if (event.image == from_rank) {
    Image& owner = runtime.image(event.image);
    Event* local = owner.find_event(event.event_id);
    CAF2_REQUIRE(local != nullptr, "notification of a destroyed event");
    local->post();
    return;
  }
  WriteArchive archive;
  archive.write(event.event_id);
  runtime.image(from_rank).send(event.image, kHandlerEventNotify,
                                archive.take());
}

void install_event_handlers(Runtime& runtime) {
  runtime.set_handler(kHandlerEventNotify,
                      [](Image& image, net::Message&& message) {
                        ReadArchive archive(message.payload);
                        const auto id = archive.read<std::uint64_t>();
                        Event* event = image.find_event(id);
                        CAF2_REQUIRE(event != nullptr,
                                     "remote notification of a destroyed event");
                        event->post();
                      });
}

}  // namespace rt

void notify_event(const RemoteEvent& event) {
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  auto& scope = image.cofence_tracker().current();
  image.wait_for([&scope] { return scope.op_complete_all(); },
                 "event_notify release",
                 obs::ResourceId{obs::ResourceKind::kOpCompletion,
                                 image.rank(), 0, 0});
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kEventNotify, obs_begin,
                 image.runtime().engine().now(), 0, 0, event.image);
  }
  rt::post_event_raw(image.runtime(), image.rank(), event);
}

CoEvent::CoEvent(const Team& team)
    : team_(team),
      slot_(rt::Image::current().next_coevent_slot(team.id())) {
  // Alias id is a deterministic function of (team, slot), identical on every
  // member, so remote handles can be formed without communication.
  const std::uint64_t alias =
      (1ULL << 63) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(team.id()))
       << 32) |
      slot_;
  rt::Image::current().register_event_alias(alias, &local_event_);
}

CoEvent::~CoEvent() {
  const std::uint64_t alias =
      (1ULL << 63) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(team_.id()))
       << 32) |
      slot_;
  rt::Image::current().deregister_event(alias);
}

RemoteEvent CoEvent::operator()(int team_rank) const {
  const std::uint64_t alias =
      (1ULL << 63) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(team_.id()))
       << 32) |
      slot_;
  return RemoteEvent{team_.world_rank(team_rank), alias};
}

}  // namespace caf2
