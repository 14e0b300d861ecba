#include "runtime/image.hpp"
#include "runtime/runtime.hpp"

/// \file progress.cpp
/// The progress engine: executes delivered active messages on the owning
/// image's thread. Handlers run inline and may block (a cofence inside a
/// shipped function re-enters progress, GASNet-style), so progress is
/// reentrant; stack discipline applies — an outer wait cannot resume until a
/// nested handler returns.

namespace caf2::rt {

void Image::execute(net::Message&& message) {
  const net::MessageHeader header = message.header;  // copy: payload moves on
  const HandlerFn& handler = runtime_.handler(header.handler);

  obs::FlightRecorder* const fr = runtime_.flight_recorder();
  if (fr != nullptr) {
    fr->record(rank_, runtime_.engine().now(), obs::FrKind::kHandler,
               header.source, header.handler, 0);
  }

  obs::Recorder* const rec = runtime_.observer();
  const double obs_begin = rec != nullptr ? runtime_.engine().now() : 0.0;
  const auto record_handler = [&] {
    if (rec == nullptr) {
      return;
    }
    const double now = runtime_.engine().now();
    rec->op_span(rank_, obs::SpanKind::kHandler, obs_begin, now,
                 header.handler, 0, header.source);
    rec->add(rank_, obs::Counter::kHandlersRun);
    rec->observe(rank_, obs::Hist::kHandlerTime, now - obs_begin);
  };

  const double handler_cost = runtime_.options().net.handler_cost_us;
  if (handler_cost > 0.0) {
    runtime_.engine().advance(handler_cost);
  }

  if (!header.tracked) {
    handler(*this, std::move(message));
    record_handler();
    return;
  }

  // Tracked message: update the four-counter epoch accounting around the
  // execution (paper Fig. 7 message_handler). Reception from an odd-epoch
  // sender moves this image into its odd epoch; the message's own counts
  // always use the *message's* parity so reduction waves see consistent
  // cuts.
  {
    FinishState& state = finish_state(header.finish);
    const bool was_odd = state.present_odd();
    state.on_receive_parity(header.from_odd_epoch);
    state.count_received(header.from_odd_epoch);
    if (fr != nullptr && !was_odd && state.present_odd()) {
      fr->record(rank_, runtime_.engine().now(), obs::FrKind::kEpochOdd,
                 header.source,
                 static_cast<std::uint64_t>(header.finish.team),
                 header.finish.seq);
    }
  }

  // The handler executes in the dynamic extent of the initiating finish:
  // operations it initiates (transitively shipped functions, implicit
  // copies) are charged to the same scope.
  push_finish(header.finish);
  try {
    handler(*this, std::move(message));
  } catch (...) {
    pop_finish();
    throw;
  }
  pop_finish();
  // Re-look-up: the handler may have created finish states (early-arriving
  // messages for other scopes), which can rehash the map.
  finish_state(header.finish).count_completed(header.from_odd_epoch);
  record_handler();
  // Completion may satisfy a teammate-visible predicate only through
  // counters on this image; wake ourselves so an enclosing quiescence wait
  // re-evaluates.
  runtime_.engine().unblock(rank_);
}

void Image::progress() {
  net::Mailbox& mail = runtime_.network().mailbox(rank_);
  while (auto message = mail.try_pop()) {
    execute(std::move(*message));
  }
}

void Image::wait_for(const std::function<bool()>& pred, const char* reason,
                     const obs::ResourceId& resource) {
  net::Mailbox& mail = runtime_.network().mailbox(rank_);
  // The frame stays on the wait stack across nested handler execution, so a
  // postmortem taken while a nested wait is parked still shows the outer
  // resource. If the engine fails, the unwinding pops it (and skips the
  // wait-end record — the wait never completed).
  WaitFrameScope frame(*this, resource, reason);
  obs::FlightRecorder* const fr = runtime_.flight_recorder();
  bool blocked = false;
  for (;;) {
    if (pred()) {
      break;
    }
    progress();
    if (pred()) {
      break;
    }
    if (!mail.empty()) {
      continue;  // a nested handler left mail behind; keep draining
    }
    if (fr != nullptr && !blocked) {
      blocked = true;
      fr->record(rank_, runtime_.engine().now(), obs::FrKind::kWaitBegin,
                 resource.owner, resource.a, resource.b, reason);
    }
    runtime_.engine().block(reason);
  }
  if (fr != nullptr && blocked) {
    fr->record(rank_, runtime_.engine().now(), obs::FrKind::kWaitEnd,
               resource.owner, resource.a, resource.b, reason);
  }
}

void Image::push_wait_frame(const obs::ResourceId& resource,
                            const char* reason) {
  wait_stack_.push_back(
      obs::WaitFrame{resource, reason, runtime_.engine().now()});
}

void Image::pop_wait_frame() { wait_stack_.pop_back(); }

}  // namespace caf2::rt
