#include "net/network.hpp"

#include <algorithm>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace caf2::net {

Network::Network(sim::Engine& engine, NetworkParams params, std::uint64_t seed)
    : engine_(engine),
      params_(std::move(params)),
      mailboxes_(static_cast<std::size_t>(engine.size())),
      traffic_(static_cast<std::size_t>(engine.size())),
      records_(static_cast<std::size_t>(engine.shard_count())) {
  params_.validate();
  reliable_ = params_.reliable_delivery();
  // Image i's jitter stream is child 2i of the seed and its fault stream
  // child 2i + 1: independent, so enabling a FaultPlan leaves a run's jitter
  // draws untouched.
  const SplitMix64 seeder(seed);
  jitter_.reserve(mailboxes_.size());
  for (std::uint64_t image = 0; image < mailboxes_.size(); ++image) {
    jitter_.emplace_back(seeder.child(2 * image));
    if (reliable_) {
      fault_.emplace_back(seeder.child(2 * image + 1));
    }
  }
  if (reliable_) {
    rel_.resize(mailboxes_.size());
    max_extra_delay_us_ = params_.faults.all.delay_max_us;
    for (const ScriptedFault& fault : params_.faults.scripted) {
      max_extra_delay_us_ = std::max(max_extra_delay_us_, fault.delay_us);
    }
  }
}

Mailbox& Network::mailbox(int image) {
  CAF2_REQUIRE(image >= 0 && image < size(), "mailbox(): image out of range");
  return mailboxes_[static_cast<std::size_t>(image)];
}

const Mailbox& Network::mailbox(int image) const {
  CAF2_REQUIRE(image >= 0 && image < size(), "mailbox(): image out of range");
  return mailboxes_[static_cast<std::size_t>(image)];
}

const ImageTraffic& Network::traffic(int image) const {
  CAF2_REQUIRE(image >= 0 && image < size(), "traffic(): image out of range");
  return traffic_[static_cast<std::size_t>(image)];
}

void Network::reset_traffic() {
  for (ImageTraffic& t : traffic_) {
    t = ImageTraffic{};
  }
}

FaultStats Network::fault_stats() const {
  FaultStats total;
  for (const ReliableImage& cell : rel_) {
    total.deliveries_dropped += cell.stats.deliveries_dropped;
    total.deliveries_duplicated += cell.stats.deliveries_duplicated;
    total.deliveries_delayed += cell.stats.deliveries_delayed;
    total.acks_dropped += cell.stats.acks_dropped;
    total.retransmits += cell.stats.retransmits;
    total.duplicates_suppressed += cell.stats.duplicates_suppressed;
    total.scripted_applied += cell.stats.scripted_applied;
  }
  return total;
}

std::size_t Network::inflight_reliable() const {
  std::size_t total = 0;
  for (const ReliableImage& cell : rel_) {
    total += cell.inflight.size();
  }
  return total;
}

Network::Timing Network::plan(int source, double now, std::size_t bytes) {
  Timing timing{};
  // bandwidth is validated > 0 (infinity => instantaneous staging).
  const double inject =
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_us;
  timing.stage_at = now + inject;
  double jitter = 0.0;
  if (params_.jitter_us > 0.0) {
    jitter = jitter_[static_cast<std::size_t>(source)].next_double() *
             params_.jitter_us;
  }
  timing.deliver_at = timing.stage_at + params_.latency_us + jitter;
  timing.ack_at = timing.deliver_at + params_.effective_ack_latency_us();
  return timing;
}

void Network::account_send(const Message& message) {
  const std::size_t source = static_cast<std::size_t>(message.header.source);
  const std::size_t bytes = message.size_bytes();
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  traffic_[source].messages_out += 1;
  traffic_[source].bytes_out += bytes;
  if (observer_ != nullptr) {
    observer_->add(message.header.source, obs::Counter::kMessagesSent);
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(message.header.source, engine_.now(),
                             obs::FrKind::kSend, message.header.dest, bytes,
                             static_cast<std::uint64_t>(message.header.handler));
  }
}

std::size_t Network::send_records_in_use() const {
  std::size_t total = 0;
  for (const auto& slab : records_) {
    total += slab.in_use();
  }
  return total;
}

std::size_t Network::send_records_high_water() const {
  std::size_t total = 0;
  for (const auto& slab : records_) {
    total += slab.high_water();
  }
  return total;
}

Network::RecordRef Network::new_record(int source) {
  const auto shard = static_cast<std::uint32_t>(engine_.shard_of(source));
  return RecordRef{shard, records_[shard].acquire()};
}

void Network::report_ack(const MessageHeader& header,
                         SendCallbacks& callbacks) {
  if (header.tracked && tracked_ack_) {
    tracked_ack_(header);
  }
  if (callbacks.wants(kAcked)) {
    callbacks(kAcked);
  }
}

void Network::launch(Message message, std::optional<RecordRef> acked,
                     const Timing& timing, double init_us) {
  if (reliable_) {
    start_attempt(admit_flight(std::move(message), acked, init_us), timing);
    return;
  }
  const int dest = message.header.dest;
  std::unique_ptr<ObservedFlight> observed;
  if (observer_ != nullptr) {
    observed = std::make_unique<ObservedFlight>(
        init_us, observer_->reserve_flight_id(message.header.source));
  }
  const std::uint64_t span = observed ? observed->span : 0;
  auto delivery = [this, msg = std::move(message),
                   observed = std::move(observed)]() mutable {
    deliver(std::move(msg), observed ? observed->init_us : 0.0,
            observed ? observed->span : 0);
  };
  static_assert(sim::InlineFn::stores_inline<decltype(delivery)>);
  engine_.post_for(dest, timing.deliver_at, std::move(delivery));
  if (!acked) {
    return;
  }
  record(*acked).span = span;
  auto on_ack = [this, ref = *acked] { ack(ref); };
  static_assert(sim::InlineFn::stores_inline<decltype(on_ack)>);
  engine_.post(timing.ack_at, on_ack);
}

void Network::ack(RecordRef ref) {
  SendRecord& rec = record(ref);
  if (observer_ != nullptr) {
    observer_->note_cause(rec.header.source, rec.span);
  }
  report_ack(rec.header, rec.callbacks);
  release(ref);
}

void Network::deliver(Message message, double init_us, std::uint64_t span) {
  const int source = message.header.source;
  const std::size_t dest = static_cast<std::size_t>(message.header.dest);
  const std::size_t bytes = message.size_bytes();
  const std::uint64_t handler =
      static_cast<std::uint64_t>(message.header.handler);
  traffic_[dest].messages_in += 1;
  traffic_[dest].bytes_in += bytes;
  mailboxes_[dest].push(std::move(message));
  engine_.unblock(static_cast<int>(dest));
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(static_cast<int>(dest), engine_.now(),
                             obs::FrKind::kDeliver, source, bytes, handler);
  }
  if (observer_ != nullptr) {
    const double now = engine_.now();
    observer_->flight_span(span, source, static_cast<int>(dest), init_us, now,
                           bytes);
    observer_->note_cause(static_cast<int>(dest), span);
    observer_->add(static_cast<int>(dest), obs::Counter::kMessagesDelivered);
    observer_->maxed(static_cast<int>(dest), obs::Counter::kMailboxHighWater,
                     mailboxes_[dest].size());
    observer_->observe(static_cast<int>(dest), obs::Hist::kMessageLatency,
                       now - init_us);
  }
}

void Network::send(Message message, SendCallbacks callbacks) {
  CAF2_REQUIRE(message.header.source >= 0 && message.header.source < size(),
               "send(): source image out of range");
  CAF2_REQUIRE(message.header.dest >= 0 && message.header.dest < size(),
               "send(): destination image out of range");
  const double init_us = engine_.now();
  const Timing timing =
      plan(message.header.source, init_us, message.size_bytes());
  account_send(message);
  const bool staged = callbacks.wants(kStaged);
  const bool acked = wants_ack(message.header, callbacks);
  if (!staged && !acked) {
    launch(std::move(message), std::nullopt, timing, init_us);
    return;
  }
  const RecordRef ref = new_record(message.header.source);
  SendRecord& rec = record(ref);
  rec.header = message.header;
  rec.callbacks = std::move(callbacks);
  if (staged) {
    // The stage event runs before the ack (posted after it, at a time no
    // earlier), so it releases the record only when no ack will.
    auto on_stage = [this, ref, acked] {
      record(ref).callbacks(kStaged);
      if (!acked) {
        release(ref);
      }
    };
    static_assert(sim::InlineFn::stores_inline<decltype(on_stage)>);
    engine_.post(timing.stage_at, on_stage);
  }
  launch(std::move(message), acked ? std::optional(ref) : std::nullopt,
         timing, init_us);
}

void Network::send_staged(MessageHeader header, std::size_t size_hint,
                          StageReader read, SendCallbacks callbacks) {
  CAF2_REQUIRE(header.source >= 0 && header.source < size(),
               "send_staged(): source image out of range");
  CAF2_REQUIRE(header.dest >= 0 && header.dest < size(),
               "send_staged(): destination image out of range");
  CAF2_REQUIRE(static_cast<bool>(read),
               "send_staged(): needs a staging reader");
  const double init_us = engine_.now();
  const RecordRef ref = new_record(header.source);
  SendRecord& rec = record(ref);
  rec.header = header;
  rec.timing = plan(header.source, init_us, size_hint);
  rec.init_us = init_us;
  rec.read = std::move(read);
  rec.callbacks = std::move(callbacks);
  auto on_stage = [this, ref] { stage(ref); };
  static_assert(sim::InlineFn::stores_inline<decltype(on_stage)>);
  engine_.post(rec.timing.stage_at, on_stage);
}

void Network::stage(RecordRef ref) {
  // At staging time the network reads the source buffer; only then does the
  // message exist as an independent payload. Overwriting the source buffer
  // before local data completion corrupts the transfer, as on real RDMA
  // hardware. Delivery and ack are posted only after kStaged was reported,
  // so events the callback posts at the delivery time dispatch before it.
  // The slab's chunks never move, so `rec` stays valid while the callback
  // sends more messages.
  SendRecord& rec = record(ref);
  Message message;
  message.header = rec.header;
  message.payload = rec.read();
  rec.read.reset();
  if (rec.callbacks.wants(kStaged)) {
    rec.callbacks(kStaged);
  }
  account_send(message);
  const bool acked = wants_ack(rec.header, rec.callbacks);
  launch(std::move(message), acked ? std::optional(ref) : std::nullopt,
         rec.timing, rec.init_us);
  if (!acked) {
    release(ref);
  }
}

/// --- reliable-delivery protocol ----------------------------------------------

bool Network::DedupWindow::accept(std::uint64_t seq) {
  if (seq < floor || seen.contains(seq)) {
    return false;
  }
  seen.insert(seq);
  while (seen.contains(floor)) {
    seen.erase(floor);
    ++floor;
  }
  return true;
}

double Network::auto_rto(std::size_t bytes) const {
  const double round_trip =
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_us +
      params_.latency_us + params_.jitter_us +
      params_.effective_ack_latency_us();
  return 2.0 * round_trip + max_extra_delay_us_ + 1.0;
}

std::uint64_t Network::admit_flight(Message message,
                                    std::optional<RecordRef> acked,
                                    double init_us) {
  const int source = message.header.source;
  ReliableImage& cell = rel_[static_cast<std::size_t>(source)];
  LinkSender& sender = cell.senders[message.header.dest];
  CAF2_ASSERT(cell.next_flight < (std::uint64_t{1} << 32),
              "admit_flight: per-image flight-id counter overflow");
  const std::uint64_t id =
      (static_cast<std::uint64_t>(source) << 32) | cell.next_flight++;
  ReliableFlight flight;
  flight.acked = acked;
  flight.seq = sender.next_seq++;
  flight.ordinal = ++sender.initiated;
  flight.first_sent_us = init_us;
  flight.rto_us = params_.reliability.rto_us > 0.0
                      ? params_.reliability.rto_us
                      : auto_rto(message.size_bytes());
  if (observer_ != nullptr) {
    flight.obs_span = observer_->reserve_flight_id(source);
  }
  flight.message = std::make_shared<const Message>(std::move(message));
  cell.inflight.emplace(id, std::move(flight));
  return id;
}

Network::AttemptFaults Network::roll_faults(const ReliableFlight& flight) {
  AttemptFaults faults;
  const MessageHeader& header = flight.message->header;
  const auto source = static_cast<std::size_t>(header.source);
  // A fixed number of fault-stream draws per attempt keeps the stream
  // aligned no matter which faults actually fire.
  Xoshiro256ss& rng = fault_[source];
  const double u_drop = rng.next_double();
  const double u_dup = rng.next_double();
  const double u_ack = rng.next_double();
  const double u_dup_ack = rng.next_double();
  const double u_delay = rng.next_double();
  const double u_delay_amount = rng.next_double();
  const double u_dup_offset = rng.next_double();

  const LinkFaults& lf = params_.faults.all;
  faults.drop = u_drop < lf.drop_probability;
  faults.duplicate = u_dup < lf.dup_probability;
  faults.ack_drop = u_ack < lf.ack_drop_probability;
  faults.dup_ack_drop = u_dup_ack < lf.ack_drop_probability;
  if (u_delay < lf.delay_probability) {
    faults.extra_delay_us = u_delay_amount * lf.delay_max_us;
  }
  faults.dup_offset_us = u_dup_offset * params_.jitter_us;

  for (const ScriptedFault& scripted : params_.faults.scripted) {
    if (scripted.source != header.source || scripted.dest != header.dest ||
        scripted.nth != flight.ordinal ||
        (scripted.attempt != 0 && scripted.attempt != flight.attempts)) {
      continue;
    }
    rel_[source].stats.scripted_applied += 1;
    switch (scripted.kind) {
      case FaultKind::kDrop:
        faults.drop = true;
        break;
      case FaultKind::kDuplicate:
        faults.duplicate = true;
        break;
      case FaultKind::kDelay:
        faults.extra_delay_us += scripted.delay_us;
        break;
    }
  }
  return faults;
}

void Network::start_attempt(std::uint64_t id, const Timing& timing) {
  ReliableImage& cell = rel_of(id);
  auto it = cell.inflight.find(id);
  CAF2_ASSERT(it != cell.inflight.end(), "start_attempt: unknown flight");
  ReliableFlight& flight = it->second;
  flight.attempts += 1;

  const AttemptFaults faults = roll_faults(flight);
  const int fault_source = flight.message->header.source;
  if (faults.drop) {
    cell.stats.deliveries_dropped += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDrop,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }
  if (faults.duplicate) {
    cell.stats.deliveries_duplicated += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDuplicate,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }
  if (faults.extra_delay_us > 0.0) {
    cell.stats.deliveries_delayed += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDelay,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }

  if (flight.attempts == 1) {
    // Fault-free expectations, jitter at its configured maximum: actual
    // times beyond these are provably fault-induced.
    flight.expected_deliver_us =
        timing.stage_at + params_.latency_us + params_.jitter_us;
    flight.expected_ack_us =
        flight.expected_deliver_us + params_.effective_ack_latency_us();
  }
  const double deliver_at = timing.deliver_at + faults.extra_delay_us;
  // The deliveries go to the destination's shard carrying their metadata
  // in the closure, and the sender simulates the acks itself. Every fault
  // decision — including both ack losses — was just rolled above, and the
  // receiver acks every non-dropped physical delivery unconditionally (dedup
  // outcome included), so each delivery's ack time is already known here:
  // the delivery time plus the ack latency. handle_ack is idempotent, so
  // simulating both acks never lets an event cross back against the
  // conservative window (the ack latency may be below the lookahead).
  // deliver_at >= now + latency_us >= now + lookahead keeps the forward
  // direction legal.
  const MessageHeader& header = flight.message->header;
  const double ack_latency = params_.effective_ack_latency_us();
  const auto land = [&](double at, bool ack_dropped) {
    auto delivery = [this, message = flight.message, seq = flight.seq,
                     first_sent = flight.first_sent_us,
                     expected = flight.expected_deliver_us,
                     span = flight.obs_span] {
      deliver_attempt(message, seq, first_sent, expected, span);
    };
    static_assert(sim::InlineFn::stores_inline<decltype(delivery)>);
    engine_.post_for(header.dest, at, std::move(delivery));
    if (!ack_dropped) {
      auto on_ack = [this, id] { handle_ack(id); };
      static_assert(sim::InlineFn::stores_inline<decltype(on_ack)>);
      engine_.post(at + ack_latency, on_ack);
      return;
    }
    // Charged at roll time on the sender's cell (the receiver can't touch
    // source-image counters); every launched delivery lands, so the totals
    // count every lost ack. The ring entry is stamped with the delivery
    // time, when the ack is lost; recording may not schedule events
    // (flight_recorder.hpp), so the ring's insertion order can run locally
    // ahead of this future stamp.
    cell.stats.acks_dropped += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(header.source, at, obs::FrKind::kFaultAckLoss,
                               header.dest, flight.seq, 0);
    }
  };
  if (!faults.drop) {
    land(deliver_at, faults.ack_drop);
  }
  if (faults.duplicate) {
    land(deliver_at + faults.dup_offset_us, faults.dup_ack_drop);
  }
  auto on_timer = [this, id, attempt = flight.attempts] {
    on_retransmit_timer(id, attempt);
  };
  static_assert(sim::InlineFn::stores_inline<decltype(on_timer)>);
  // The timeout runs from the attempt's staging point.
  engine_.post(timing.stage_at + flight.rto_us, on_timer);
}

void Network::deliver_attempt(const std::shared_ptr<const Message>& message,
                              std::uint64_t seq, double first_sent_us,
                              double expected_deliver_us, std::uint64_t span) {
  const MessageHeader& header = message->header;
  // The dedup window lives in the destination image's cell, the sender half
  // of the link in the source image's.
  ReliableImage& cell = rel_[static_cast<std::size_t>(header.dest)];
  if (!cell.receivers[header.source].accept(seq)) {
    // Dedup hits are the one counter charged to the destination image.
    cell.stats.duplicates_suppressed += 1;
    return;
  }
  deliver(*message, first_sent_us, span);
  const double now = engine_.now();
  if (observer_ != nullptr && now > expected_deliver_us + 1e-9) {
    // The paper's satellite claim: time a fault added shows up as network
    // blame, not as whatever construct happened to be waiting.
    observer_->retransmit_span(header.dest, header.source, expected_deliver_us,
                               now);
  }
}

void Network::handle_ack(std::uint64_t id) {
  ReliableImage& cell = rel_of(id);
  auto it = cell.inflight.find(id);
  if (it == cell.inflight.end()) {
    return;  // duplicate or late ack of a completed flight
  }
  if (flight_recorder_ != nullptr) {
    const MessageHeader& header = it->second.message->header;
    flight_recorder_->record(header.source, engine_.now(), obs::FrKind::kAck,
                             header.dest, it->second.seq,
                             static_cast<std::uint64_t>(it->second.attempts));
  }
  if (observer_ != nullptr) {
    const ReliableFlight& flight = it->second;
    const MessageHeader& header = flight.message->header;
    const double now = engine_.now();
    observer_->note_cause(header.source, flight.obs_span);
    if (now > flight.expected_ack_us + 1e-9) {
      observer_->retransmit_span(header.source, header.dest,
                                 flight.expected_ack_us, now);
    }
  }
  // Like ack(): report through the send's record, then release it.
  const std::optional<RecordRef> acked = it->second.acked;
  cell.inflight.erase(it);
  if (acked) {
    SendRecord& rec = record(*acked);
    report_ack(rec.header, rec.callbacks);
    release(*acked);
  }
}

void Network::on_retransmit_timer(std::uint64_t id, int attempt) {
  ReliableImage& cell = rel_of(id);
  auto it = cell.inflight.find(id);
  if (it == cell.inflight.end()) {
    return;  // acknowledged; the timer is stale
  }
  ReliableFlight& flight = it->second;
  if (flight.attempts != attempt) {
    return;  // a newer attempt rearmed its own timer
  }
  if (flight.attempts >= params_.reliability.max_attempts) {
    const MessageHeader& header = flight.message->header;
    std::ostringstream os;
    os << "reliable delivery failed: message " << header.source << "->"
       << header.dest << " (link seq " << flight.seq << ", ordinal "
       << flight.ordinal << ", handler " << header.handler << ", "
       << flight.message->size_bytes() << " B) undelivered after "
       << flight.attempts << " attempts over "
       << engine_.now() - flight.first_sent_us << " us (retry cap "
       << params_.reliability.max_attempts << ")";
    engine_.fail(os.str(), obs::FailKind::kRetryCap);
    return;
  }
  cell.stats.retransmits += 1;
  if (observer_ != nullptr) {
    observer_->add(flight.message->header.source,
                   obs::Counter::kMessagesRetransmitted);
  }
  if (flight_recorder_ != nullptr) {
    const MessageHeader& header = flight.message->header;
    flight_recorder_->record(header.source, engine_.now(),
                             obs::FrKind::kRetransmit, header.dest, flight.seq,
                             static_cast<std::uint64_t>(flight.attempts));
  }
  flight.rto_us *= params_.reliability.backoff;
  // A retransmission re-injects the whole payload, with fresh jitter.
  start_attempt(id, plan(flight.message->header.source, engine_.now(),
                         flight.message->size_bytes()));
}

void Network::fill_postmortem(obs::PmNetwork& net) const {
  net.present = true;
  net.reliable = reliable_;
  net.faults = fault_stats();
  net.inflight_total = inflight_reliable();
  net.inflight.clear();
  // Cells in image order, flights by id within a cell: the same listing at
  // every shard count.
  for (const ReliableImage& cell : rel_) {
    for (const auto& [id, flight] : cell.inflight) {
      if (net.inflight.size() == obs::kMaxListedFlights) {
        return;
      }
      const MessageHeader& header = flight.message->header;
      obs::PmFlight pm;
      pm.source = header.source;
      pm.dest = header.dest;
      pm.seq = flight.seq;
      pm.ordinal = flight.ordinal;
      pm.attempts = flight.attempts;
      pm.max_attempts = params_.reliability.max_attempts;
      pm.handler = header.handler;
      pm.bytes = flight.message->size_bytes();
      pm.first_sent_us = flight.first_sent_us;
      pm.rto_us = flight.rto_us;
      net.inflight.push_back(pm);
    }
  }
}

}  // namespace caf2::net
