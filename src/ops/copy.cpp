#include "ops/copy.hpp"

#include <cstring>

#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "support/serialize.hpp"

namespace caf2::ops {

namespace {

using rt::Image;

/// Wire formats. All are trivially copyable and travel at the front of the
/// message payload (followed by raw data where applicable).
struct PutWire {
  std::uint64_t dst_coarray;
  std::uint64_t dst_offset_bytes;
  RemoteEvent dst_done;
};

struct GetReqWire {
  std::uint64_t src_coarray;
  std::uint64_t src_offset_bytes;
  std::uint64_t bytes;
  std::uint64_t sink_id;
  RemoteEvent src_done;
};

struct GetRespWire {
  std::uint64_t sink_id;
};

struct ForwardWire {
  std::uint64_t dst_coarray;
  std::uint64_t dst_offset_bytes;
  std::int32_t dst_image;
  std::uint64_t src_coarray;
  std::uint64_t src_offset_bytes;
  std::uint64_t bytes;
  RemoteEvent src_done;
  RemoteEvent dst_done;
};

struct ArmWire {
  std::uint64_t event_id;
  std::uint64_t plan_id;
  std::int32_t initiator;
};

struct FireWire {
  std::uint64_t plan_id;
};

void post_done(Image& image, const RemoteEvent& event) {
  if (event.valid()) {
    rt::post_event_raw(image.runtime(), image.rank(), event);
  }
}

/// Both end points are buffers local to \p image: a staged local memcpy.
/// A tracked local copy is charged to the finish as a self-message so the
/// scope cannot terminate before the copy completes.
void start_local_copy(Image& image, const CopyDesc& d, rt::ImplicitOp op,
                      const net::FinishKey& finish) {
  const bool odd = image.charge_local(finish);
  // The network validated the bandwidth > 0 (infinity => no injection time).
  const double inject = static_cast<double>(d.bytes) /
                        image.runtime().options().net.bandwidth_bytes_per_us;
  Image* img = &image;
  void* const dst = d.dst_local;
  const void* const src = d.src_local;
  const std::uint64_t bytes = d.bytes;
  sim::Engine& engine = image.runtime().engine();
  // An implicit copy completes its op and finish charge (a forwarded one may
  // carry only the charge); an explicit copy posts its completion events
  // instead. No copy does both, so capturing one side keeps each closure
  // within an engine slot.
  const bool posts_events = d.src_done.valid() || d.dst_done.valid();
  if (!posts_events) {
    auto copy = [img, dst, src, bytes, op, finish, odd] {
      std::memcpy(dst, src, bytes);
      op.data_complete(*img);
      op.op_complete(*img);
      img->complete_local(finish, odd);
      img->runtime().engine().unblock(img->rank());
    };
    static_assert(sim::InlineFn::stores_inline<decltype(copy)>);
    engine.post_in(inject, std::move(copy));
    return;
  }
  CAF2_ASSERT(op.empty() && !finish.valid(),
              "a copy with completion events is neither implicit nor tracked");
  auto copy = [img, dst, src, bytes, src_done = d.src_done,
               dst_done = d.dst_done] {
    std::memcpy(dst, src, bytes);
    post_done(*img, src_done);
    post_done(*img, dst_done);
    img->runtime().engine().unblock(img->rank());
  };
  static_assert(sim::InlineFn::stores_inline<decltype(copy)>);
  engine.post_in(inject, std::move(copy));
}

/// Source buffer is local to \p image, destination is a remote coarray
/// block: a one-sided put. The source buffer is read at staging time.
void start_put(Image& image, const CopyDesc& d, rt::ImplicitOp op,
               const net::FinishKey& finish) {
  PutWire wire{d.dst_coarray, d.dst_offset_bytes, d.dst_done};
  const void* src = d.src_local;
  const std::uint64_t bytes = d.bytes;
  auto read = [wire, src, bytes] {
    WriteArchive archive;
    archive.write(wire);
    archive.write_bytes(src, bytes);
    return archive.take();
  };
  static_assert(net::StageReader::stores_inline<decltype(read)>);

  Image* img = &image;
  const RemoteEvent src_done = d.src_done;
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  const int dst_image = d.dst_image;
  net::SendCallbacks callbacks(
      net::kStaged | net::kAcked, [img, op, src_done, rec, obs_begin, bytes,
                                   dst_image](net::SendPoint point) {
        if (point == net::kStaged) {
          op.data_complete(*img);
          post_done(*img, src_done);
        } else {
          op.op_complete(*img);
          if (rec != nullptr) {
            rec->op_span(img->rank(), obs::SpanKind::kPut, obs_begin,
                         img->runtime().engine().now(), bytes, 0, dst_image);
          }
        }
        img->runtime().engine().unblock(img->rank());
      });
  image.send_staged(d.dst_image, rt::kHandlerCopyPut, sizeof(PutWire) + bytes,
                    std::move(read), finish, std::move(callbacks));
}

/// Destination buffer is local to \p image, source is a remote coarray
/// block: a get, implemented as request + staged response.
void start_get(Image& image, const CopyDesc& d, rt::ImplicitOp op,
               const net::FinishKey& finish) {
  Image* img = &image;
  void* dst = d.dst_local;
  const std::uint64_t bytes = d.bytes;
  const RemoteEvent dst_done = d.dst_done;
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  const int src_image = d.src_image;
  const std::uint64_t sink_id =
      image.stash_get([img, dst, bytes, op, dst_done, rec, obs_begin,
                       src_image](std::span<const std::uint8_t> data) {
        CAF2_ASSERT(data.size() == bytes, "get response size mismatch");
        std::memcpy(dst, data.data(), data.size());
        op.data_complete(*img);
        op.op_complete(*img);
        if (rec != nullptr) {
          rec->op_span(img->rank(), obs::SpanKind::kGet, obs_begin,
                       img->runtime().engine().now(), bytes, 0, src_image);
        }
        post_done(*img, dst_done);
        img->runtime().engine().unblock(img->rank());
      });

  WriteArchive archive;
  archive.write(GetReqWire{d.src_coarray, d.src_offset_bytes, d.bytes,
                           sink_id, d.src_done});
  image.send(d.src_image, rt::kHandlerCopyGetReq, archive.take(), finish);
}

/// Neither end point is local: forward control to the source image, which
/// performs the transfer (a local copy or a put) on the initiator's behalf.
void start_forward(Image& image, const CopyDesc& d, rt::ImplicitOp op,
                   const net::FinishKey& finish) {
  op.data_complete(image);  // no initiator-local buffers are involved
  WriteArchive archive;
  archive.write(ForwardWire{d.dst_coarray, d.dst_offset_bytes,
                            d.dst_image, d.src_coarray, d.src_offset_bytes,
                            d.bytes, d.src_done, d.dst_done});

  Image* img = &image;
  net::SendCallbacks callbacks(net::kAcked, [img, op](net::SendPoint) {
    // Pair-wise communication involving the initiator (the control message)
    // is done.
    op.op_complete(*img);
    img->runtime().engine().unblock(img->rank());
  });
  image.send(d.src_image, rt::kHandlerCopyForward, archive.take(), finish,
             std::move(callbacks));
}

void execute_plan(Image& image, const CopyDesc& d, rt::ImplicitOp op,
                  const net::FinishKey& finish) {
  if (d.src_local != nullptr && d.dst_local != nullptr) {
    start_local_copy(image, d, op, finish);
  } else if (d.src_local != nullptr) {
    start_put(image, d, op, finish);
  } else if (d.dst_local != nullptr) {
    start_get(image, d, op, finish);
  } else {
    start_forward(image, d, op, finish);
  }
}

}  // namespace

void copy_async_bytes(CopyDesc desc) {
  Image& image = Image::current();

  // Normalize: slices that live on the initiating image become raw local
  // pointers, so the dispatch below only distinguishes local vs. remote.
  if (desc.dst_local == nullptr && desc.dst_image == image.rank()) {
    const rt::BlockInfo block = image.lookup_block(desc.dst_coarray);
    CAF2_REQUIRE(desc.dst_offset_bytes + desc.bytes <= block.bytes,
                 "copy_async: destination slice out of range");
    desc.dst_local =
        static_cast<std::uint8_t*>(block.data) + desc.dst_offset_bytes;
  }
  if (desc.src_local == nullptr && desc.src_image == image.rank()) {
    const rt::BlockInfo block = image.lookup_block(desc.src_coarray);
    CAF2_REQUIRE(desc.src_offset_bytes + desc.bytes <= block.bytes,
                 "copy_async: source slice out of range");
    desc.src_local = static_cast<const std::uint8_t*>(block.data) +
                     desc.src_offset_bytes;
  }

  // Implicit completion iff no completion events were supplied (paper §III:
  // the predicate event does not manage completion).
  const bool implicit = !desc.src_done.valid() && !desc.dst_done.valid();
  rt::ImplicitOp op;
  if (implicit) {
    op = image.register_implicit(desc.src_local != nullptr,
                                 desc.dst_local != nullptr);
  }
  const net::FinishKey finish =
      implicit ? image.current_finish() : net::FinishKey{};

  if (!desc.pre.valid()) {
    execute_plan(image, desc, op, finish);
    return;
  }

  // Predicated copy: defer initiation until preE fires. A tracked deferred
  // copy is charged to the finish immediately (a self-message that completes
  // when the predicate fires), so the scope cannot terminate while the copy
  // is still waiting on its predicate.
  const bool odd = image.charge_local(finish);
  Image* img = &image;
  CopyDesc inner = desc;
  inner.pre = RemoteEvent{};
  auto plan = [img, inner, op, finish, odd] {
    if (finish.valid()) {
      img->complete_local(finish, odd);
      img->runtime().engine().unblock(img->rank());
    }
    execute_plan(*img, inner, op, finish);
  };

  if (desc.pre.image == image.rank()) {
    Event* pre = image.find_event(desc.pre.event_id);
    CAF2_REQUIRE(pre != nullptr, "copy_async: unknown local predicate event");
    pre->when_posted(std::move(plan));
    return;
  }

  // Remote predicate: stash the plan here, arm a trigger on the predicate's
  // owner, which fires a control message back when the event posts.
  const std::uint64_t plan_id = image.stash_plan(std::move(plan));
  WriteArchive archive;
  archive.write(ArmWire{desc.pre.event_id, plan_id, image.rank()});
  image.send(desc.pre.image, rt::kHandlerCopyArmPre, archive.take());
}

void install_copy_handlers(rt::Runtime& runtime) {
  runtime.set_handler(
      rt::kHandlerCopyPut, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<PutWire>();
        const rt::BlockInfo block = image.lookup_block(wire.dst_coarray);
        const std::size_t bytes = archive.remaining();
        CAF2_REQUIRE(wire.dst_offset_bytes + bytes <= block.bytes,
                     "copy_async put out of range at destination");
        archive.read_bytes(
            static_cast<std::uint8_t*>(block.data) + wire.dst_offset_bytes,
            bytes);
        if (wire.dst_done.valid()) {
          rt::post_event_raw(image.runtime(), image.rank(), wire.dst_done);
        }
      });

  runtime.set_handler(
      rt::kHandlerCopyGetReq, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<GetReqWire>();
        const rt::BlockInfo block = image.lookup_block(wire.src_coarray);
        CAF2_REQUIRE(wire.src_offset_bytes + wire.bytes <= block.bytes,
                     "copy_async get out of range at source");
        const std::uint8_t* src =
            static_cast<const std::uint8_t*>(block.data) +
            wire.src_offset_bytes;

        const std::uint64_t bytes = wire.bytes;
        const std::uint64_t sink = wire.sink_id;
        auto read = [src, bytes, sink] {
          WriteArchive out;
          out.write(GetRespWire{sink});
          out.write_bytes(src, bytes);
          return out.take();
        };
        static_assert(net::StageReader::stores_inline<decltype(read)>);
        Image* img = &image;
        const RemoteEvent src_done = wire.src_done;
        net::SendCallbacks callbacks(
            net::kStaged, [img, src_done](net::SendPoint) {
              if (src_done.valid()) {
                rt::post_event_raw(img->runtime(), img->rank(), src_done);
              }
            });
        image.send_staged(message.header.source, rt::kHandlerCopyGetResp,
                          sizeof(GetRespWire) + bytes, std::move(read),
                          message.header.finish, std::move(callbacks));
      });

  runtime.set_handler(
      rt::kHandlerCopyGetResp, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<GetRespWire>();
        const std::size_t data_size = archive.remaining();
        std::span<const std::uint8_t> data(
            message.payload.data() + (message.payload.size() - data_size),
            data_size);
        image.complete_get(wire.sink_id, data);
      });

  runtime.set_handler(
      rt::kHandlerCopyForward, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<ForwardWire>();
        const rt::BlockInfo src_block = image.lookup_block(wire.src_coarray);
        CAF2_REQUIRE(wire.src_offset_bytes + wire.bytes <= src_block.bytes,
                     "forwarded copy out of range at source");

        CopyDesc d;
        d.src_image = image.rank();
        d.src_local = static_cast<const std::uint8_t*>(src_block.data) +
                      wire.src_offset_bytes;
        d.dst_image = wire.dst_image;
        d.dst_coarray = wire.dst_coarray;
        d.dst_offset_bytes = wire.dst_offset_bytes;
        d.bytes = wire.bytes;
        d.src_done = wire.src_done;
        d.dst_done = wire.dst_done;
        if (wire.dst_image == image.rank()) {
          const rt::BlockInfo dst_block =
              image.lookup_block(wire.dst_coarray);
          CAF2_REQUIRE(
              wire.dst_offset_bytes + wire.bytes <= dst_block.bytes,
              "forwarded copy out of range at destination");
          d.dst_local = static_cast<std::uint8_t*>(dst_block.data) +
                        wire.dst_offset_bytes;
          start_local_copy(image, d, {}, message.header.finish);
        } else {
          start_put(image, d, {}, message.header.finish);
        }
      });

  runtime.set_handler(
      rt::kHandlerCopyArmPre, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<ArmWire>();
        Event* event = image.find_event(wire.event_id);
        CAF2_REQUIRE(event != nullptr,
                     "copy_async: unknown remote predicate event");
        Image* img = &image;
        event->when_posted([img, wire] {
          WriteArchive out;
          out.write(FireWire{wire.plan_id});
          img->send(wire.initiator, rt::kHandlerCopyFire, out.take());
        });
      });

  runtime.set_handler(rt::kHandlerCopyFire,
                      [](Image& image, net::Message&& message) {
                        ReadArchive archive(message.payload);
                        const auto wire = archive.read<FireWire>();
                        image.fire_plan(wire.plan_id);
                      });
}

}  // namespace caf2::ops
