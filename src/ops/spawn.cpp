#include "ops/spawn.hpp"

#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"

namespace caf2::ops {

namespace {

using rt::Image;

struct SpawnWire {
  std::uint64_t trampoline;  ///< in-process function pointer (handler index)
  RemoteEvent done;
};

}  // namespace

void spawn_bytes(int target, TrampolineFn fn,
                 std::vector<std::uint8_t> args, RemoteEvent done) {
  Image& image = Image::current();
  CAF2_REQUIRE(target >= 0 && target < image.num_images(),
               "spawn: target image out of range");

  WriteArchive archive;
  archive.write(SpawnWire{reinterpret_cast<std::uint64_t>(fn), done});
  archive.write_bytes(args.data(), args.size());

  const std::uint32_t limit =
      image.runtime().options().net.max_medium_payload;
  CAF2_REQUIRE(
      archive.size() <= limit,
      "spawn: marshalled arguments exceed the medium active-message "
      "payload limit (" +
          std::to_string(archive.size()) + " > " + std::to_string(limit) +
          " bytes)");

  // Cofence tracking only applies to implicitly-synchronized spawns. Local
  // data completion = the argument payload has been injected; local
  // operation completion = delivery acknowledged (see DESIGN.md §4.2 for the
  // deviation from "complete on target", which explicit events do honor).
  rt::ImplicitOp op;
  if (!done.valid()) {
    op = image.register_implicit(/*reads_local=*/true, /*writes_local=*/false);
  }
  Image* img = &image;
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  const std::uint64_t payload_bytes = archive.size();
  net::SendCallbacks callbacks(
      net::kStaged | net::kAcked,
      [img, op, rec, obs_begin, payload_bytes, target](net::SendPoint point) {
        if (point == net::kStaged) {
          op.data_complete(*img);
        } else {
          op.op_complete(*img);
          if (rec != nullptr) {
            rec->op_span(img->rank(), obs::SpanKind::kSpawn, obs_begin,
                         img->runtime().engine().now(), payload_bytes, 0,
                         target);
          }
        }
        img->runtime().engine().unblock(img->rank());
      });
  // Spawns are always charged to the enclosing finish scope (even when the
  // caller supplied a completion event): a shipped function can transitively
  // spawn implicit work, and the scope must not terminate under it.
  image.send(target, rt::kHandlerSpawn, archive.take(), image.current_finish(),
             std::move(callbacks));
}

void install_spawn_handlers(rt::Runtime& runtime) {
  runtime.set_handler(
      rt::kHandlerSpawn, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto wire = archive.read<SpawnWire>();
        auto fn = reinterpret_cast<TrampolineFn>(wire.trampoline);

        // The shipped function gets its own cofence scope: a cofence inside
        // it only captures operations it initiated (paper Fig. 10).
        image.cofence_tracker().push_scope();
        try {
          fn(archive);
        } catch (...) {
          image.cofence_tracker().pop_scope();
          throw;
        }
        image.cofence_tracker().pop_scope();

        if (wire.done.valid()) {
          rt::post_event_raw(image.runtime(), image.rank(), wire.done);
        }
      });
}

}  // namespace caf2::ops
