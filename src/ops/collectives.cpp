#include "ops/collectives.hpp"

#include <array>
#include <memory>

#include "obs/obs.hpp"
#include "ops/coll_algo.hpp"
#include "ops/coll_detail.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "support/serialize.hpp"

namespace caf2::ops {

namespace detail {

using rt::CollKey;
using rt::CollStageMsg;
using rt::Image;

CollImplBase::CollImplBase(CollKey key, CollDesc desc)
    : key_(key), desc_(std::move(desc)) {}

void CollImplBase::on_stage(Image& image, CollStageMsg&& msg) {
  handle(image, std::move(msg));
  try_complete(image);
}

void CollImplBase::start(Image& image, const net::FinishKey& finish,
                         rt::ImplicitOpPtr op) {
  finish_ = finish;
  op_ = std::move(op);
  begin_us_ = image.runtime().engine().now();
  begin(image);
  try_complete(image);
}

void CollImplBase::send_stage(Image& image, int to_team_rank, int stage,
                              const void* data, std::size_t bytes) {
  WriteArchive archive;
  archive.write(key_);
  archive.write(static_cast<std::int32_t>(stage));
  archive.write(static_cast<std::int32_t>(desc_.team.rank()));
  if (bytes > 0) {
    archive.write_bytes(data, bytes);
  }

  ++pending_stage_;
  ++pending_ack_;
  Image* img = &image;
  net::SendCallbacks callbacks(net::kStaged | net::kAcked,
                               [this, img](net::SendPoint point) {
                                 --(point == net::kStaged ? pending_stage_
                                                          : pending_ack_);
                                 on_send_progress(*img);
                               });
  image.send(desc_.team.world_rank(to_team_rank), rt::kHandlerCollective,
             archive.take(), finish_, std::move(callbacks));
}

void CollImplBase::on_send_progress(Image& image) {
  try_complete(image);
  image.runtime().engine().unblock(image.rank());
  if (erasable_) {
    // Completion on the send path: every stage message this image expects
    // has already arrived, so nothing will look the state up again. The
    // message path (start_collective, the stage handler) erases the rest.
    const CollKey key = key_;
    image.erase_coll_state(key);  // destroys *this
  }
}

void CollImplBase::mark_data_done(Image& image, bool after_stages) {
  if (after_stages && pending_stage_ > 0) {
    data_after_stages_ = true;
    return;
  }
  if (data_done_) {
    return;
  }
  data_done_ = true;
  if (op_) {
    op_->data_complete = true;
  }
  if (desc_.src_done.valid()) {
    rt::post_event_raw(image.runtime(), image.rank(), desc_.src_done);
  }
  image.runtime().engine().unblock(image.rank());
}

void CollImplBase::try_complete(Image& image) {
  if (data_after_stages_ && pending_stage_ == 0) {
    data_after_stages_ = false;
    mark_data_done(image);
  }
  if (op_done_ || !role_done() || pending_stage_ > 0 || pending_ack_ > 0) {
    return;
  }
  // Local operation completion: role complete and every stage this image
  // sent has been injected and acknowledged.
  op_done_ = true;
  if (!data_done_) {
    mark_data_done(image);
  }
  if (op_) {
    op_->op_complete = true;
  }
  if (desc_.local_done.valid()) {
    rt::post_event_raw(image.runtime(), image.rank(), desc_.local_done);
  }
  // Satellite: every collective stamps its resolved schedule into the span
  // label ("kind/algorithm"), so trace exports show which schedule ran.
  // Appending a span never schedules events, so obs on/off stays
  // schedule-identical.
  if (obs::Recorder* const rec = image.runtime().observer()) {
    rec->op_span(image.rank(), obs::SpanKind::kCollective, begin_us_,
                 image.runtime().engine().now(), desc_.bytes,
                 static_cast<std::uint64_t>(team_size()), -1,
                 coll_span_label(desc_.kind, desc_.algorithm));
  }
  image.runtime().engine().unblock(image.rank());
  erasable_ = true;
}

}  // namespace detail

namespace {

using detail::CollImplBase;
using rt::CollKey;
using rt::CollStageMsg;
using rt::Image;

using ImplFactory = std::unique_ptr<CollImplBase> (*)(CollKey, CollDesc);

/// Schedule family per resolved algorithm, indexed by CollAlgorithm. Each
/// family factory switches on the kind; resolve_algorithm() already
/// rejected unsupported pairings and clamped structurally impossible ones.
constexpr std::array<ImplFactory, 7> kFamilies = {
    nullptr,                   // kAuto never survives resolution
    detail::make_tree_impl,    // kBinomialTree
    detail::make_tree_impl,    // kKnomialTree
    detail::make_ring_impl,    // kRing
    detail::make_rounds_impl,  // kRecursiveDoubling
    detail::make_rounds_impl,  // kDissemination
    detail::make_direct_impl,  // kDirect
};
static_assert(kFamilies.size() ==
              static_cast<std::size_t>(CollAlgorithm::kDirect) + 1);

/// Per-kind cofence classification: does the operation read / write
/// initiator-local data? (paper Fig. 4 rows)
void classify(const CollDesc& desc, bool& reads, bool& writes) {
  const bool root = desc.team.rank() == desc.root;
  switch (desc.kind) {
    case CollKind::kBarrier:
      reads = writes = false;
      break;
    case CollKind::kBroadcast:
      reads = root;
      writes = !root;
      break;
    case CollKind::kReduce:
    case CollKind::kGather:
    case CollKind::kGatherv:
      reads = true;
      writes = root;
      break;
    case CollKind::kScatter:
    case CollKind::kScatterv:
      reads = root;
      writes = true;
      break;
    case CollKind::kAllreduce:
    case CollKind::kScan:
    case CollKind::kAlltoall:
    case CollKind::kSort:
    case CollKind::kAllgather:
    case CollKind::kReduceScatter:
    case CollKind::kAlltoallv:
      reads = writes = true;
      break;
  }
}

}  // namespace

void start_collective(CollDesc desc) {
  Image& image = Image::current();
  CAF2_REQUIRE(desc.team.valid(), "collective on an invalid team");
  CAF2_REQUIRE(desc.team.world_rank(desc.team.rank()) == image.rank(),
               "collective caller is not a member of the team");

  // Resolve kAuto to a concrete schedule. Kind and team size are
  // team-uniform, so all members independently pick the same schedule and
  // the stage machinery stays in lockstep.
  desc.algorithm =
      resolve_algorithm(desc.kind, desc.algorithm, desc.team.size());

  const bool implicit =
      !desc.src_done.valid() && !desc.local_done.valid();
  rt::ImplicitOpPtr op;
  net::FinishKey finish{};
  if (implicit) {
    bool reads = false;
    bool writes = false;
    classify(desc, reads, writes);
    op = image.register_implicit(reads, writes, "collective");
    finish = image.current_finish();
    if (finish.valid()) {
      const auto finish_team = image.find_team(finish.team);
      CAF2_ASSERT(finish_team != nullptr, "finish team unknown");
      CAF2_REQUIRE(Team(finish_team).contains_team(desc.team),
                   "collective team is not a subset of the enclosing "
                   "finish team");
    }
  }

  const CollKey key{desc.team.id(), image.next_coll_seq(desc.team.id())};
  rt::PendingColl& pending = image.coll_state(key);
  CAF2_ASSERT(pending.op == nullptr, "collective sequence collision");
  const ImplFactory factory =
      kFamilies[static_cast<std::size_t>(desc.algorithm)];
  CAF2_ASSERT(factory != nullptr, "collective algorithm left unresolved");
  std::unique_ptr<CollImplBase> impl = factory(key, std::move(desc));
  CollImplBase* const raw = impl.get();
  pending.op = std::move(impl);
  raw->start(image, finish, std::move(op));

  auto buffered = std::move(pending.buffered);
  pending.buffered.clear();
  for (auto& msg : buffered) {
    raw->on_stage(image, std::move(msg));
  }
  if (raw->finished()) {
    image.erase_coll_state(key);
  }
}

void install_collective_handlers(rt::Runtime& runtime) {
  runtime.set_handler(
      rt::kHandlerCollective, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto key = archive.read<CollKey>();
        const auto stage = archive.read<std::int32_t>();
        const auto from = archive.read<std::int32_t>();
        CollStageMsg msg;
        msg.stage = stage;
        msg.from_team_rank = from;
        msg.data.resize(archive.remaining());
        if (!msg.data.empty()) {
          archive.read_bytes(msg.data.data(), msg.data.size());
        }

        rt::PendingColl& pending = image.coll_state(key);
        if (pending.op != nullptr) {
          pending.op->on_stage(image, std::move(msg));
          if (pending.op->finished()) {
            image.erase_coll_state(key);
          }
        } else {
          pending.buffered.push_back(std::move(msg));
        }
      });
}

}  // namespace caf2::ops

namespace caf2 {

void barrier_async(const Team& team, CollOptions options) {
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kBarrier;
  desc.team = team;
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

void team_barrier(const Team& team) {
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  {
    // Scope the completion wait so it is not misclassified as event-wait
    // time: a barrier wait blocked on the wire lands in the network bucket,
    // everything else in "other".
    obs::BlameScope blame(rec, image.rank(), obs::Blame::kOther);
    Event done;
    barrier_async(team, {.local_done = done.handle()});
    done.wait();
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kCollective, obs_begin,
                 image.runtime().engine().now(), 0, 0, -1, "barrier");
  }
}

}  // namespace caf2
