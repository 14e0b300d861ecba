#include "runtime/cofence_tracker.hpp"

#include "runtime/image.hpp"
#include "support/error.hpp"

namespace caf2::rt {

bool CofenceScope::data_complete_for(PassClass down) const {
  // An op that both reads and writes local data must wait unless *both*
  // classes are allowed to pass: letting (say) reads pass has no practical
  // effect if the op's write must still be ordered (paper §III-B).
  for (unsigned access = 1; access < data_pending_.size(); ++access) {
    const bool read_held = (access & 1U) != 0 && !allows_read(down);
    const bool write_held = (access & 2U) != 0 && !allows_write(down);
    if ((read_held || write_held) && data_pending_[access] > 0) {
      return false;
    }
  }
  return true;
}

ImplicitOp CofenceTracker::start(bool reads_local, bool writes_local) {
  CofenceScope& scope = stack_.back();
  ImplicitOp op;
  op.serial_ = scope.serial_;
  op.depth_ = static_cast<std::uint32_t>(stack_.size() - 1);
  op.access_ = static_cast<std::uint8_t>((reads_local ? 1U : 0U) |
                                         (writes_local ? 2U : 0U));
  ++scope.data_pending_[op.access_];
  ++scope.op_pending_;
  return op;
}

void CofenceTracker::pop_scope() {
  CAF2_ASSERT(stack_.size() > 1, "cannot pop the root cofence scope");
  stack_.pop_back();
}

CofenceScope* CofenceTracker::live_scope(const ImplicitOp& op) {
  if (op.empty() || op.depth_ >= stack_.size()) {
    return nullptr;
  }
  CofenceScope& scope = stack_[op.depth_];
  return scope.serial_ == op.serial_ ? &scope : nullptr;
}

void ImplicitOp::data_complete(Image& image) const {
  if (CofenceScope* scope = image.cofence_tracker().live_scope(*this)) {
    CAF2_ASSERT(scope->data_pending_[access_] > 0,
                "implicit op reached data completion twice");
    --scope->data_pending_[access_];
  }
}

void ImplicitOp::op_complete(Image& image) const {
  if (CofenceScope* scope = image.cofence_tracker().live_scope(*this)) {
    CAF2_ASSERT(scope->op_pending_ > 0,
                "implicit op reached operation completion twice");
    --scope->op_pending_;
  }
}

}  // namespace caf2::rt
