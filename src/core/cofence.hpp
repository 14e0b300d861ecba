#pragma once

/// \file cofence.hpp
/// The cofence construct (paper §III-B).
///
/// cofence demands *local data completion* of the implicitly-synchronized
/// asynchronous operations in the current scope: after it returns, the
/// initiator-local inputs of those operations may be overwritten and their
/// initiator-local outputs may be read. It says nothing about remote
/// delivery — that is what events (local operation completion) and finish
/// (global completion) provide. Exploiting exactly this gap is what makes
/// the producer–consumer micro-benchmark's cofence variant the fastest
/// (paper Fig. 12).
///
/// The two optional arguments relax the fence for performance tuning,
/// modeled on the SPARC V9 MEMBAR's ordering masks:
///   cofence(DOWNWARD, UPWARD)
/// DOWNWARD names the class of prior operations (by whether they READ or
/// WRITE initiator-local data) that may defer completion past the fence;
/// UPWARD names the class of later operations that may begin before the
/// fence completes. In a library implementation statements execute in
/// program order, so UPWARD cannot change runtime behaviour; it is accepted,
/// validated, and documented as a compiler-facing constraint.

#include "runtime/cofence_tracker.hpp"

namespace caf2 {

/// Access classes that may pass a cofence (re-export of the runtime type).
using Pass = rt::PassClass;

/// Block until local data completion of the current scope's outstanding
/// implicit asynchronous operations, except those whose class \p downward
/// allows to complete later. \p upward is the symmetric compiler-facing
/// relaxation for operations after the fence.
void cofence(Pass downward = Pass::kNone, Pass upward = Pass::kNone);

/// Number of implicit operations in the current scope still short of local
/// operation completion (diagnostic; used by tests).
std::size_t outstanding_implicit_ops();

}  // namespace caf2
