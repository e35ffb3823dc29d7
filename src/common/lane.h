// Lane-ownership model: one owner per piece of component state, and
// explicit seams between owners.
//
// A *lane* is one component's event stream plus the mutable state only
// that stream may touch. Every piece of component state has a declared
// owner, and every cross-lane effect routes through a sanctioned seam
// (net::, the hierarchy channel, ApiClient, the watch hub). So a
// component's state changes only in its own events, and a crash or
// restart of one component loses only state it owned. kdlint rules
// R7/R8 check the model statically from these annotations;
// sim::LaneChecker (src/sim/lane_checker.h) checks it at run time, per
// instance. See LINT.md and DESIGN.md §7 for the full ownership map.
//
// Usage:
//
//   class KD_LANE_OWNED(kubelet) Kubelet { ... };   // all state owned
//   class KD_LANE_SEAM Endpoint { ... };            // sanctioned seam
//
// The macros expand to a clang `annotate` attribute where available so
// the AST backend can see them, and to nothing elsewhere; the token
// analyzer (and the cross-TU index in kdlint's driver) reads the
// macro invocation itself, so both modes agree on the model without
// any build-flag coupling.
#pragma once

#include <cstdint>

namespace kd {

// Dense runtime lane id handed out by sim::LaneChecker::RegisterLane.
// 0 is "no lane": driver/test code and anything not yet attributed.
using LaneId = std::uint16_t;
inline constexpr LaneId kNoLane = 0;

}  // namespace kd

// KD_LANE_OWNED(lane): every mutable member of the annotated class is
// owned by `lane`; only events tagged with that lane may touch it.
// KD_LANE_SEAM: the annotated class is a sanctioned conduit for
// cross-lane effects (messages, API calls, watch delivery) — calls
// into it from any lane are legal by design.
#if defined(__clang__)
#define KD_LANE_OWNED(lane) [[clang::annotate("kd::lane=" #lane)]]
#define KD_LANE_SEAM [[clang::annotate("kd::lane-seam")]]
#else
#define KD_LANE_OWNED(lane)
#define KD_LANE_SEAM
#endif
