// Runtime lane-ownership checker: the dynamic half of the
// lane-ownership story (kdlint R7/R8 are the static half).
//
// The static pass proves that no *component type* reaches another
// component type's KD_LANE_OWNED state except through a sanctioned
// seam. It cannot prove per-instance isolation — that kubelet
// node-0001's event never touches node-0002's tables — because both
// instances share one type. This checker closes that gap at run time:
//
//   - every event carries the lane of the context that scheduled it,
//     so lane membership flows through arbitrary closure chains;
//   - a LaneScope is the only way into a lane: each sanctioned seam
//     (net delivery, the informer merge, the control-loop dispatch,
//     the harness lifecycle, API-client completions) opens one for the
//     *receiving* side before running receiver code. A seam that lacks
//     it runs receiver code in the sender's lane, which the checker
//     reports;
//   - instrumented state (ObjectCache) reports every touch; a touch
//     from a live lane that is not the owner is an ownership breach,
//     recorded with the violating event's provenance (virtual time,
//     sequence number).
//
// Touches from no lane at all (driver/test code poking a component
// from outside any event, or before lanes are wired) are exempt:
// kNoLane means "not a component context", not "lane zero".
//
// The checker is always on. It never schedules events and never reads
// wall-clock state, so it cannot change a run's event trace; a touch
// costs an inline compare, and only recording a breach is out of line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lane.h"
#include "common/time.h"

namespace kd::sim {

class LaneChecker {
 public:
  // Dense ids from 1 (kNoLane = 0 stays "no lane"). Registering an
  // existing name returns its id — same-named instances share a lane.
  LaneId RegisterLane(const std::string& name);
  const std::string& lane_name(LaneId id) const;
  std::size_t lane_count() const { return names_.size() - 1; }

  // The lane of the executing event (or of the seam scope inside it).
  LaneId current_lane() const { return ctx_.lane; }
  void SetCurrentLane(LaneId lane) { ctx_.lane = lane; }

  // Called by the engine as each event fires: restores the event's
  // lane and notes its provenance for breach reports.
  void BeginEvent(Time time, std::uint64_t seq, LaneId lane) {
    ctx_ = EventCtx{lane, time, seq};
  }

  // Reports one access to instrumented state: `site` labels the object
  // in reports, `owner` is the lane the state is bound to, `key` the
  // touched entry.
  void Touch(const std::string& site, LaneId owner, const std::string& key) {
    if (ctx_.lane != kNoLane && owner != kNoLane && ctx_.lane != owner) {
      RecordBreach(site, owner, key);
    }
  }

  struct Conflict {
    std::string site;  // label of the touched object
    std::string key;
    LaneId owner = kNoLane;   // lane the state belongs to
    LaneId actual = kNoLane;  // lane of the violating event
    Time time = 0;            // violating event's provenance
    std::uint64_t seq = 0;
  };

  // First kMaxRecorded conflicts in detail; total_conflicts() counts
  // every one (a broken run can conflict on every touch).
  const std::vector<Conflict>& conflicts() const { return conflicts_; }
  std::uint64_t total_conflicts() const { return total_conflicts_; }
  std::string FormatReport() const;

 private:
  static constexpr std::size_t kMaxRecorded = 100;

  struct EventCtx {
    LaneId lane = kNoLane;
    Time time = 0;
    std::uint64_t seq = 0;
  };

  void RecordBreach(const std::string& site, LaneId owner,
                    const std::string& key);

  EventCtx ctx_;
  std::vector<std::string> names_{"<none>"};  // index 0 = kNoLane
  std::map<std::string, LaneId> by_name_;
  std::vector<Conflict> conflicts_;
  std::uint64_t total_conflicts_ = 0;
};

// RAII re-scope used by sanctioned seams: runs the enclosed receiver
// code in `lane`, restoring the previous lane on exit (exception
// safe). The pointer overload tolerates unwired call sites.
class LaneScope {
 public:
  LaneScope(LaneChecker& checker, LaneId lane)
      : checker_(&checker), prev_(checker.current_lane()) {
    checker_->SetCurrentLane(lane);
  }
  LaneScope(LaneChecker* checker, LaneId lane)
      : checker_(checker), prev_(checker ? checker->current_lane() : kNoLane) {
    if (checker_ != nullptr) checker_->SetCurrentLane(lane);
  }
  ~LaneScope() {
    if (checker_ != nullptr) checker_->SetCurrentLane(prev_);
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  LaneChecker* checker_;
  LaneId prev_;
};

}  // namespace kd::sim
