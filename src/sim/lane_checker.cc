#include "sim/lane_checker.h"

#include "common/strings.h"

namespace kd::sim {

LaneId LaneChecker::RegisterLane(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const LaneId id = static_cast<LaneId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

const std::string& LaneChecker::lane_name(LaneId id) const {
  static const std::string kUnknown = "<unknown>";
  return id < names_.size() ? names_[id] : kUnknown;
}

void LaneChecker::RecordBreach(const std::string& site, LaneId owner,
                               const std::string& key) {
  ++total_conflicts_;
  if (conflicts_.size() >= kMaxRecorded) return;
  conflicts_.push_back(
      Conflict{site, key, owner, ctx_.lane, ctx_.time, ctx_.seq});
}

std::string LaneChecker::FormatReport() const {
  if (total_conflicts_ == 0) return "lane checker: no conflicts\n";
  std::string out =
      StrFormat("lane checker: %llu conflict(s)\n",
                static_cast<unsigned long long>(total_conflicts_));
  for (const Conflict& c : conflicts_) {
    out += StrFormat(
        "  %s[%s]: lane '%s' touched state owned by '%s' at t=%lld "
        "seq=%llu\n",
        c.site.c_str(), c.key.c_str(), lane_name(c.actual).c_str(),
        lane_name(c.owner).c_str(), static_cast<long long>(c.time),
        static_cast<unsigned long long>(c.seq));
  }
  return out;
}

}  // namespace kd::sim
