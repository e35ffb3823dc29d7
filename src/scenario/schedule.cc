#include "scenario/schedule.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/strings.h"

namespace kd::scenario {

namespace {

// "500ms" / "10s" / "1.5s" / "2m" -> Duration. Bare numbers are
// seconds.
bool ParseDurationToken(const std::string& token, Duration* out) {
  std::size_t suffix = token.size();
  while (suffix > 0 && !(token[suffix - 1] >= '0' && token[suffix - 1] <= '9')
         && token[suffix - 1] != '.') {
    --suffix;
  }
  if (suffix == 0) return false;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + suffix) return false;
  const std::string unit = token.substr(suffix);
  if (unit == "ms") {
    *out = MillisecondsF(value);
  } else if (unit == "s" || unit.empty()) {
    *out = SecondsF(value);
  } else if (unit == "m") {
    *out = SecondsF(value * 60.0);
  } else {
    return false;
  }
  return true;
}

bool ParseDoubleToken(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && !token.empty();
}

Status ApplyKeyValue(Op* op, const std::string& key,
                     const std::string& value, int line_no) {
  auto bad = [&](const char* what) {
    return InvalidArgumentError(StrFormat(
        "schedule line %d: bad %s value '%s'", line_no, what, value.c_str()));
  };
  if (key == "pool") {
    op->pool = value;
    return OkStatus();
  }
  if (key == "fraction") {
    if (!ParseDoubleToken(value, &op->fraction) || op->fraction < 0.0 ||
        op->fraction > 1.0) {
      return bad("fraction");
    }
    return OkStatus();
  }
  if (key == "notice") {
    return ParseDurationToken(value, &op->notice) ? OkStatus() : bad("notice");
  }
  if (key == "respawn") {
    return ParseDurationToken(value, &op->respawn) ? OkStatus()
                                                   : bad("respawn");
  }
  if (key == "order") {
    if (value == "downstream-first") {
      op->order = UpgradeOrder::kDownstreamFirst;
    } else if (value == "upstream-first") {
      op->order = UpgradeOrder::kUpstreamFirst;
    } else {
      return bad("order");
    }
    return OkStatus();
  }
  if (key == "pause") {
    return ParseDurationToken(value, &op->pause) ? OkStatus() : bad("pause");
  }
  if (key == "down") {
    return ParseDurationToken(value, &op->down) ? OkStatus() : bad("down");
  }
  if (key == "factor") {
    if (!ParseDoubleToken(value, &op->factor) || op->factor < 1.0) {
      return bad("factor");
    }
    return OkStatus();
  }
  if (key == "ramp") {
    return ParseDurationToken(value, &op->ramp) ? OkStatus() : bad("ramp");
  }
  if (key == "hold") {
    return ParseDurationToken(value, &op->hold) ? OkStatus() : bad("hold");
  }
  if (key == "a") {
    op->a = value;
    return OkStatus();
  }
  if (key == "b") {
    op->b = value;
    return OkStatus();
  }
  if (key == "duration") {
    return ParseDurationToken(value, &op->duration) ? OkStatus()
                                                    : bad("duration");
  }
  return InvalidArgumentError(
      StrFormat("schedule line %d: unknown key '%s'", line_no, key.c_str()));
}

}  // namespace

StatusOr<Schedule> ParseSchedule(const std::string& text) {
  Schedule schedule;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream words(line);
    std::string word;
    std::vector<std::string> tokens;
    while (words >> word) tokens.push_back(word);
    if (tokens.empty()) continue;
    if (tokens.size() < 3 || tokens[0] != "at") {
      return InvalidArgumentError(StrFormat(
          "schedule line %d: expected 'at <time> <op> key=value...'",
          line_no));
    }
    TimedOp timed;
    if (!ParseDurationToken(tokens[1], &timed.at)) {
      return InvalidArgumentError(StrFormat(
          "schedule line %d: bad time '%s'", line_no, tokens[1].c_str()));
    }
    const std::string& kind = tokens[2];
    if (kind == "spot-reclaim") {
      timed.op.kind = Op::Kind::kSpotReclaim;
    } else if (kind == "rolling-upgrade") {
      timed.op.kind = Op::Kind::kRollingUpgrade;
    } else if (kind == "flash-crowd") {
      timed.op.kind = Op::Kind::kFlashCrowd;
    } else if (kind == "apiserver-blip") {
      timed.op.kind = Op::Kind::kApiServerBlip;
    } else if (kind == "partition") {
      timed.op.kind = Op::Kind::kPartition;
    } else {
      return InvalidArgumentError(StrFormat(
          "schedule line %d: unknown op '%s'", line_no, kind.c_str()));
    }
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        return InvalidArgumentError(StrFormat(
            "schedule line %d: expected key=value, got '%s'", line_no,
            tokens[i].c_str()));
      }
      const Status s = ApplyKeyValue(&timed.op, tokens[i].substr(0, eq),
                                     tokens[i].substr(eq + 1), line_no);
      if (!s.ok()) return s;
    }
    schedule.ops.push_back(std::move(timed));
  }
  return schedule;
}

std::string FormatOp(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kSpotReclaim:
      return StrFormat("spot-reclaim pool=%s fraction=%.2f notice=%.1fs",
                       op.pool.c_str(), op.fraction, ToSeconds(op.notice));
    case Op::Kind::kRollingUpgrade:
      return StrFormat("rolling-upgrade order=%s pause=%.1fs",
                       op.order == UpgradeOrder::kDownstreamFirst
                           ? "downstream-first"
                           : "upstream-first",
                       ToSeconds(op.pause));
    case Op::Kind::kFlashCrowd:
      return StrFormat("flash-crowd factor=%.1f ramp=%.1fs hold=%.1fs",
                       op.factor, ToSeconds(op.ramp), ToSeconds(op.hold));
    case Op::Kind::kApiServerBlip:
      return StrFormat("apiserver-blip down=%.1fs", ToSeconds(op.down));
    case Op::Kind::kPartition:
      return StrFormat("partition a=%s b=%s duration=%.1fs", op.a.c_str(),
                       op.b.c_str(), ToSeconds(op.duration));
  }
  return "?";
}

double FlashFactorAt(const Schedule& schedule, Duration t) {
  double factor = 1.0;
  for (const TimedOp& timed : schedule.ops) {
    if (timed.op.kind != Op::Kind::kFlashCrowd) continue;
    const Op& op = timed.op;
    const Duration rel = t - timed.at;
    double shape = 0.0;  // 0 = quiet, 1 = full crowd
    if (rel < 0 || rel > op.ramp + op.hold + op.ramp) {
      shape = 0.0;
    } else if (rel < op.ramp) {
      shape = op.ramp > 0 ? static_cast<double>(rel) /
                                static_cast<double>(op.ramp)
                          : 1.0;
    } else if (rel <= op.ramp + op.hold) {
      shape = 1.0;
    } else {
      const Duration fall = rel - op.ramp - op.hold;
      shape = op.ramp > 0 ? 1.0 - static_cast<double>(fall) /
                                      static_cast<double>(op.ramp)
                          : 0.0;
    }
    factor *= 1.0 + (op.factor - 1.0) * shape;
  }
  return factor;
}

std::vector<Duration> ArrivalPlan(const Schedule& schedule, Duration length,
                                  double base_rps, Duration phase) {
  std::vector<Duration> plan;
  if (base_rps <= 0.0) return plan;
  Duration t = phase;
  while (t < length) {
    plan.push_back(t);
    const double rate = base_rps * FlashFactorAt(schedule, t);
    t += SecondsF(1.0 / rate);
  }
  return plan;
}

}  // namespace kd::scenario
