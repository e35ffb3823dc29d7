#include "common/logging.h"

#include <cstdio>

namespace kd {

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

namespace {
const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void Logger::Log(LogLevel level, const std::string& component,
                 const std::string& message) {
  if (level < kMinLevel) return;
  std::fprintf(stderr, "%-5s %s: %s\n", LevelName(level), component.c_str(),
               message.c_str());
}

}  // namespace kd
