// Minimal leveled logging to stderr: a process-wide singleton that
// prints warnings and errors.
#pragma once

#include <sstream>
#include <string>

namespace kd {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

class Logger {
 public:
  static Logger& Get();

  void Log(LogLevel level, const std::string& component,
           const std::string& message);

 private:
  static constexpr LogLevel kMinLevel = LogLevel::kWarning;

  Logger() = default;
};

// Stream-style helper: LOG_STREAM(kInfo, "scheduler") << "placed " << n;
class LogStream {
 public:
  LogStream(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogStream() { Logger::Get().Log(level_, component_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace kd

#define KD_LOG(level, component) ::kd::LogStream(::kd::LogLevel::level, component)
