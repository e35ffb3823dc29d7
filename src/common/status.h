// Lightweight Status / StatusOr error-handling types.
//
// The control plane reports recoverable failures (conflicts, rate
// limiting, admission rejections, disconnects) as values rather than
// exceptions, because callers routinely branch on them — a scheduler
// retries on Conflict, a controller requeues on Unavailable. Truly
// unrecoverable programming errors still assert.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace kd {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kConflict,        // optimistic-concurrency resourceVersion mismatch
  kInvalidArgument,
  kPermissionDenied,  // admission control rejection
  kUnavailable,       // disconnected / partitioned / server down
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,  // request timed out against a dead/unreachable server
  kCancelled,         // caller abandoned the call (owning process crashed)
};

const char* StatusCodeName(StatusCode code);

// A success-or-error result. Cheap to copy on the success path (no
// message allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status AlreadyExistsError(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status ConflictError(std::string msg) {
  return Status(StatusCode::kConflict, std::move(msg));
}
inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status PermissionDeniedError(std::string msg) {
  return Status(StatusCode::kPermissionDenied, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status DeadlineExceededError(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status CancelledError(std::string msg) {
  return Status(StatusCode::kCancelled, std::move(msg));
}

// Holds either a value of T or an error Status. Mirrors the subset of
// absl::StatusOr the code base needs.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : repr_(std::move(status)) {
    assert(!std::get<Status>(repr_).ok() &&
           "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value) : repr_(std::move(value)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  Status status() const {
    if (ok()) return OkStatus();
    return std::get<Status>(repr_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

 private:
  std::variant<Status, T> repr_;
};

}  // namespace kd
