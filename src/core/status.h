// Lightweight Status / Result error handling.
//
// Distributed components (DPSS client, striped sockets, viewer I/O threads)
// must surface peer failures as recoverable values rather than exceptions
// crossing thread boundaries, so the networking and storage APIs return
// Status / Result<T>.  Internal programming errors still use assertions.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace visapult::core {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kUnavailable,     // peer gone, connection refused/reset
  kDeadlineExceeded,
  kDataLoss,        // truncated / corrupt payload
  kPermissionDenied,
  kFailedPrecondition,
  kInternal,
};

// The last code; wire decoders reject larger values, so this moves with
// any code added above.
inline constexpr StatusCode kLastStatusCode = StatusCode::kInternal;

const char* status_code_name(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "UNAVAILABLE: connection reset by dpss server 2"
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status invalid_argument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
inline Status not_found(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
inline Status out_of_range(std::string m) { return {StatusCode::kOutOfRange, std::move(m)}; }
inline Status unavailable(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
inline Status deadline_exceeded(std::string m) { return {StatusCode::kDeadlineExceeded, std::move(m)}; }
inline Status data_loss(std::string m) { return {StatusCode::kDataLoss, std::move(m)}; }
inline Status permission_denied(std::string m) { return {StatusCode::kPermissionDenied, std::move(m)}; }
inline Status failed_precondition(std::string m) { return {StatusCode::kFailedPrecondition, std::move(m)}; }
inline Status internal_error(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {}   // NOLINT(google-explicit-constructor)

  bool is_ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return is_ok(); }

  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& take() && { return std::get<T>(std::move(v_)); }

  Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(v_);
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace visapult::core
