#ifndef SDS_UTIL_STATUS_H_
#define SDS_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace sds {

/// \brief Canonical error codes used throughout the library.
///
/// The set intentionally mirrors the small subset of absl/arrow status codes
/// that a simulation library needs. Library code never throws; fallible
/// operations return Status or Result<T>.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kIoError = 7,
  kParseError = 8,
};

/// \brief Returns a human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation: a code plus a diagnostic message.
///
/// Cheap to copy in the OK case (no allocation). Construct errors through the
/// named factory functions: `Status::InvalidArgument("bad window")`.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// \brief Either a value of type T or an error Status.
///
/// A deliberately small stand-in for absl::StatusOr<T>. Accessors CHECK-fail
/// (abort) when misused; callers are expected to test `ok()` first or use
/// the SDS_ASSIGN_OR_RETURN macro.
template <typename T>
class Result {
 public:
  /// Implicit conversion from a value: `return 42;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit conversion from an error status.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfError();
    return *value_;
  }
  T& value() & {
    AbortIfError();
    return *value_;
  }
  T&& value() && {
    AbortIfError();
    return *std::move(value_);
  }

  /// Returns the contained value or `fallback` when in the error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void AbortIfError() const;

  Status status_;
  std::optional<T> value_;
};

namespace internal {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal::DieOnBadResultAccess(status_);
}

}  // namespace sds

/// Propagates a non-OK Status from the evaluated expression.
#define SDS_RETURN_IF_ERROR(expr)                    \
  do {                                               \
    ::sds::Status _sds_status = (expr);              \
    if (!_sds_status.ok()) return _sds_status;       \
  } while (false)

#define SDS_CONCAT_IMPL(a, b) a##b
#define SDS_CONCAT(a, b) SDS_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on success assigns the value to `lhs`,
/// on failure returns the error status from the enclosing function.
#define SDS_ASSIGN_OR_RETURN(lhs, expr)                          \
  auto SDS_CONCAT(_sds_result_, __LINE__) = (expr);              \
  if (!SDS_CONCAT(_sds_result_, __LINE__).ok())                  \
    return SDS_CONCAT(_sds_result_, __LINE__).status();          \
  lhs = std::move(SDS_CONCAT(_sds_result_, __LINE__)).value()

#endif  // SDS_UTIL_STATUS_H_
