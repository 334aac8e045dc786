#ifndef ITG_COMMON_STATUS_H_
#define ITG_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace itg {

/// Result code carried by Status. Mirrors the RocksDB/Arrow idiom: errors
/// cross module boundaries as values, never as exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kOutOfMemory,
  kIOError,
  kParseError,
  kTypeError,
  kCompileError,
  kUnsupported,
  kInternal,
};

/// A success-or-error value. Cheap to copy on the success path (no
/// allocation); error path carries a message.
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status CompileError(std::string msg) {
    return Status(StatusCode::kCompileError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static std::string CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kAlreadyExists: return "AlreadyExists";
      case StatusCode::kOutOfMemory: return "OutOfMemory";
      case StatusCode::kIOError: return "IOError";
      case StatusCode::kParseError: return "ParseError";
      case StatusCode::kTypeError: return "TypeError";
      case StatusCode::kCompileError: return "CompileError";
      case StatusCode::kUnsupported: return "Unsupported";
      case StatusCode::kInternal: return "Internal";
    }
    return "Unknown";
  }

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A Status or a value of type T. `value()` must only be called when ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status to the caller.
#define ITG_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::itg::Status _itg_status = (expr);        \
    if (!_itg_status.ok()) return _itg_status; \
  } while (0)

/// Evaluates a StatusOr expression, propagating error or binding the value.
#define ITG_ASSIGN_OR_RETURN(lhs, expr)                   \
  ITG_ASSIGN_OR_RETURN_IMPL_(                             \
      ITG_STATUS_MACRO_CONCAT_(_itg_sor, __LINE__), lhs, expr)

#define ITG_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define ITG_STATUS_MACRO_CONCAT_INNER_(x, y) x##y
#define ITG_STATUS_MACRO_CONCAT_(x, y) ITG_STATUS_MACRO_CONCAT_INNER_(x, y)

}  // namespace itg

#endif  // ITG_COMMON_STATUS_H_
