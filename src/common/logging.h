#ifndef ITG_COMMON_LOGGING_H_
#define ITG_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace itg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-wide minimum level; messages below it are dropped.
/// Defaults to kWarn so tests and benches stay quiet. The initial value
/// can be set with the `ITG_LOG_LEVEL` env var — a name (`debug`, `info`,
/// `warn`, `error`) or the numeric level (0-3).
LogLevel& MinLogLevel();

namespace internal_logging {

inline const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) {
    stream_ << "[" << Name(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
  ~LogMessage() {
    stream_ << "\n";
    std::cerr << stream_.str();
  }

  std::ostringstream& stream() { return stream_; }

 private:
  static const char* Name(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
  }
  std::ostringstream stream_;
};

class FatalMessage {
 public:
  FatalMessage(const char* file, int line) {
    stream_ << "[FATAL " << Basename(file) << ":" << line << "] ";
  }
  [[noreturn]] ~FatalMessage() {
    stream_ << "\n";
    std::cerr << stream_.str();
    std::abort();
  }
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging

/// Streams one log line. Below MinLogLevel() the whole statement is
/// skipped: no message is built and no streamed operand is evaluated.
/// (The `if {} else` form keeps a caller's own `else` bound correctly.)
#define ITG_LOG(level)                                                 \
  if (::itg::LogLevel::k##level < ::itg::MinLogLevel()) {              \
  } else                                                               \
    ::itg::internal_logging::LogMessage(::itg::LogLevel::k##level,     \
                                        __FILE__, __LINE__)            \
        .stream()

/// Always-on invariant check; aborts with a message on violation.
#define ITG_CHECK(cond)                                              \
  if (!(cond))                                                       \
  ::itg::internal_logging::FatalMessage(__FILE__, __LINE__).stream() \
      << "Check failed: " #cond " "

#define ITG_CHECK_EQ(a, b) ITG_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define ITG_CHECK_LT(a, b) ITG_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define ITG_CHECK_LE(a, b) ITG_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define ITG_CHECK_GT(a, b) ITG_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define ITG_CHECK_GE(a, b) ITG_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

}  // namespace itg

#endif  // ITG_COMMON_LOGGING_H_
