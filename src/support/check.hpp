// Lightweight invariant-checking macros used throughout WOLF.
//
// WOLF_CHECK is always on (cheap, used for API contract violations and
// internal invariants whose failure would make later results meaningless).
// WOLF_DCHECK compiles out in NDEBUG builds and is used on hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace wolf {

// Thrown by WOLF_CHECK failures so that harnesses and tests can observe the
// failure instead of the process dying. what() carries the failing
// expression and location; message() carries the check's message alone,
// for lines a user reads.
class CheckFailure : public std::logic_error {
 public:
  CheckFailure(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

// The text of `ex` for a user-facing line: a CheckFailure's message, what()
// of anything else.
inline std::string check_message(const std::exception& ex) {
  if (const auto* check = dynamic_cast<const CheckFailure*>(&ex))
    return check->message();
  return ex.what();
}

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "WOLF_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str(),
                     msg.empty() ? std::string("check failed: ") + expr : msg);
}

}  // namespace detail
}  // namespace wolf

#define WOLF_CHECK(expr)                                                \
  do {                                                                  \
    if (!(expr))                                                        \
      ::wolf::detail::check_failed(#expr, __FILE__, __LINE__, "");      \
  } while (false)

#define WOLF_CHECK_MSG(expr, msg)                                       \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream os_;                                           \
      os_ << msg;                                                       \
      ::wolf::detail::check_failed(#expr, __FILE__, __LINE__, os_.str()); \
    }                                                                   \
  } while (false)

#ifdef NDEBUG
#define WOLF_DCHECK(expr) \
  do {                    \
  } while (false)
#else
#define WOLF_DCHECK(expr) WOLF_CHECK(expr)
#endif
