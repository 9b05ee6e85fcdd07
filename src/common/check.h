// Contract-checking macros used throughout memucost.
//
// MEMU_CHECK is for preconditions and invariants whose violation indicates a
// programming error in this library or its caller; it throws ContractError so
// tests can assert on misuse without aborting the process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace memu {

// Thrown when a MEMU_CHECK contract is violated. what() names the checked
// expression and its source location; message() is the caller's text alone,
// the part a command line shows its user (empty when there is none).
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what, std::string message = {})
      : std::logic_error(what), message_(std::move(message)) {}
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

// The line a command line prints for `e`: a ContractError's message when it
// has one, else what().
inline std::string error_message(const std::exception& e) {
  const auto* c = dynamic_cast<const ContractError*>(&e);
  return c != nullptr && !c->message().empty() ? c->message() : e.what();
}

namespace detail {

[[noreturn]] inline void contract_fail(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "contract violated: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractError(os.str(), msg);
}

}  // namespace detail
}  // namespace memu

#define MEMU_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::memu::detail::contract_fail(#expr, __FILE__, __LINE__, "");   \
  } while (false)

#define MEMU_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream memu_os_;                                    \
      memu_os_ << msg;                                                \
      ::memu::detail::contract_fail(#expr, __FILE__, __LINE__,        \
                                    memu_os_.str());                  \
    }                                                                 \
  } while (false)

// Marks unreachable code paths.
#define MEMU_UNREACHABLE(msg) \
  ::memu::detail::contract_fail("unreachable", __FILE__, __LINE__, msg)
