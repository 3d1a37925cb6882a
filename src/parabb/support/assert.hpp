// Always-on checked assertions.
//
// ParaBB is a research library whose correctness claims (optimality,
// lower-bound admissibility) rest on internal invariants; silent invariant
// violations would invalidate experiment output, so the checks stay enabled
// in Release builds. The hot-path cost is negligible next to search cost.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace parabb {

/// Thrown by PARABB_REQUIRE on precondition violations (recoverable,
/// caller-facing API misuse).
class precondition_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line) {
  std::fprintf(stderr, "parabb: internal invariant violated: %s (%s:%d)\n",
               expr, file, line);
  std::abort();
}
/// `path` without its directories.
constexpr const char* file_basename(const char* path) noexcept {
  const char* base = path;
  for (const char* c = path; *c != '\0'; ++c) {
    if (*c == '/') base = c + 1;
  }
  return base;
}
/// The message a caller sees (front ends print it, the service returns
/// it): the precondition's text and the file name and line that raised
/// it, with neither the C++ expression nor the build's directories.
[[noreturn]] inline void require_fail(const char* file, int line,
                                      const std::string& msg) {
  throw precondition_error("parabb: precondition failed: " + msg + " at " +
                           file_basename(file) + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace parabb

/// Internal invariant; violation is a library bug -> abort.
#define PARABB_ASSERT(expr)                                   \
  ((expr) ? static_cast<void>(0)                              \
          : ::parabb::detail::assert_fail(#expr, __FILE__, __LINE__))

/// API precondition; violation is caller misuse -> throws precondition_error.
#define PARABB_REQUIRE(expr, msg)                             \
  ((expr) ? static_cast<void>(0)                              \
          : ::parabb::detail::require_fail(__FILE__, __LINE__, (msg)))
