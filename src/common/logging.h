// Fatal checks. TANGO_CHECK is always on: when its condition is false it
// prints `[file:line] CHECK failed: <cond> — <message>` to stderr and
// aborts. It flags programmer error, never recoverable input.
#pragma once

namespace tango::internal {

/// Print the failed check and its printf-style message, then abort.
[[noreturn]] void CheckFailed(const char* file, int line, const char* cond,
                              const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

}  // namespace tango::internal

#define TANGO_CHECK(cond, ...)                                     \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::tango::internal::CheckFailed(__FILE__, __LINE__, #cond,    \
                                     __VA_ARGS__);                 \
    }                                                              \
  } while (0)
