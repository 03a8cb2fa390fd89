#include "common/logging.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace tango::internal {

void CheckFailed(const char* file, int line, const char* cond,
                 const char* fmt, ...) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  char msg[1024] = {};
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, args);
  va_end(args);
  std::fprintf(stderr, "[%s:%d] CHECK failed: %s — %s\n", base, line, cond,
               msg);
  std::abort();
}

}  // namespace tango::internal
