// Environment-variable parsing, shared by tools and tests.
//
// The repo reads a small set of COYOTE_* variables: COYOTE_FULL and
// COYOTE_EXACT in tools/ and tests, and COYOTE_THREADS in the thread pool
// (the one read inside the library). These helpers are the single parsing
// point so the semantics ("set and not '0'") cannot drift between binaries.
#pragma once

#include <cstdlib>

namespace coyote::util {

/// True iff `name` is set to a non-empty value other than "0".
[[nodiscard]] inline bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Integer value of `name`, or `fallback` when unset/unparsable.
[[nodiscard]] inline long envInt(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

}  // namespace coyote::util
