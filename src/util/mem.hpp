// Process peak-memory probe for BENCH telemetry (src/exp/).
#pragma once

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

namespace coyote::util {

/// Peak resident set size of the calling process in MiB (0.0 where the
/// platform has no getrusage). Monotonic over the process lifetime, so a
/// sequence of probes yields "peak RSS so far" -- each scaling rung's
/// value upper-bounds its own footprint plus everything before it.
/// `mem_`-prefixed BENCH fields carry these values; bench_compare never
/// gates them (allocator- and machine-sensitive).
inline double peakRssMb() {
#if defined(_WIN32)
  return 0.0;
#else
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  // ru_maxrss is bytes on macOS, KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#endif
}

}  // namespace coyote::util
