// Process peak-memory probe for BENCH telemetry (src/exp/).
#pragma once

#include <cstdlib>
#include <fstream>
#include <string>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

namespace coyote::util {

/// Peak resident set size of the calling process in MiB (0.0 where the
/// platform has neither /proc nor getrusage). Monotonic over the process
/// lifetime, so a sequence of probes yields "peak RSS so far" -- each
/// scaling rung's value upper-bounds its own footprint plus everything
/// before it. `mem_`-prefixed BENCH fields carry these values;
/// bench_compare never gates them (allocator- and machine-sensitive).
///
/// On Linux this reads /proc/self/status's VmHWM, which belongs to the
/// address space exec created. getrusage's ru_maxrss survives exec, so a
/// program launched by a larger process would report its launcher's peak;
/// it is only the fallback.
inline double peakRssMb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
#endif
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
