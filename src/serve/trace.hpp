// Seeded event-trace generation for the online TE daemon (service.hpp).
//
// A trace is the daemon's replay input: one protocol line per event. The
// generator is deterministic in (graph, base matrix, options) on every
// platform -- it uses the repo's splitmix64 idiom rather than the standard
// <random> distributions, whose outputs are implementation-defined -- so a
// committed seed reproduces the exact event stream CI benchmarks and the
// bit-identity tests replay.
//
// The default mix models an operator day: mostly read-only what-if
// probes, with demand drift, link flaps (failures that later heal),
// occasional margin moves, and rare explicit reoptimizations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "tm/traffic_matrix.hpp"

namespace coyote::serve {

struct TraceOptions {
  int events = 500;
  std::uint64_t seed = 1;
  /// At most this many links are down at once; at the cap, flap events
  /// restore a failed link instead of failing another.
  int max_concurrent_failures = 2;
  /// Event mix in percent; must sum to <= 100 (the remainder becomes
  /// reoptimize events).
  int what_if_pct = 40;
  int demand_pct = 20;
  int link_pct = 25;
  int margin_pct = 10;
};

/// One protocol line per event (compact JSON, see service.hpp for the
/// grammar). `base` seeds the demand events: "set" entries are absolute
/// values derived from base entries, so replaying the trace against the
/// same base matrix is self-consistent. Throws std::invalid_argument for
/// graphs without physical links or a mix over 100%.
[[nodiscard]] std::vector<std::string> generateTrace(
    const Graph& g, const tm::TrafficMatrix& base, const TraceOptions& opt);

/// A pure link-flap trace: `flaps` times, fail one physical link and
/// restore it (cycling through the lowest-id links). Every event is a
/// state change hitting the resident engine's warm chain -- the workload
/// the warm-vs-cold pivot comparison replays.
[[nodiscard]] std::vector<std::string> linkFlapTrace(const Graph& g,
                                                     int flaps);

}  // namespace coyote::serve
