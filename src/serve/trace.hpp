// Seeded event-trace generation for the online TE daemon (service.hpp).
//
// A trace is the daemon's replay input: one protocol line per event. The
// generator is deterministic in (graph, base matrix, options) on every
// platform -- it uses the repo's splitmix64 idiom rather than the standard
// <random> distributions, whose outputs are implementation-defined -- so a
// committed seed reproduces the exact event stream CI benchmarks and the
// bit-identity tests replay.
//
// The fixed mix models an operator day: mostly read-only what-if probes
// (40%), with demand drift (20%), link flaps (25%; failures that later
// heal, at most two links down at once), margin moves (10%), and rare
// explicit reoptimizations (5%).
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
};

/// One protocol line per event (compact JSON, see service.hpp for the
/// grammar). `base` seeds the demand events: "set" entries are absolute
/// values derived from base entries, so replaying the trace against the
/// same base matrix is self-consistent. Throws std::invalid_argument for
/// graphs without physical links or a negative event count.
[[nodiscard]] std::vector<std::string> generateTrace(
    const Graph& g, const tm::TrafficMatrix& base, const TraceOptions& opt);

/// A pure link-flap trace: `flaps` times, fail one physical link and
/// restore it (cycling through the lowest-id links). Every event is a
/// state change hitting the resident engine's warm chain -- the workload
/// the warm-vs-cold pivot comparison replays.
[[nodiscard]] std::vector<std::string> linkFlapTrace(const Graph& g,
                                                     int flaps);

}  // namespace coyote::serve
