#include "serve/trace.hpp"

#include <algorithm>
#include <utility>

#include "failure/scenario.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace coyote::serve {

namespace json = util::json;

namespace {

// The trace stream draws from the shared splitmix64 helpers
// (util/rng.hpp); the algorithm is unchanged, so historical seeds produce
// byte-identical traces.
using util::rng::nextInt;
using util::rng::nextUnit;

/// At most this many links are down at once; at the cap, flap events
/// restore a failed link instead of failing another.
constexpr int kMaxConcurrentFailures = 2;
/// Event mix in percent; the remaining 5% are reoptimize events.
constexpr int kWhatIfPct = 40;
constexpr int kDemandPct = 20;
constexpr int kLinkPct = 25;
constexpr int kMarginPct = 10;

json::Value linkValue(const Graph& g, EdgeId link) {
  json::Value v = json::Value::array();
  v.push_back(g.nodeName(g.edge(link).src));
  v.push_back(g.nodeName(g.edge(link).dst));
  return v;
}

std::string linkEvent(const Graph& g, EdgeId link, bool up) {
  json::Value req = json::Value::object();
  req["op"] = "link";
  req["link"] = linkValue(g, link);
  req["up"] = up;
  return req.dump(0);
}

}  // namespace

std::vector<std::string> generateTrace(const Graph& g,
                                       const tm::TrafficMatrix& base,
                                       const TraceOptions& opt) {
  const std::vector<EdgeId> links = failure::physicalLinks(g);
  require(!links.empty(), "trace generation needs at least one physical link");
  require(opt.events >= 0, "negative event count");

  std::vector<std::pair<NodeId, NodeId>> pairs = base.nonZeroPairs();
  if (pairs.empty()) {
    for (NodeId s = 0; s < base.numNodes(); ++s) {
      for (NodeId t = 0; t < base.numNodes(); ++t) {
        if (s != t) pairs.emplace_back(s, t);
      }
    }
  }
  const double mean_demand =
      pairs.empty() ? 1.0
                    : std::max(base.total() / static_cast<double>(pairs.size()),
                               1e-9);
  static constexpr double kMargins[] = {1.5, 2.0, 2.5, 3.0};

  std::uint64_t state = opt.seed;
  std::vector<EdgeId> failed;  // mirrors the service's failed-link state
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(opt.events));

  for (int i = 0; i < opt.events; ++i) {
    const int r = nextInt(state, 100);
    if (r < kWhatIfPct) {
      const int k = std::min(1 + nextInt(state, 2),
                             static_cast<int>(links.size()));
      std::vector<EdgeId> chosen;
      while (static_cast<int>(chosen.size()) < k) {
        const EdgeId link = links[nextInt(
            state, static_cast<int>(links.size()))];
        if (std::find(chosen.begin(), chosen.end(), link) == chosen.end()) {
          chosen.push_back(link);
        }
      }
      json::Value req = json::Value::object();
      req["op"] = "what-if";
      json::Value arr = json::Value::array();
      for (const EdgeId link : chosen) arr.push_back(linkValue(g, link));
      req["links"] = std::move(arr);
      out.push_back(req.dump(0));
    } else if (r < kWhatIfPct + kDemandPct) {
      const auto [s, t] = pairs[nextInt(
          state, static_cast<int>(pairs.size()))];
      const double current = base.at(s, t);
      const double anchor = current > 0.0 ? current : mean_demand;
      const double value = anchor * (0.5 + 1.5 * nextUnit(state));
      json::Value req = json::Value::object();
      req["op"] = "demand";
      json::Value entry = json::Value::array();
      entry.push_back(g.nodeName(s));
      entry.push_back(g.nodeName(t));
      entry.push_back(value);
      json::Value set = json::Value::array();
      set.push_back(std::move(entry));
      req["set"] = std::move(set);
      out.push_back(req.dump(0));
    } else if (r < kWhatIfPct + kDemandPct + kLinkPct) {
      const bool at_cap =
          static_cast<int>(failed.size()) >= kMaxConcurrentFailures ||
          static_cast<int>(failed.size()) >= static_cast<int>(links.size());
      const bool restore =
          !failed.empty() && (at_cap || nextInt(state, 2) == 0);
      if (restore) {
        const int j = nextInt(state, static_cast<int>(failed.size()));
        const EdgeId link = failed[static_cast<std::size_t>(j)];
        failed.erase(failed.begin() + j);
        out.push_back(linkEvent(g, link, /*up=*/true));
      } else {
        EdgeId link = kInvalidEdge;
        do {
          link = links[nextInt(state, static_cast<int>(links.size()))];
        } while (std::find(failed.begin(), failed.end(), link) !=
                 failed.end());
        failed.push_back(link);
        out.push_back(linkEvent(g, link, /*up=*/false));
      }
    } else if (r < kWhatIfPct + kDemandPct + kLinkPct + kMarginPct) {
      json::Value req = json::Value::object();
      req["op"] = "margin";
      req["value"] = kMargins[nextInt(state, 4)];
      out.push_back(req.dump(0));
    } else {
      json::Value req = json::Value::object();
      req["op"] = "reoptimize";
      out.push_back(req.dump(0));
    }
  }
  return out;
}

std::vector<std::string> linkFlapTrace(const Graph& g, int flaps) {
  const std::vector<EdgeId> links = failure::physicalLinks(g);
  require(!links.empty(), "trace generation needs at least one physical link");
  require(flaps >= 0, "negative flap count");
  const int cycle = std::min<int>(3, static_cast<int>(links.size()));
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(flaps) * 2);
  for (int i = 0; i < flaps; ++i) {
    const EdgeId link = links[static_cast<std::size_t>(i % cycle)];
    out.push_back(linkEvent(g, link, /*up=*/false));
    out.push_back(linkEvent(g, link, /*up=*/true));
  }
  return out;
}

}  // namespace coyote::serve
