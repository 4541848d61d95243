// Scenario registry: the paper's evaluation grid as data.
//
// A Scenario names one experiment -- topology x base-demand model x margin
// grid x pool/optimizer options x measurement kind -- and the global
// ScenarioRegistry holds every figure/table of the paper plus further
// combinations (all Zoo topologies under gravity/bimodal/uniform base
// demands, synthetic topologies from topo::generator). The
// ExperimentRunner (runner.hpp) executes scenarios; `coyote_experiments
// <id>` is the one command-line entry point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/local_search.hpp"
#include "exp/sweep.hpp"
#include "graph/graph.hpp"
#include "tm/traffic_matrix.hpp"

namespace coyote::exp {

/// What the runner measures for a scenario.
enum class ScenarioKind {
  kSchemes,       ///< four-scheme margin sweep on one network (Figs. 6-8)
  kTable,         ///< four-scheme sweep over a network list (Table I)
  kLocalSearch,   ///< per-margin weight re-tuning, exact eval (Fig. 9)
  kQuantization,  ///< ECMP-over-virtual-next-hops approximation (Fig. 10)
  kStretch,       ///< path stretch vs ECMP over a network list (Fig. 11)
  kPrototype,     ///< fluid-emulator prototype replay + lie check (Fig. 12)
  kDagAug,        ///< SP-DAGs vs augmented DAGs ablation
  kOptimizer,     ///< inner-optimizer ablation (GP vs mirror descent)
  kHardness,      ///< Sec. IV constructions, numerically
  kFailure,       ///< post-failure four-scheme sweep (src/failure/)
  kServe,         ///< online TE daemon trace replay (src/serve/)
  kScaling,       ///< size-ladder scaling curves on structured generators
};

[[nodiscard]] const char* kindName(ScenarioKind kind);

/// How to build the scenario's graph. Deterministic in its fields.
struct TopologySpec {
  enum class Kind {
    kZoo,
    kRunningExample,
    kPrototypeTriangle,
    kRing,
    kGrid,
    kFullMesh,
    kRandomBackbone,
    kFatTree,      ///< topo::fatTree(k): 3-tier Clos, a = k
    kDragonfly,    ///< topo::dragonfly(a, p, h): a, b = p, c = h
    kHammingMesh,  ///< topo::hammingMesh(x, y, bx, by): a, b, c, d
    kTorus2d,      ///< topo::torus2d(rows, cols): a, b
  };
  Kind kind = Kind::kZoo;
  std::string zoo_name;      ///< kZoo
  int a = 0;                 ///< ring n / grid rows / mesh n / backbone n / ...
  int b = 0;                 ///< grid cols / dragonfly p / hmesh y / torus cols
  int c = 0;                 ///< dragonfly h / hmesh bx
  int d = 0;                 ///< hmesh by
  double avg_degree = 0.0;   ///< kRandomBackbone
  std::uint64_t seed = 0;    ///< kRandomBackbone

  [[nodiscard]] Graph build() const;
  /// Human-readable label ("Geant", "ring12", "backbone20-d3.0-s7",
  /// "fattree16", "dragonfly-a8p2h4", "hmesh3x3b4x4", "torus8x8").
  [[nodiscard]] std::string label() const;

  static TopologySpec zoo(std::string name);
  static TopologySpec ring(int n);
  static TopologySpec grid(int rows, int cols);
  static TopologySpec fullMesh(int n);
  static TopologySpec randomBackbone(int n, double avg_degree,
                                     std::uint64_t seed);
  static TopologySpec fatTree(int k);
  static TopologySpec dragonfly(int a, int p, int h);
  static TopologySpec hammingMesh(int x, int y, int bx, int by);
  static TopologySpec torus2d(int rows, int cols);
};

/// How to build the scenario's base traffic matrix.
struct DemandSpec {
  enum class Model { kGravity, kBimodal, kUniform };
  Model model = Model::kGravity;
  std::uint64_t seed = 23;  ///< kBimodal only
  double total = 1.0;
  /// kGravity shaping (tm::GravityOptions); the defaults reproduce the
  /// historical dense gravity matrix bit-identically. Scaling scenarios
  /// use top_k to bound the active-destination count per rung and
  /// endpoint_prefix to model host-aggregated fat-tree demands (only
  /// "edge" switches terminate traffic).
  int top_k = 0;
  std::string endpoint_prefix;

  [[nodiscard]] tm::TrafficMatrix build(const Graph& g) const;
  [[nodiscard]] const char* name() const;
};

/// How a kFailure scenario enumerates its failure set (the scenarios
/// themselves come from failure::singleLinkFailures & friends).
struct FailureSpec {
  enum class Model { kSingleLink, kDoubleLink, kSrlg };
  Model model = Model::kSingleLink;
  int double_samples = 8;    ///< kDoubleLink: sampled pair count
  std::uint64_t seed = 17;   ///< kDoubleLink: sampling seed

  [[nodiscard]] const char* name() const;  ///< "single-link", ...
};

struct Scenario {
  std::string id;           ///< unique, stable key ("fig06", "zoo-geant-uniform")
  std::string description;
  /// Free-form filter labels: "figure", "table1", "ablation", "zoo",
  /// "synthetic", "small" (seconds in quick mode), ...
  std::vector<std::string> tags;
  ScenarioKind kind = ScenarioKind::kSchemes;

  TopologySpec topology;   ///< single-network kinds
  DemandSpec demand;
  std::vector<double> margins;       ///< quick margin grid
  std::vector<double> full_margins;  ///< --full / COYOTE_FULL grid
  SweepOptions sweep;

  /// Networks with <= `exact_node_limit` nodes use the exact slave-LP
  /// adversary for evaluation and the oracle (Table I's exact rows); 0 = off.
  int exact_node_limit = 0;

  /// kTable / kStretch / kDagAug: networks swept in quick / full mode.
  std::vector<std::string> networks;
  std::vector<std::string> full_networks;
  double fixed_margin = 2.5;  ///< kStretch / kDagAug / kFailure margin

  FailureSpec failure;  ///< kFailure: which failure family to sweep

  /// kServe: seeded event-trace replay (serve::generateTrace); the
  /// daemon's margin comes from fixed_margin.
  int serve_events = 200;
  std::uint64_t serve_seed = 1;

  /// kScaling: the size ladder, smallest rung first. Each rung runs the
  /// full scheme set at fixed_margin and reports nodes/edges/ratios plus
  /// optimize-time, peak-RSS and lp-pivot curves. `topology` mirrors the
  /// smallest rung so single-topology consumers (tests) stay cheap.
  std::vector<TopologySpec> ladder;

  core::LocalSearchOptions local_search;  ///< kLocalSearch
  int ls_full_moves = 24;  ///< max_moves_per_round under --full

  std::vector<int> quantize_multiplicities = {3, 5, 10};  ///< kQuantization

  [[nodiscard]] bool hasTag(const std::string& tag) const;
  [[nodiscard]] const std::vector<double>& grid(bool full) const {
    return full && !full_margins.empty() ? full_margins : margins;
  }
  [[nodiscard]] const std::vector<std::string>& networkList(bool full) const {
    return full && !full_networks.empty() ? full_networks : networks;
  }
};

/// Immutable registry of every known scenario; built once at first use.
class ScenarioRegistry {
 public:
  /// The process-wide registry with the full paper + extension grid.
  static const ScenarioRegistry& global();

  [[nodiscard]] const std::vector<Scenario>& all() const { return scenarios_; }
  [[nodiscard]] const Scenario* find(const std::string& id) const;

  /// Scenarios whose id or any tag contains `pattern` (case-sensitive
  /// substring; empty matches everything), in registration order.
  [[nodiscard]] std::vector<const Scenario*> match(
      const std::string& pattern) const;

  /// Builds a registry from explicit scenarios (tests); ids must be unique.
  explicit ScenarioRegistry(std::vector<Scenario> scenarios);

 private:
  ScenarioRegistry();  // the global grid
  void add(Scenario s);

  std::vector<Scenario> scenarios_;
};

}  // namespace coyote::exp
