// coyote_bench: the benchmark driver (see benchmark/README.md).
//
// Runs one workload as a sequence of passes and writes its raw
// measurements as one JSON document: per pass the set-up and run wall
// time, each op's latency and LP work, and the result rows; traced
// passes add per-layer totals and one span per layer call. Every workload
// is composed here from public library calls (no scenario registry), and
// every call into a layer is wrapped from the outside with a wall timer and
// an lp::statsSnapshot() delta. The driver calls the library from one
// thread, so a delta around a blocking call is exact even when the call
// fans out over the thread pool internally.
//
//   coyote_bench --workload <name> --seed <n> --out <file>
//                (--seconds <t> | --passes <n>) [--trace] [--smoke]
//
// The inputs are fixed: they are the scenario registry's inputs for the
// scenarios each workload reproduces, so every result is comparable across
// runs. The seed sets the order in which a pass runs its independent ops.
// Passes repeat identical work, each building every object afresh. With
// --trace every second pass is traced. run.py turns the document into
// metrics and checks it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dag_builder.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "lp/stats.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace coyote;
namespace json = util::json;

// Peak resident set of this program in MiB. /proc's VmHWM belongs to the
// address space exec created; getrusage's ru_maxrss survives exec, so it
// would report the launching process's peak when that is larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return util::peakRssMb();
}

// a + b (StatsSnapshot defines only the difference).
lp::StatsSnapshot plus(const lp::StatsSnapshot& a,
                       const lp::StatsSnapshot& b) {
  return a - (lp::StatsSnapshot{} - b);
}

json::Value lpJson(const lp::StatsSnapshot& s) {
  json::Value v = json::Value::object();
  v["solves"] = static_cast<double>(s.solves);
  v["pivots"] = static_cast<double>(s.iterations);
  v["phase1_pivots"] = static_cast<double>(s.phase1_iters);
  v["dual_pivots"] = static_cast<double>(s.dual_pivots);
  v["refactorizations"] = static_cast<double>(s.refactorizations);
  v["lu_updates"] = static_cast<double>(s.lu_updates);
  v["lu_fill"] = static_cast<double>(s.lu_fill);
  v["decomp_rounds"] = static_cast<double>(s.decomp_rounds);
  v["iter_limit_solves"] = static_cast<double>(s.iter_limit_solves);
  v["solve_s"] = s.seconds;
  return v;
}

// Times one pass's calls into the library. Ops (a network's sweep, a
// failure family, a ladder rung, a serve event) are always timed: they are
// the unit of attempted/failed work and the serve latencies. Layer calls
// are timed only in traced passes, so untraced passes measure the
// end-to-end numbers with tracing off.
class Recorder {
 public:
  Recorder(bool traced, double epoch) : traced_(traced), epoch_(epoch) {}

  // Runs one op. An exception or an LP solve that hit its iteration limit
  // marks the op failed; the pass carries on with the next op.
  void op(const std::string& name, const std::function<void()>& fn) {
    const lp::StatsSnapshot lp0 = lp::statsSnapshot();
    const double t0 = util::nowSeconds();
    if (traced_) {
      current_op_ = static_cast<int>(spans_.size());
      spans_.push_back({name, t0 - epoch_, t0 - epoch_, -1, op_count_});
    }
    std::string error;
    try {
      fn();
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double t1 = util::nowSeconds();
    const lp::StatsSnapshot lp = lp::statsSnapshot() - lp0;
    if (error.empty() && lp.iter_limit_solves > 0) {
      error = "an LP solve hit its iteration limit";
    }
    if (traced_) {
      spans_[current_op_].end = t1 - epoch_;
      current_op_ = -1;
    }
    json::Value o = json::Value::object();
    o["name"] = name;
    o["wall_s"] = t1 - t0;
    o["lp_pivots"] = static_cast<double>(lp.iterations);
    o["ok"] = error.empty();
    if (!error.empty()) o["error"] = error;
    ops_.push_back(std::move(o));
    ++op_count_;
  }

  // Runs one call into `layer` (inside the current op, or in set-up).
  void layer(const std::string& layer, const std::function<void()>& fn) {
    if (!traced_) {
      fn();
      return;
    }
    const lp::StatsSnapshot lp0 = lp::statsSnapshot();
    const double t0 = util::nowSeconds();
    fn();
    const double t1 = util::nowSeconds();
    Totals& t = totals(layer);
    ++t.calls;
    t.wall_s += t1 - t0;
    t.lp = plus(t.lp, lp::statsSnapshot() - lp0);
    spans_.push_back({layer, t0 - epoch_, t1 - epoch_, current_op_,
                      current_op_ < 0 ? -1 : op_count_});
  }

  // Adds to a deterministic per-pass counter (pool sizes, scenario counts).
  void count(const std::string& name, double value) {
    for (auto& [key, v] : counts_) {
      if (key == name) {
        v += value;
        return;
      }
    }
    counts_.emplace_back(name, value);
  }

  void write(json::Value& pass) const {
    pass["ops"] = ops_;
    json::Value counts = json::Value::object();
    for (const auto& [key, v] : counts_) counts[key] = v;
    pass["counts"] = std::move(counts);
    if (!traced_) return;
    json::Value layers = json::Value::object();
    for (const auto& [name, t] : layers_) {
      json::Value l = json::Value::object();
      l["calls"] = static_cast<double>(t.calls);
      l["wall_s"] = t.wall_s;
      l["lp"] = lpJson(t.lp);
      layers[name] = std::move(l);
    }
    pass["layers"] = std::move(layers);
    json::Value spans = json::Value::array();
    for (const Span& s : spans_) {
      json::Value v = json::Value::object();
      v["name"] = s.name;
      v["start_s"] = s.start;
      v["end_s"] = s.end;
      v["parent"] = s.parent;
      v["op"] = s.op;
      spans.push_back(std::move(v));
    }
    pass["spans"] = std::move(spans);
  }

 private:
  struct Totals {
    long long calls = 0;
    double wall_s = 0.0;
    lp::StatsSnapshot lp;
  };
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;  ///< index of the enclosing op span, -1 at the root
    int op;      ///< op id, -1 for set-up calls
  };

  Totals& totals(const std::string& name) {
    for (auto& [key, t] : layers_) {
      if (key == name) return t;
    }
    return layers_.emplace_back(name, Totals{}).second;
  }

  bool traced_;
  double epoch_;
  std::vector<std::pair<std::string, Totals>> layers_;  ///< first-call order
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<Span> spans_;
  json::Value ops_ = json::Value::array();
  int current_op_ = -1;
  int op_count_ = 0;
};

// The scenario registry's input seeds: corner pools, oblivious pools and
// the fig06-fail2 double-link sample.
constexpr std::uint64_t kCornerPoolSeed = 1;
constexpr std::uint64_t kObliviousPoolSeed = 7;
constexpr std::uint64_t kDoubleLinkSeed = 17;

// Runs ops [0, n) in an order drawn from `seed`; `op(i, rows)` runs op i.
// The ops share no state, so results do not depend on the order; rows are
// appended in index order, the order of the golden.
void runOps(Recorder& rec, std::size_t n, std::uint64_t seed,
            json::Value& rows,
            const std::function<std::string(std::size_t)>& name,
            const std::function<void(std::size_t, json::Value&)>& op) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::rng::shuffle(order, seed);
  std::vector<json::Value> out(n, json::Value::array());
  for (const std::size_t i : order) {
    rec.op(name(i), [&] { op(i, out[i]); });
  }
  for (const json::Value& op_rows : out) {
    for (const json::Value& row : op_rows.asArray()) rows.push_back(row);
  }
}

struct Network {
  std::string label;
  Graph g;
  std::shared_ptr<const DagSet> dags;
  tm::TrafficMatrix base{0};
};

enum class Demand { kGravity, kEdgeGravity };

// Set-up shared by the offline workloads: topology, augmented DAGs and the
// base matrix (the operator's fixed estimate; no seed).
Network buildNetwork(Recorder& rec, const std::string& label,
                     const std::function<Graph()>& topology, Demand demand) {
  Network net;
  net.label = label;
  rec.layer("topo.build", [&] { net.g = topology(); });
  rec.layer("core.dags", [&] { net.dags = core::augmentedDagsShared(net.g); });
  rec.layer("tm.base", [&] {
    switch (demand) {
      case Demand::kGravity:
        net.base = tm::gravityMatrix(net.g, 1.0);
        break;
      case Demand::kEdgeGravity: {
        // Host-aggregated fat-tree demand: edge switches only, top 8
        // destinations per source.
        tm::GravityOptions opt;
        opt.top_k = 8;
        opt.endpoint_prefix = "edge";
        net.base = tm::gravityMatrix(net.g, 1.0, opt);
        break;
      }
    }
  });
  return net;
}

// --- wan-sweep and dc-fattree: the four-scheme margin sweep -------------

struct SweepSpec {
  tm::PoolOptions pool;  ///< the per-margin corner pool
  core::CoyoteOptions coyote;
  std::vector<double> margins;
  /// Networks up to this size use the exact slave-LP oracle, both as
  /// cutting planes for the optimizer and for evaluation.
  int exact_node_limit = 0;
};

// Margin-independent schemes are computed once per network and
// re-evaluated under every margin; COYOTE-pk is re-optimized per margin.
// One warm OPTU engine per network serves every margin's pool.
void sweepNetwork(Recorder& rec, const Network& net, const SweepSpec& spec,
                  json::Value& rows) {
  const std::vector<const te::Scheme*>& list =
      te::SchemeRegistry::builtin().defaults();
  const int n = static_cast<int>(list.size());
  const bool exact = net.g.numNodes() <= spec.exact_node_limit;
  core::CoyoteOptions copt = spec.coyote;
  copt.oracle_rounds = exact ? 2 : 0;
  const auto engine =
      std::make_shared<routing::OptuEngine>(net.g, net.dags, copt.lp);

  std::vector<std::optional<routing::RoutingConfig>> intact(n);
  const te::SchemeContext intact_ctx{net.g, net.dags, net.base, copt,
                                     nullptr, nullptr};
  for (int i = 0; i < n; ++i) {
    if (list[i]->marginDependent()) continue;
    rec.layer(std::string("scheme.") + list[i]->key(),
              [&] { intact[i] = list[i]->compute(intact_ctx); });
  }

  for (const double margin : spec.margins) {
    std::optional<tm::DemandBounds> box;
    std::vector<tm::TrafficMatrix> corners;
    rec.layer("tm.pool", [&] {
      box.emplace(tm::marginBounds(net.base, margin));
      corners = tm::cornerPool(*box, spec.pool);
    });
    routing::PerformanceEvaluator pool(net.g, net.dags, copt.lp,
                                       routing::Normalization::kWithinDags,
                                       engine);
    rec.layer("routing.optu", [&] { pool.addPool(corners); });
    rec.count("tm.pool_matrices", static_cast<double>(corners.size()));
    rec.count("routing.optu.dropped",
              static_cast<double>(corners.size()) - pool.size());

    // COYOTE-pk first: its oracle rounds may grow the pool, and every
    // scheme is evaluated against the final pool.
    const te::SchemeContext ctx{net.g, net.dags, net.base, copt, &*box, &pool};
    std::vector<std::optional<routing::RoutingConfig>> per_margin(n);
    for (int i = 0; i < n; ++i) {
      if (!list[i]->marginDependent()) continue;
      rec.layer(std::string("scheme.") + list[i]->key(),
                [&] { per_margin[i] = list[i]->compute(ctx); });
    }

    json::Value row = json::Value::object();
    row["network"] = net.label;
    row["margin"] = margin;
    row["exact"] = exact;
    for (int i = 0; i < n; ++i) {
      const routing::RoutingConfig& cfg =
          per_margin[i].has_value() ? *per_margin[i] : *intact[i];
      double ratio = 0.0;
      if (exact) {
        rec.layer("routing.worst_case", [&] {
          ratio =
              routing::findWorstCaseDemand(net.g, cfg, &*box, copt.lp).ratio;
        });
      } else {
        rec.layer("routing.evaluator", [&] { ratio = pool.ratioFor(cfg); });
      }
      row[list[i]->key()] = ratio;
    }
    rows.push_back(std::move(row));
  }
}

// --- the workloads -------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (timed as set-up).
  virtual void setup(Recorder& rec) = 0;
  /// The measured work; appends one row per result.
  virtual void run(Recorder& rec, json::Value& rows) = 0;
};

// A four-scheme margin sweep over a list of networks, one op per network.
class SweepWorkload final : public Workload {
 public:
  struct Input {
    std::string label;
    std::function<Graph()> topology;
    Demand demand;
  };

  SweepWorkload(SweepSpec spec, std::vector<Input> inputs, std::uint64_t seed)
      : spec_(std::move(spec)), inputs_(std::move(inputs)), seed_(seed) {}

  void setup(Recorder& rec) override {
    for (const Input& in : inputs_) {
      nets_.push_back(buildNetwork(rec, in.label, in.topology, in.demand));
    }
  }

  void run(Recorder& rec, json::Value& rows) override {
    runOps(
        rec, nets_.size(), seed_, rows,
        [&](std::size_t i) { return nets_[i].label; },
        [&](std::size_t i, json::Value& out) {
          sweepNetwork(rec, nets_[i], spec_, out);
        });
  }

 private:
  SweepSpec spec_;
  std::vector<Input> inputs_;
  std::uint64_t seed_;
  std::deque<Network> nets_;
};

// Table I (quick settings): margins {1, 3, 5} x the four schemes on five
// Table-I backbones -- the networks of Figs. 6-9 plus NSF, the two
// smallest of which take the exact slave-LP oracle. Exercises the
// splitting optimizer and the worst-case oracle. (All fourteen Table-I
// networks take ~15 s a pass, too long to repeat within one run.)
std::unique_ptr<Workload> wanSweep(std::uint64_t seed, bool smoke) {
  SweepSpec spec;
  spec.pool.random_corners = 6;
  spec.pool.source_hotspots = false;
  spec.pool.max_hotspots = 10;
  spec.pool.seed = kCornerPoolSeed;
  spec.coyote.splitting.iterations = 250;
  spec.coyote.oblivious_pool.random_sparse = 8;
  spec.coyote.oblivious_pool.seed = kObliviousPoolSeed;
  spec.margins = {1.0, 3.0, 5.0};
  spec.exact_node_limit = 14;
  std::vector<SweepWorkload::Input> nets;
  if (smoke) {
    nets.push_back({"running-example", topo::runningExample, Demand::kGravity});
  } else {
    for (const char* name : {"Abilene", "NSF", "Geant", "Digex", "AS1755"}) {
      nets.push_back(
          {name, [name] { return topo::makeZoo(name); }, Demand::kGravity});
    }
  }
  return std::make_unique<SweepWorkload>(std::move(spec), std::move(nets),
                                         seed);
}

// The scaling-fattree-k12 ladder: fat-trees k = 4, 8, 12 at margin 2.
// Large graphs: DAG build, the OPTU block-decomposition pre-solve and
// splitting propagation over big DAGs; no oracle, no failures.
std::unique_ptr<Workload> dcFattree(std::uint64_t seed, bool smoke) {
  SweepSpec spec;
  spec.pool.source_hotspots = false;
  spec.pool.max_hotspots = 8;
  spec.pool.random_corners = 4;
  spec.pool.pair_hotspots = 4;
  spec.pool.seed = kCornerPoolSeed;
  // Only O(1)-destination matrices in the oblivious pool: per-source and
  // uniform matrices would cost O(|V|) LP blocks each.
  spec.coyote.oblivious_pool.source_concentrated = false;
  spec.coyote.oblivious_pool.uniform = false;
  spec.coyote.oblivious_pool.random_sparse = 4;
  spec.coyote.oblivious_pool.seed = kObliviousPoolSeed;
  spec.coyote.splitting.iterations = 120;
  spec.margins = {2.0};
  std::vector<SweepWorkload::Input> nets;
  for (const int k : smoke ? std::vector<int>{4} : std::vector<int>{4, 8, 12}) {
    nets.push_back({"fattree" + std::to_string(k),
                    [k] { return topo::fatTree(k); }, Demand::kEdgeGravity});
  }
  return std::make_unique<SweepWorkload>(std::move(spec), std::move(nets),
                                         seed);
}

// Post-failure sweeps on Geant at margin 2, one per failure model -- every
// single link, 8 sampled link pairs, the derived SRLGs (the inputs of
// fig06-fail1, fig06-fail2 and fig06-srlg): failure::FailureEvaluator and
// the unrestricted OPTU re-solving after bounds mutations. No oracle.
class WanFailures final : public Workload {
 public:
  WanFailures(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {
    opt_.margin = 2.0;
    opt_.pool.seed = kCornerPoolSeed;
    opt_.coyote.splitting.iterations = 300;
    opt_.coyote.oblivious_pool.seed = kObliviousPoolSeed;
  }

  void setup(Recorder& rec) override {
    if (smoke_) {
      const Network& re = nets_.emplace_back(buildNetwork(
          rec, "running-example", topo::runningExample, Demand::kGravity));
      addFamily(rec, "running-example-fail1", re,
                [&] { return failure::singleLinkFailures(re.g); });
      return;
    }
    const Network& geant = nets_.emplace_back(buildNetwork(
        rec, "Geant", [] { return topo::makeZoo("Geant"); }, Demand::kGravity));
    addFamily(rec, "fig06-fail1", geant,
              [&] { return failure::singleLinkFailures(geant.g); });
    addFamily(rec, "fig06-fail2", geant, [&] {
      return failure::sampledDoubleLinkFailures(geant.g, 8, kDoubleLinkSeed);
    });
    addFamily(rec, "fig06-srlg", geant, [&] {
      return failure::srlgFailures(geant.g, failure::derivedSrlgs(geant.g));
    });
  }

  void run(Recorder& rec, json::Value& rows) override {
    const std::vector<const te::Scheme*>& list =
        te::SchemeRegistry::builtin().defaults();
    runOps(
        rec, families_.size(), seed_, rows,
        [&](std::size_t i) { return families_[i].name; },
        [&](std::size_t i, json::Value& out) {
          const Family& f = families_[i];
          std::optional<failure::FailureEvaluator> eval;
          rec.layer("failure.setup", [&] {
            eval.emplace(f.net->g, f.net->dags, f.net->base, opt_);
          });
          failure::FailureSweepResult res;
          rec.layer("failure.evaluate",
                    [&] { res = eval->evaluate(f.failures); });
          rec.count("failure.scenarios",
                    static_cast<double>(f.failures.size()));
          rec.count("failure.evaluated", res.evaluated);
          for (const failure::FailureOutcome& o : res.outcomes) {
            json::Value row = json::Value::object();
            row["family"] = f.name;
            row["label"] = o.label;
            row["evaluated"] = o.evaluated;
            if (o.evaluated) {
              for (std::size_t k = 0; k < list.size(); ++k) {
                if (o.routable[k]) row[list[k]->key()] = o.ratio[k];
              }
            }
            out.push_back(std::move(row));
          }
        });
  }

 private:
  struct Family {
    std::string name;
    const Network* net;
    std::vector<failure::FailureScenario> failures;
  };

  void addFamily(
      Recorder& rec, const std::string& name, const Network& net,
      const std::function<std::vector<failure::FailureScenario>()>& make) {
    Family f{name, &net, {}};
    rec.layer("failure.enumerate", [&] { f.failures = make(); });
    families_.push_back(std::move(f));
  }

  std::uint64_t seed_;
  bool smoke_;
  failure::FailureEvalOptions opt_;
  std::deque<Network> nets_;
  std::vector<Family> families_;
};

// A resident TeService on Geant configured like serve-geant-500, fed one
// event at a time through handleLine by a single client that waits for
// each reply (a closed loop, as the daemon's interactive mode runs). The
// events are the first ones of serve-geant-500's trace (seed 1); the
// service's pools keep their defaults, serve-geant-500's values. Events run
// in trace order whatever the seed: each one acts on the state the
// previous ones left.
class ServeGeant final : public Workload {
 public:
  explicit ServeGeant(bool smoke) { trace_opt_.events = smoke ? 20 : 40; }

  void setup(Recorder& rec) override {
    Graph g;
    rec.layer("topo.build", [&] { g = topo::makeZoo("Geant"); });
    std::optional<tm::TrafficMatrix> base;
    rec.layer("tm.base", [&] { base = tm::gravityMatrix(g, 1.0); });
    rec.layer("serve.trace",
              [&] { trace_ = serve::generateTrace(g, *base, trace_opt_); });
    rec.layer("serve.setup", [&] {
      serve::ServeOptions opt;
      opt.coyote.splitting.iterations = 150;
      service_ = std::make_unique<serve::TeService>(std::move(g), *base, opt);
    });
  }

  void run(Recorder& rec, json::Value& rows) override {
    long long seq = 0;
    for (const std::string& line : trace_) {
      const std::string op = json::parse(line).stringOr("op", "");
      rec.op(op, [&] {
        std::string response;
        rec.layer("serve." + op,
                  [&] { response = service_->handleLine(line); });
        const json::Value resp = json::parse(response);
        json::Value row = json::Value::object();
        row["seq"] = static_cast<double>(++seq);
        row["op"] = op;
        const json::Value* ok = resp.find("ok");
        const bool success = ok != nullptr && ok->isBool() && ok->asBool();
        row["ok"] = success;
        if (const json::Value* ratios = resp.find("ratios")) {
          for (const auto& [key, v] : ratios->asObject()) row[key] = v;
        }
        rows.push_back(std::move(row));
        if (!success) {
          throw std::runtime_error("ok:false response: " + response);
        }
      });
    }
    rec.count("serve.reoptimize_saved_iters",
              static_cast<double>(service_->reoptimizeSavedIters()));
  }

 private:
  serve::TraceOptions trace_opt_;
  std::vector<std::string> trace_;
  std::unique_ptr<serve::TeService> service_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool smoke) {
  if (name == "wan-sweep") return wanSweep(seed, smoke);
  if (name == "wan-failures") return std::make_unique<WanFailures>(seed, smoke);
  if (name == "dc-fattree") return dcFattree(seed, smoke);
  if (name == "serve-geant") return std::make_unique<ServeGeant>(smoke);
  throw std::invalid_argument("unknown workload: " + name);
}

// One pass: fresh objects, set-up, then the measured work.
json::Value runPass(const std::string& workload, std::uint64_t seed,
                    bool smoke, bool traced, double epoch) {
  Recorder rec(traced, epoch);
  json::Value rows = json::Value::array();
  json::Value pass = json::Value::object();
  pass["traced"] = traced;

  const std::unique_ptr<Workload> w = makeWorkload(workload, seed, smoke);
  const double t0 = util::nowSeconds();
  w->setup(rec);
  const double t1 = util::nowSeconds();
  const lp::StatsSnapshot lp0 = lp::statsSnapshot();
  w->run(rec, rows);
  const lp::StatsSnapshot lp = lp::statsSnapshot() - lp0;
  const double t2 = util::nowSeconds();

  pass["setup_s"] = t1 - t0;
  pass["run_s"] = t2 - t1;
  pass["lp"] = lpJson(lp);
  pass["rows"] = std::move(rows);
  rec.write(pass);
  return pass;
}

constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 0.5;

int usage() {
  std::fprintf(stderr,
               "usage: coyote_bench --workload <wan-sweep|wan-failures|"
               "dc-fattree|serve-geant>\n"
               "                    --seed <n> --out <file> "
               "(--seconds <t> | --passes <n>)\n"
               "                    [--trace] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int passes = 0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--passes" && has_value) {
      passes = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (workload.empty() || out_path.empty() ||
      (seconds <= 0.0) == (passes <= 0)) {
    return usage();
  }

  try {
    const double epoch = util::nowSeconds();
    // Set-up alone first, at least kSetupReps times and for at least
    // kSetupSeconds, so set-up time is a median of many samples even when
    // it takes a millisecond and few passes fit the budget.
    json::Value setups = json::Value::array();
    for (double spent = 0.0; static_cast<int>(setups.asArray().size()) <
                                 kSetupReps || spent < kSetupSeconds;) {
      Recorder rec(false, epoch);
      const std::unique_ptr<Workload> w = makeWorkload(workload, seed, smoke);
      const double t0 = util::nowSeconds();
      w->setup(rec);
      const double t = util::nowSeconds() - t0;
      setups.push_back(t);
      spent += t;
    }
    json::Value all = json::Value::array();
    // Passes run while the next one is expected to fit the budget (at
    // least one, and with --trace at least one of each kind).
    double longest = 0.0;
    for (int p = 0;; ++p) {
      const bool traced = trace && p % 2 == 1;
      const double start = util::nowSeconds();
      all.push_back(runPass(workload, seed, smoke, traced, epoch));
      longest = std::max(longest, util::nowSeconds() - start);
      const int done = p + 1;
      if (passes > 0) {
        if (done >= passes) break;
      } else if (done >= (trace ? 2 : 1) &&
                 util::nowSeconds() - epoch + longest > seconds) {
        break;
      }
    }

    json::Value doc = json::Value::object();
    doc["workload"] = workload;
    doc["seed"] = static_cast<double>(seed);
    doc["smoke"] = smoke;
    doc["threads"] = static_cast<int>(util::ThreadPool::defaultThreads());
    doc["peak_rss_mb"] = peakRssMb();
    doc["setup_s"] = std::move(setups);
    doc["passes"] = std::move(all);
    std::ofstream file(out_path);
    file << doc.dump(0) << "\n";
    file.close();
    if (!file.good()) {
      std::fprintf(stderr, "coyote_bench: cannot write %s\n", out_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_bench: %s\n", e.what());
    return 1;
  }
}
