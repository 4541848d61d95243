// Performance-ratio evaluation against a finite pool of demand matrices.
//
// PERF(phi, D) = max over D in the pool of MxLU(phi, D) / OPTU(D), where
// OPTU is the demands-aware optimum within the same DAGs (the normalization
// used by the paper's figures). Each matrix's OPTU is solved once and cached
// (an LP, or a min cut when the matrix has one destination); evaluating a
// routing is then one compile (CompiledRouting, propagation.hpp) and
// |pool| cheap propagations, which is what makes the
// Table I sweep tractable. The same pool doubles as the
// cutting-plane set of COYOTE's optimizer. For exact worst-case evaluation
// over the whole box, see worst_case.hpp.
#pragma once

#include <memory>
#include <vector>

#include "lp/lp.hpp"
#include "routing/config.hpp"
#include "routing/optu.hpp"
#include "tm/uncertainty.hpp"
#include "util/thread_pool.hpp"

namespace coyote::routing {

/// How pool matrices are normalized to "optimum = 1".
enum class Normalization {
  kWithinDags,    ///< by OPTU restricted to the DAGs (the paper's figures)
  kUnrestricted,  ///< by OPTU over all destination-based routings (Sec. IV)
};

class PerformanceEvaluator {
 public:
  /// `engine` may share a warm OPTU solver across evaluators (one per
  /// (graph, DAG-set); see NetworkSweep, which reuses it across margin
  /// points). When null, the evaluator builds a private engine matching
  /// `norm`. A supplied engine must have been built over the same graph
  /// and, for kWithinDags, the same DAG set.
  PerformanceEvaluator(const Graph& g, std::shared_ptr<const DagSet> dags,
                       lp::SimplexOptions lp_options = {},
                       Normalization norm = Normalization::kWithinDags,
                       std::shared_ptr<OptuEngine> engine = nullptr)
      : g_(g), dags_(std::move(dags)), engine_(std::move(engine)) {
    require(dags_ != nullptr, "null dag set");
    // lp_options/norm only shape the default engine: once an engine
    // exists (supplied or built here), it alone defines the
    // normalization LP and its solver options.
    if (engine_ == nullptr) {
      engine_ = (norm == Normalization::kWithinDags)
                    ? std::make_shared<OptuEngine>(g_, dags_, lp_options)
                    : std::make_shared<OptuEngine>(g_, lp_options);
    }
  }

  /// Adds a matrix to the pool: computes OPTU within the DAGs once and
  /// stores the matrix rescaled so its OPTU equals 1. Matrices with zero
  /// demand, or equal (after normalization, up to a small relative
  /// tolerance absorbing LP round-off) to one already pooled, are ignored.
  /// Returns the pool index, or -1 if ignored.
  int addMatrix(const tm::TrafficMatrix& d);

  /// Adds every matrix of a pool (see tm::cornerPool / tm::obliviousPool).
  /// Normalization LPs for distinct matrices are independent and run on
  /// multiple threads; results keep the pool's order. Taken by value and
  /// normalized in place: pass an rvalue to hold each matrix only once.
  void addPool(std::vector<tm::TrafficMatrix> pool);

  /// Adds matrices already normalized to OPTU == 1 (another evaluator's
  /// matrices() over the same graph and DAG set), deduplicated like
  /// addPool; solves no LP.
  void addNormalized(std::vector<tm::TrafficMatrix> pool);

  [[nodiscard]] int size() const { return static_cast<int>(pool_.size()); }
  /// i-th matrix, normalized to OPTU == 1.
  [[nodiscard]] const tm::TrafficMatrix& matrix(int i) const {
    return pool_.at(i);
  }
  [[nodiscard]] const std::vector<tm::TrafficMatrix>& matrices() const {
    return pool_;
  }

  /// PERF(cfg, pool) = max_i MxLU(cfg, matrix(i)).
  [[nodiscard]] double ratioFor(const RoutingConfig& cfg) const;

  /// (pool index, ratio) of the worst matrix for cfg; index -1 if empty.
  [[nodiscard]] std::pair<int, double> worst(const RoutingConfig& cfg) const;

  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] std::shared_ptr<const DagSet> dagsPtr() const { return dags_; }

  /// Runs addPool/ratioFor/worst and core::optimizeSplitting against this
  /// pool on `pool` (borrowed; it must outlive the evaluator) instead of
  /// the process-wide util::ThreadPool::global(). Results are bit-identical
  /// for every pool (reduction order is serial).
  void setThreadPool(util::ThreadPool& pool) { thread_pool_ = &pool; }
  /// The pool set by setThreadPool, else util::ThreadPool::global().
  [[nodiscard]] util::ThreadPool& threadPool() const {
    return thread_pool_ != nullptr ? *thread_pool_
                                   : util::ThreadPool::global();
  }

 private:
  /// OPTU of d under the configured normalization; 0 for zero demand.
  double normalizationOf(const tm::TrafficMatrix& d) const;
  /// Appends a normalized matrix unless it duplicates a pooled one;
  /// returns its index, or -1 if ignored.
  int insert(tm::TrafficMatrix scaled);

  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;
  std::shared_ptr<OptuEngine> engine_;
  std::vector<tm::TrafficMatrix> pool_;
  util::ThreadPool* thread_pool_ = nullptr;
};

}  // namespace coyote::routing
