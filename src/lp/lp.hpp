// Self-contained linear-programming engine.
//
// The paper solves several families of LPs (the demands-aware optimum
// OPTU(D), the per-edge worst-case-demand "slave LP" of Sec. IV/Appendix C,
// and the optimal base-TM routing of [24]) with AMPL+MOSEK. Neither is
// available offline, so this module implements a *sparse revised primal
// simplex* over bounded variables:
//
//  * column-sparse constraint storage -- every row gets one logical
//    (slack) column, so the constraint matrix is [A | I] and an all-logical
//    basis is always available;
//  * bounded-variable pivoting -- finite upper bounds are handled natively
//    by the ratio test (nonbasic variables rest at either bound and may
//    bound-flip), not by materializing extra rows;
//  * devex reference-framework pricing with candidate-list partial pricing
//    (Bland's rule is the anti-cycling fallback);
//  * a Harris-style two-pass ratio test with a bounded tolerance-expansion
//    degeneracy perturbation, and a piecewise-linear long-step variant for
//    the composite phase 1;
//  * a sparse LU basis factorization with Markowitz pivot ordering and
//    Forrest-Tomlin updates (basis.*), so long warm-start chains do not pay
//    eta-chain growth between refactorizations;
//  * a composite (artificial-free) phase 1 that minimizes the total bound
//    violation of the basic variables, which makes any basis -- in
//    particular a retained basis after setRhs/setBounds/setObjective
//    mutations -- a valid warm start.
//
// See docs/lp-engine.md for the full design document.
//
// The SimplexSolver session API retains the optimal basis between solves:
// consumers that solve long sequences of near-identical LPs (OPTU across a
// pool of matrices, the per-edge slave LPs across cutting-plane rounds)
// mutate the objective/rhs/bounds and re-solve instead of rebuilding, which
// typically cuts simplex pivots by an order of magnitude. A session holds
// the one column-major copy of its matrix; engines keep one never-solved
// prototype session and copy it for every chain. The one-shot lp::solve()
// wrapper serves callers without solve sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace coyote::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class Rel { kLe, kGe, kEq };
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

[[nodiscard]] std::string toString(Status s);

/// One nonzero coefficient of a constraint row.
struct Term {
  int var = 0;
  double coef = 0.0;
};

/// Incrementally built LP:
///     optimize  c^T x
///     s.t.      sum_j a_ij x_j  {<=,=,>=}  b_i      for every row i
///               lb_j <= x_j <= ub_j                 for every variable j
/// Lower bounds must be finite; ub may be +infinity.
class LpProblem {
 public:
  explicit LpProblem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  /// Adds a variable, returns its index.
  int addVar(double obj = 0.0, double lb = 0.0, double ub = kInfinity);

  /// Adds a constraint row. Terms may repeat a variable (coefficients add).
  void addConstraint(std::vector<Term> terms, Rel rel, double rhs);

  void setObjective(int var, double coef);

  /// Mutates a variable's bounds in place (lb finite, ub >= lb; ub may be
  /// kInfinity), e.g. pinning a failed edge's flow variable to zero before
  /// the problem becomes a session.
  void setVarBounds(int var, double lb, double ub);

  /// Mutates a constraint's right-hand side in place (e.g. a block LP's
  /// conservation rows, built with rhs 0, pointed at a demand matrix).
  void setConstraintRhs(int row, double rhs);

  [[nodiscard]] double rowRhs(int row) const {
    require(row >= 0 && row < numRows(), "rowRhs: bad row");
    return rhs_[row];
  }

  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] int numVars() const { return static_cast<int>(obj_.size()); }
  [[nodiscard]] int numRows() const { return static_cast<int>(rhs_.size()); }

 private:
  friend class SimplexSolver;
  Sense sense_;
  std::vector<double> obj_, lb_, ub_;
  std::vector<std::vector<Term>> rows_;
  std::vector<Rel> rels_;
  std::vector<double> rhs_;
};

/// Solver tolerances and limits. Pricing is always devex, and solve() on a
/// warm basis that is primal-infeasible but still dual-feasible -- the
/// common state after setRhs/setBounds mutation chains on an optimal
/// basis -- always runs the bounded-variable dual simplex before the
/// composite primal phase 1 (see docs/lp-engine.md).
struct SimplexOptions {
  int max_iterations = 200000;
  /// Refactorize the LU basis factorization after this many Forrest-Tomlin
  /// updates (it also refactorizes early when the stored fill outgrows the
  /// fresh factorization by a fixed factor).
  int refactor_every = 128;
  /// Switch to Bland's rule after this many non-improving pivots (0: at
  /// the first degenerate pivot).
  int stall_limit = 2000;
};

/// Primal feasibility tolerance, relative to 1 + the largest |rhs|.
inline constexpr double kFeasTol = 1e-7;
/// Optimality (reduced-cost) tolerance; the dual simplex scales it by
/// 1 + the largest |cost|.
inline constexpr double kOptTol = 1e-8;

/// A simplex basis: one status entry per column (structural variables
/// first, then one logical/slack column per row). Retained by
/// SimplexSolver between solves and exported in LpResult so callers can
/// warm-start a different session (e.g. a per-thread clone).
struct Basis {
  enum : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };
  std::vector<std::int8_t> status;

  [[nodiscard]] bool empty() const { return status.empty(); }
};

/// The one record of LP work: a solve's counters (LpResult::stats) and the
/// process-wide total they are added into (stats.hpp), whose differences
/// are what consumers report. Every count is deterministic for a given
/// binary and problem; only `seconds` is wall-clock noise.
struct StatsSnapshot {
  std::int64_t solves = 0;            ///< completed solve() calls
  std::int64_t iterations = 0;        ///< pivots + bound flips, both phases
  std::int64_t phase1_iters = 0;      ///< iterations restoring feasibility
  std::int64_t refactorizations = 0;  ///< basis refactorizations performed
  std::int64_t iter_limit_solves = 0; ///< solves that hit max_iterations
  std::int64_t pricing_hits = 0;      ///< enterings served from the devex
                                      ///< candidate list without a column scan
  std::int64_t degen_rescues = 0;     ///< ratio-test degeneracy rescues: Harris
                                      ///< picks that stepped past the textbook
                                      ///< minimum-ratio blocker for a larger
                                      ///< pivot, plus bounded-perturbation
                                      ///< (tolerance-expansion) resets
  std::int64_t lu_updates = 0;        ///< Forrest-Tomlin basis updates applied
  std::int64_t lu_fill = 0;           ///< summed nonzeros of fresh LU
                                      ///< factorizations (the fill-in measure)
  std::int64_t dual_pivots = 0;       ///< dual-simplex pivots (warm rhs/bound
                                      ///< repair; also counted in `iterations`)
  std::int64_t decomp_rounds = 0;     ///< OPTU block-decomposition price rounds
                                      ///< (recorded by routing::OptuEngine into
                                      ///< the total; 0 in a solve's record)
  double seconds = 0.0;               ///< wall time inside solve()

  StatsSnapshot& operator+=(const StatsSnapshot& o) {
    return combine(o, std::plus<>{});
  }
  StatsSnapshot operator-(const StatsSnapshot& o) const {
    StatsSnapshot d = *this;
    return d.combine(o, std::minus<>{});
  }

 private:
  /// Applies `op` field by field; the only other place the list is written.
  template <class Op>
  StatsSnapshot& combine(const StatsSnapshot& o, Op op) {
    solves = op(solves, o.solves);
    iterations = op(iterations, o.iterations);
    phase1_iters = op(phase1_iters, o.phase1_iters);
    refactorizations = op(refactorizations, o.refactorizations);
    iter_limit_solves = op(iter_limit_solves, o.iter_limit_solves);
    pricing_hits = op(pricing_hits, o.pricing_hits);
    degen_rescues = op(degen_rescues, o.degen_rescues);
    lu_updates = op(lu_updates, o.lu_updates);
    lu_fill = op(lu_fill, o.lu_fill);
    dual_pivots = op(dual_pivots, o.dual_pivots);
    decomp_rounds = op(decomp_rounds, o.decomp_rounds);
    seconds = op(seconds, o.seconds);
    return *this;
  }
};

struct LpResult {
  Status status = Status::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal solution in original variable space
  /// Row duals y in the problem's own sense (valid when status ==
  /// kOptimal): y_i = d(objective)/d(rhs_i) at the final basis, so a <=
  /// row has y_i >= 0 when maximizing and <= 0 when minimizing (>= rows
  /// the reverse; = rows are free). They are the phase-2 duals
  /// B^-T c_B of the optimal basis, taken on a fresh factorization. When
  /// every variable has lower bound 0 and no finite upper bound, rhs . y
  /// equals the objective (strong duality).
  std::vector<double> row_duals;
  Basis basis;            ///< final basis (valid when status == kOptimal)
  StatsSnapshot stats;    ///< this solve's work (added to the total)

  [[nodiscard]] bool optimal() const { return status == Status::kOptimal; }
};

/// A solver session: converts the problem once into its own column-major
/// matrix (the LpProblem is not kept) and retains the basis and
/// factorization state across solves. Mutations are cheap and never
/// invalidate the retained basis -- the composite phase 1 repairs any lost
/// feasibility on the next solve(), so
///
///     SimplexSolver s(problem);
///     auto r0 = s.solve();
///     s.setRhs(row, v);            // or setObjective / setBounds
///     auto r1 = s.solve();         // warm start from r0's basis
///
/// is the intended idiom. Sessions are copyable: clone one per worker to
/// fan a family of solves out over threads deterministically. A copy of a
/// never-solved session is exactly what SimplexSolver(problem) builds
/// (cold all-logical basis, unit devex weights, no factorization), and
/// setBounds on it only writes bounds, so a never-solved prototype stands
/// in for the problem it was built from.
class SimplexSolver {
 public:
  explicit SimplexSolver(const LpProblem& problem, SimplexOptions opt = {});
  SimplexSolver(const SimplexSolver&);
  SimplexSolver& operator=(const SimplexSolver&);
  SimplexSolver(SimplexSolver&&) noexcept;
  SimplexSolver& operator=(SimplexSolver&&) noexcept;
  ~SimplexSolver();

  /// Solves from the retained basis (cold all-logical basis on the first
  /// call or after setBasis({})). Updates the retained basis on success.
  [[nodiscard]] LpResult solve();

  // --- mutations (retained basis survives; next solve() warm-starts) ---
  void setObjective(int var, double coef);
  void setRhs(int row, double rhs);
  /// lb must stay finite; ub may be kInfinity; ub == lb fixes the variable.
  void setBounds(int var, double lb, double ub);

  /// Installs an externally retained basis ({} resets to a cold start).
  /// Earlier setRhs edits stop counting toward the dual simplex's entry
  /// gate, so the installed basis is judged by its violated-basic count.
  void setBasis(const Basis& basis);
  [[nodiscard]] const Basis& basis() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot solve (cold start). Never throws for infeasible/unbounded
/// inputs (reported via Status); throws std::invalid_argument for
/// malformed problems.
[[nodiscard]] LpResult solve(const LpProblem& p, const SimplexOptions& opt = {});

}  // namespace coyote::lp
